package cluster

import (
	"fmt"
	"net"
	"sync"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// RunTreePipe executes one full session as a hierarchical aggregation
// tree over in-process net.Pipe transports: a root referee, depth tiers
// of aggregators splitting the node-ID space into contiguous windows of
// at most fanout children per parent, and one node client per network
// node dialing its bottom-tier aggregator. Faults are injected per plan
// on the leaf links (nil plan = clean links) — fault streams are keyed
// by (node, attempt) only, independent of the dial target, so a tree run
// loses exactly the votes the flat star would.
//
// Verdicts are pinned trial-for-trial identical to RunPipe and to
// zeroround.(*Network).RunAt: partial sums compose the same monoid the
// flat referee folds vote by vote.
func RunTreePipe(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan, fanout, depth int) (*Report, error) {
	if depth < 1 {
		return nil, fmt.Errorf("cluster: tree depth must be ≥ 1, got %d", depth)
	}
	return runTree(cfg, nw, d, plan, fanout, depth, listenPipe)
}

// RunTreeTCP is RunTreePipe over real TCP loopback listeners, one per
// tree server.
func RunTreeTCP(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan, fanout, depth int) (*Report, error) {
	if depth < 1 {
		return nil, fmt.Errorf("cluster: tree depth must be ≥ 1, got %d", depth)
	}
	return runTree(cfg, nw, d, plan, fanout, depth, listenTCP)
}

// runTree builds the aggregation tree — depth 0 is the flat star, every
// leaf dialing the root — launches the leaves, and reconciles every
// tier's outcome.
func runTree(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan, fanout, depth int,
	newListener func() (net.Listener, func() (net.Conn, error), error)) (*Report, error) {
	k := nw.K()
	if depth > 0 && fanout < 2 {
		return nil, fmt.Errorf("cluster: tree fanout must be ≥ 2, got %d", fanout)
	}
	rf := NewReferee(k, nw.Rule(), cfg)
	rootL, rootDial, err := newListener()
	if err != nil {
		return nil, err
	}

	var (
		aggWG   sync.WaitGroup
		aggMu   sync.Mutex
		aggErrs []error
	)
	leafDial := make([]func() (net.Conn, error), k)
	nextID := uint32(0)
	// build splits [lo, hi) into at most fanout contiguous windows per
	// tier; tier counts down to the leaves, so bottom-tier aggregators are
	// Tier 1 and the root's children Tier depth.
	var build func(lo, hi, tier int, dial func() (net.Conn, error)) error
	build = func(lo, hi, tier int, dial func() (net.Conn, error)) error {
		if tier == 0 {
			for n := lo; n < hi; n++ {
				leafDial[n] = dial
			}
			return nil
		}
		span := hi - lo
		chunks := fanout
		if chunks > span {
			chunks = span
		}
		for c := 0; c < chunks; c++ {
			clo := lo + c*span/chunks
			chi := lo + (c+1)*span/chunks
			l, ldial, lerr := newListener()
			if lerr != nil {
				return lerr
			}
			agg := &Aggregator{ID: nextID, Lo: clo, Hi: chi, K: k, Tier: tier, Dial: dial, Config: cfg}
			nextID++
			aggWG.Add(1)
			go func() {
				defer aggWG.Done()
				if serr := agg.Serve(l); serr != nil {
					aggMu.Lock()
					aggErrs = append(aggErrs, serr)
					aggMu.Unlock()
				}
			}()
			if berr := build(clo, chi, tier-1, ldial); berr != nil {
				return berr
			}
		}
		return nil
	}
	if err := build(0, k, depth, rootDial); err != nil {
		rootL.Close()
		return nil, err
	}

	wait := StartNodes(cfg, nw, d, plan, func(i int) func() (net.Conn, error) { return leafDial[i] })
	rep, err := rf.Serve(rootL)
	nodeErr := wait()
	aggWG.Wait()
	if err != nil {
		return rep, err
	}
	if nodeErr != nil {
		return rep, nodeErr
	}
	if len(aggErrs) > 0 {
		return rep, aggErrs[0]
	}
	return rep, nil
}

// StartNodes starts one NodeClient per node of nw, node i dialing
// dial(i), and returns the function that waits for all of them. wait
// returns the error of the lowest-numbered node that failed, exactly as
// NodeClient.Run wrote it, or nil.
func StartNodes(cfg Config, nw *zeroround.Network, d dist.Distribution, plan *FaultPlan,
	dial func(node int) func() (net.Conn, error)) (wait func() error) {
	k := nw.K()
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		nc := &NodeClient{ID: i, K: k, Tester: nw.Node(i), Config: cfg, Dial: dial(i), Faults: plan}
		go func() {
			defer wg.Done()
			_, errs[i] = nc.Run(d)
		}()
	}
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}
