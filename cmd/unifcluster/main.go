// Command unifcluster runs one 0-round uniformity-testing session as a
// real cluster: a referee service plus k in-process node clients speaking
// the length-prefixed wire protocol over net.Pipe or TCP loopback, with
// optional seeded transport faults.
//
// Usage:
//
//	unifcluster [-rule threshold|and] [-k 60] [-n 64] [-eps 1.0]
//	            [-dist uniform|twobump|zipf|halfsupport] [-trials 10]
//	            [-seed 1] [-transport pipe|tcp] [-policy observed|strict]
//	            [-drop 0] [-dup 0] [-disconnect 0]
//	            [-delay 0] [-fault-seed 1] [-retries 0] [-backoff 5ms]
//	            [-deadline 10s] [-batch 0] [-agg 0] [-agg-depth 1]
//	            [-json] [-journal run.jsonl] [-obs-addr :9090]
//
//	unifcluster serve  [-addr 127.0.0.1:4600] [-max-sessions 16]
//	                   [-tenant-budget 0] [-max-k 0] [-max-trials 0]
//	                   [-deadline 10s] [-journal-dir DIR]
//	                   [-obs-addr :9090]
//	unifcluster submit [-addr 127.0.0.1:4600] [-tenant 1]
//	                   [run flags: -rule -k -n -eps -dist -trials -seed
//	                   -batch -drop -dup -disconnect -delay
//	                   -fault-seed -retries -backoff -json]
//
// serve runs the long-lived multi-tenant session service: one listener
// multiplexing many concurrent testing sessions, each admitted via a
// SessionOpen frame with per-tenant quotas, folded by an isolated referee,
// and answered with a SessionReport. submit is the client side: it opens
// a session, runs k node clients against the service, and prints (or
// emits as -json) the same report the legacy single-run mode produces.
//
// Trials with missing votes are decided from the votes that arrived, a
// missing vote counting as an accept, under either -policy; strict then
// fails a run that lost any vote, after the journal is flushed.
//
// -batch enables the high-throughput transport: votes coalesce into
// VoteBatch frames of up to -batch votes, each written to the node's
// connection as soon as it is full. Batching changes no verdict —
// batched runs are trial-for-trial identical to unbatched ones.
//
// -agg shards the referee behind a hierarchical aggregation tree: the
// node-ID space splits into contiguous windows of at most -agg children
// per parent across -agg-depth aggregator tiers, each aggregator folds
// its window's votes into per-trial partial sums and forwards them
// upstream as PartialVerdict frames, and the root referee merges the
// sums. Like batching, the topology reshapes the wire traffic, never the
// verdicts: tree runs are trial-for-trial identical to the flat star.
//
// -json replaces the human-readable summary with the machine-readable run
// document every other command emits (provenance + results + metrics);
// -journal streams per-trial verdict events — and, with it, the telemetry
// plane's linked span records — as JSON Lines; -obs-addr serves live
// /metrics, /healthz, /runz and pprof over HTTP for the duration of the
// run (the bound address is printed to stderr, so ":0" works).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/export"
	"github.com/unifdist/unifdist/internal/obs/trace"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// obsReady is called with the bound obs-server address once it is
// listening; tests override it to discover a ":0" port.
var obsReady = func(string) {}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unifcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// Subcommands first; a leading flag (or nothing) selects the legacy
	// single-run mode, unchanged.
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:], stdout)
		case "submit":
			return runSubmit(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("unifcluster", flag.ContinueOnError)
	var (
		ruleName  = fs.String("rule", "threshold", "decision rule: threshold (Thm 1.2) or and (Thm 1.1)")
		k         = fs.Int("k", 60, "number of node clients")
		n         = fs.Int("n", 64, "domain size")
		eps       = fs.Float64("eps", 1.0, "L1 distance parameter")
		distName  = fs.String("dist", "uniform", "uniform, twobump, zipf or halfsupport")
		trials    = fs.Int("trials", 10, "Monte-Carlo trials per session")
		seed      = fs.Uint64("seed", 1, "base seed of the indexed sample streams")
		transport = fs.String("transport", "pipe", "pipe (in-memory) or tcp (loopback)")
		policy    = fs.String("policy", "observed", "missing-vote policy: observed or strict")
		faultPlan = faultFlags(fs)
		retries   = fs.Int("retries", 0, "node redial attempts after transport errors")
		backoff   = fs.Duration("backoff", 5*time.Millisecond, "initial retry backoff (doubles per attempt)")
		deadline  = fs.Duration("deadline", cluster.DefaultDeadline, "session safety-net deadline")
		batch     = fs.Int("batch", 0, "coalesce up to this many votes per VoteBatch frame (0 = one frame per vote)")
		aggFanout = fs.Int("agg", 0, "shard the referee behind an aggregator tree of this fanout (0 = flat star, ≥ 2 = tree)")
		aggDepth  = fs.Int("agg-depth", 1, "aggregator tiers between the leaves and the root (requires -agg)")
		jsonFlag  = fs.Bool("json", false, "emit a machine-readable run document instead of text")
		jrnlFlag  = fs.String("journal", "", "write per-trial events and trace spans to this JSONL file")
		obsAddr   = fs.String("obs-addr", "", "serve live /metrics, /healthz, /runz and pprof on this address (e.g. :9090 or 127.0.0.1:0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	nw, params, err := buildNetwork(*ruleName, *n, *k, *eps)
	if err != nil {
		return err
	}
	d, err := dist.ByName(*distName, *n, *eps, *seed)
	if err != nil {
		return err
	}

	if *policy != "observed" && *policy != "strict" {
		return fmt.Errorf("unknown policy %q", *policy)
	}

	if *aggFanout == 1 || *aggFanout < 0 {
		return fmt.Errorf("-agg must be 0 (flat star) or an aggregator fanout ≥ 2, got %d", *aggFanout)
	}
	if *aggDepth < 1 {
		return fmt.Errorf("-agg-depth must be ≥ 1, got %d", *aggDepth)
	}

	cfg := cluster.Config{
		Trials:   *trials,
		BaseSeed: *seed,
		Deadline: *deadline,
		Retries:  *retries,
		Backoff:  *backoff,
		Batch:    *batch,
	}
	plan := faultPlan()

	out := stdout
	var reg *obs.Registry
	if *jsonFlag {
		out = nil
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	prov := obs.CollectProvenance("unifcluster", *transport, *seed, args)
	if *batch >= 2 {
		// The transport shape changes the wire traffic, never the verdicts;
		// record it so the run document explains its own byte counts.
		prov.Extra = map[string]string{"batch": fmt.Sprint(*batch)}
	}
	if *aggFanout >= 2 {
		// Like batching, the tree topology reshapes the wire traffic — the
		// root folds PartialVerdict sums instead of raw votes — but never
		// the verdicts.
		if prov.Extra == nil {
			prov.Extra = map[string]string{}
		}
		prov.Extra["agg_fanout"] = fmt.Sprint(*aggFanout)
		prov.Extra["agg_depth"] = fmt.Sprint(*aggDepth)
	}
	var journal *obs.Journal
	if *jrnlFlag != "" {
		journal, err = obs.OpenJournal(*jrnlFlag)
		if err != nil {
			return err
		}
		defer journal.Close()
		if cfg.Obs == nil {
			cfg.Obs = obs.NewRegistry()
			reg = cfg.Obs
		}
		journal.Write(struct {
			Kind       string         `json:"kind"`
			Provenance obs.Provenance `json:"provenance"`
		}{Kind: "run_start", Provenance: prov})
		// A journaled run is also a traced run: every vote frame carries
		// wire trace context, and the journal collects the linked spans
		// (node sample → send → referee apply → verdict).
		cfg.Trace = trace.New(journal, trace.Derive("unifcluster", *seed))
	}

	// liveRep publishes the finished report to the /runz handler.
	var liveRep atomic.Pointer[cluster.Report]
	if *obsAddr != "" {
		if reg == nil {
			reg = obs.NewRegistry()
			cfg.Obs = reg
		}
		// Copy the provenance by value: the run goroutine fills in WallMS
		// after the run while /runz handlers may be reading.
		provCopy := prov
		obsReg := reg
		srv := export.New(reg,
			export.WithRate("cluster.votes"),
			export.WithRunz(func() any {
				doc := map[string]any{
					"provenance": provCopy,
					"running":    liveRep.Load() == nil,
					"metrics":    obsReg.Snapshot(),
				}
				if rep := liveRep.Load(); rep != nil {
					doc["report"] = rep
				}
				return doc
			}))
		bound, err := srv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "unifcluster: obs server listening on http://%s\n", bound)
		obsReady(bound)
	}

	printf(out, "cluster: rule=%s k=%d n=%d trials=%d transport=%s policy=%s\n",
		nw.Rule().Name(), nw.K(), *n, *trials, *transport, *policy)
	if *aggFanout >= 2 {
		printf(out, "topology: aggregation tree, fanout=%d depth=%d\n", *aggFanout, *aggDepth)
	}
	printf(out, "input: %s (true distance from uniform: %.4g)\n", d.Name(), dist.L1FromUniform(d))
	if plan != nil {
		printf(out, "faults: drop=%.3g dup=%.3g disconnect=%.3g delay=%s seed=%d\n",
			plan.Drop, plan.Dup, plan.Disconnect, plan.Delay, plan.Seed)
	}

	start := time.Now()
	var rep *cluster.Report
	var runErr error
	switch {
	case *transport == "pipe" && *aggFanout >= 2:
		rep, runErr = cluster.RunTreePipe(cfg, nw, d, plan, *aggFanout, *aggDepth)
	case *transport == "tcp" && *aggFanout >= 2:
		rep, runErr = cluster.RunTreeTCP(cfg, nw, d, plan, *aggFanout, *aggDepth)
	case *transport == "pipe":
		rep, runErr = cluster.RunPipe(cfg, nw, d, plan)
	case *transport == "tcp":
		rep, runErr = cluster.RunTCP(cfg, nw, d, plan)
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}
	prov.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	liveRep.Store(rep)
	// The strict policy decides every trial as the observed one does, then
	// fails a run that lost votes.
	if runErr == nil && *policy == "strict" && rep.MissingVotes > 0 {
		runErr = fmt.Errorf("cluster: strict quorum: %d votes missing across %d trials", rep.MissingVotes, rep.QuorumTrials)
	}

	// Flush the journal before surfacing any run error: a strict-quorum
	// failure (or a failed node) still carries a fully decided report, and
	// returning first would truncate the journal after run_start — losing
	// every trial line.
	if journal != nil && rep != nil {
		rep.WriteTrials(journal)
		end := struct {
			Kind   string  `json:"kind"`
			WallMS float64 `json:"wall_ms"`
			Error  string  `json:"error,omitempty"`
		}{Kind: "run_end", WallMS: prov.WallMS}
		if runErr != nil {
			end.Error = runErr.Error()
		}
		journal.Write(end)
		if jerr := journal.Err(); jerr != nil && runErr == nil {
			runErr = jerr
		}
	}
	if runErr != nil {
		return runErr
	}

	printf(out, "verdict: %d/%d trials accept (missing votes: %d, quorum trials: %d, early trials: %d)\n",
		rep.Accepts, rep.Trials, rep.MissingVotes, rep.QuorumTrials, rep.EarlyTrials)
	printf(out, "transport: %d connections, %d frames, %d bytes, %d votes (%d duplicate, %d bad frames)\n",
		rep.Stats.Connections, rep.Stats.Frames, rep.Stats.Bytes,
		rep.Stats.Votes, rep.Stats.DuplicateVotes, rep.Stats.BadFrames)
	if rep.Stats.BatchFrames > 0 {
		printf(out, "batching: %d votes in %d batch frames\n", rep.Stats.BatchedVotes, rep.Stats.BatchFrames)
	}
	if rep.Stats.PartialFrames > 0 {
		printf(out, "aggregation: %d votes folded from %d partial frames (%d duplicate entries)\n",
			rep.Stats.PartialVotes, rep.Stats.PartialFrames, rep.Stats.DuplicatePartials)
	}
	if rep.Stats.DeadlineExpired {
		printf(out, "WARNING: safety-net deadline expired before the protocol finished\n")
	}

	if *jsonFlag {
		doc := obs.Document{
			Provenance: prov,
			Results: map[string]any{
				"rule":    nw.Rule().Name(),
				"params":  params,
				"report":  rep,
				"input":   map[string]any{"dist": d.Name(), "n": *n, "l1_from_uniform": dist.L1FromUniform(d)},
				"faults":  plan,
				"policy":  *policy,
				"retries": *retries,
			},
		}
		if reg != nil {
			snap := reg.Snapshot()
			doc.Metrics = &snap
		}
		return doc.WriteJSON(stdout)
	}
	return nil
}

// faultFlags registers the five fault-plan flags on fs and returns the
// builder of the plan they describe: nil when every rate and the delay
// are zero.
func faultFlags(fs *flag.FlagSet) func() *cluster.FaultPlan {
	var (
		drop  = fs.Float64("drop", 0, "per-vote drop probability")
		dup   = fs.Float64("dup", 0, "per-vote duplication probability")
		disc  = fs.Float64("disconnect", 0, "per-vote hard-disconnect probability")
		delay = fs.Duration("delay", 0, "max per-vote injected delay")
		seed  = fs.Uint64("fault-seed", 1, "seed of the fault plan's link streams")
	)
	return func() *cluster.FaultPlan {
		if *drop > 0 || *dup > 0 || *disc > 0 || *delay > 0 {
			return &cluster.FaultPlan{Seed: *seed, Drop: *drop, Dup: *dup, Disconnect: *disc, Delay: *delay}
		}
		return nil
	}
}

func printf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// buildNetwork solves and builds the requested 0-round network, returning
// the solved parameter struct for the run document.
func buildNetwork(rule string, n, k int, eps float64) (*zeroround.Network, any, error) {
	switch rule {
	case "threshold":
		cfg, err := zeroround.SolveThreshold(n, k, eps)
		if err != nil {
			return nil, nil, err
		}
		nw, err := zeroround.BuildThreshold(cfg)
		return nw, cfg, err
	case "and":
		cfg, err := zeroround.SolveAND(n, k, eps, 1.0/3)
		if err != nil {
			return nil, nil, err
		}
		nw, err := zeroround.BuildAND(cfg)
		return nw, cfg, err
	default:
		return nil, nil, fmt.Errorf("unknown rule %q", rule)
	}
}
