// serve and submit: the multi-tenant subcommands. `unifcluster serve`
// runs the long-lived session service — one listener multiplexing many
// concurrent testing sessions over isolated referees — and `unifcluster
// submit` runs one client session against it: open (admission), k node
// clients, wait for the report. Everything the legacy single-run mode
// prints and emits (text summary, -json run document) is available per
// submitted session.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/cluster/service"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/export"
)

// serveReady is called with the bound service address once it is
// listening; tests override it to discover a ":0" port.
var serveReady = func(string) {}

// serveStop, when non-nil, stops a serve command when closed; tests use
// it in place of an interrupt signal.
var serveStop chan struct{}

// runServe runs the session service until an interrupt or SIGTERM.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("unifcluster serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:4600", "listen address for session and node connections")
		maxSess   = fs.Int("max-sessions", service.DefaultMaxSessions, "concurrent-session quota (also bounds /metrics label cardinality)")
		budget    = fs.Int("tenant-budget", 0, "per-tenant in-flight vote budget, as sum of k×trials (0 = unlimited)")
		maxK      = fs.Int("max-k", 0, "largest admissible network size per session (0 = unlimited)")
		maxTrials = fs.Int("max-trials", 0, "largest admissible trial count per session (0 = wire report cap)")
		deadline  = fs.Duration("deadline", cluster.DefaultDeadline, "per-session deadline; stalled sessions are evicted past it")
		jrnlDir   = fs.String("journal-dir", "", "write one per-session JSONL journal into this directory")
		obsAddr   = fs.String("obs-addr", "", "serve live /metrics, /healthz and pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jrnlDir != "" {
		if err := os.MkdirAll(*jrnlDir, 0o755); err != nil {
			return fmt.Errorf("serve: journal dir: %w", err)
		}
	}

	reg := obs.NewRegistry()
	svc := service.New(service.Config{
		MaxSessions:  *maxSess,
		TenantBudget: *budget,
		MaxK:         *maxK,
		MaxTrials:    *maxTrials,
		Deadline:     *deadline,
		Obs:          reg,
		JournalDir:   *jrnlDir,
	})
	if *obsAddr != "" {
		srv := export.New(reg, export.WithRate("svc.sessions_opened"))
		bound, err := srv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "unifcluster serve: obs server listening on http://%s\n", bound)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", *addr, err)
	}
	fmt.Fprintf(os.Stderr, "unifcluster serve: session service listening on %s\n", l.Addr())
	serveReady(l.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() { done <- svc.Serve(l) }()
	select {
	case err := <-done:
		svc.Close()
		return err
	case <-sig:
	case <-serveStop:
	}
	printf(stdout, "serve: shutting down, %g sessions active\n", reg.Gauge("svc.sessions_active").Value())
	return svc.Close()
}

// runSubmit runs one client session against a running service.
func runSubmit(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("unifcluster submit", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:4600", "session service address")
		tenant    = fs.Uint("tenant", 1, "tenant ID for quota accounting")
		ruleName  = fs.String("rule", "threshold", "decision rule: threshold (Thm 1.2) or and (Thm 1.1)")
		k         = fs.Int("k", 60, "number of node clients")
		n         = fs.Int("n", 64, "domain size")
		eps       = fs.Float64("eps", 1.0, "L1 distance parameter")
		distName  = fs.String("dist", "uniform", "uniform, twobump, zipf or halfsupport")
		trials    = fs.Int("trials", 10, "Monte-Carlo trials for this session")
		seed      = fs.Uint64("seed", 1, "base seed of the indexed sample streams")
		faultPlan = faultFlags(fs)
		retries   = fs.Int("retries", 0, "node redial attempts after transport errors")
		backoff   = fs.Duration("backoff", 5*time.Millisecond, "initial retry backoff (doubles per attempt)")
		batch     = fs.Int("batch", 0, "coalesce up to this many votes per VoteBatch frame (0 = one frame per vote)")
		jsonFlag  = fs.Bool("json", false, "emit a machine-readable run document instead of text")
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
	cfg := cluster.Config{
		Trials:   *trials,
		BaseSeed: *seed,
		Retries:  *retries,
		Backoff:  *backoff,
		Batch:    *batch,
	}
	plan := faultPlan()

	out := stdout
	if *jsonFlag {
		out = nil
	}
	dial := func() (net.Conn, error) { return net.Dial("tcp", *addr) }
	printf(out, "submit: rule=%s k=%d n=%d trials=%d service=%s tenant=%d\n",
		nw.Rule().Name(), nw.K(), *n, *trials, *addr, *tenant)
	prov := obs.CollectProvenance("unifcluster submit", "tcp", *seed, args)
	start := time.Now()
	rep, err := service.Submit(dial, cfg, nw, d, plan, uint32(*tenant))
	if err != nil {
		return err
	}
	prov.WallMS = float64(time.Since(start).Microseconds()) / 1e3

	printf(out, "verdict: %d/%d trials accept (missing votes: %d, quorum trials: %d)\n",
		rep.Accepts, rep.Trials, rep.MissingVotes, rep.QuorumTrials)
	if *jsonFlag {
		doc := obs.Document{
			Provenance: prov,
			Results: map[string]any{
				"rule":   nw.Rule().Name(),
				"params": params,
				"report": rep,
				"input":  map[string]any{"dist": d.Name(), "n": *n, "l1_from_uniform": dist.L1FromUniform(d)},
				"faults": plan,
				"tenant": *tenant,
			},
		}
		return doc.WriteJSON(stdout)
	}
	return nil
}
