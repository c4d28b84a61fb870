// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — svc-frames, tree-batched or repro-quick — for a fixed time,
// checks every output against a reference, and prints the end-to-end
// metrics, or with -trace 1 the per-layer ledger. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// It exits non-zero when any output fails its check. README.md describes
// the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every workload prints with -trace 0. Each has
// one meaning per workload kind; README.md gives both.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the metrics every workload prints with -trace 1; a layer a
// workload does not exercise reads 0.
var perLayer = append([]metricDef{
	{"wire.encode_ns_per_vote", "ns/vote", "lower"},
	{"wire.bytes_per_vote", "B/vote", "lower"},
	{"wire.frames_per_vote", "frames/vote", "lower"},
	{"wire.read_ns_per_frame", "ns/frame", "lower"},
	{"wire.decode_ns_per_vote", "ns/vote", "lower"},
	{"cluster.apply_ns_per_vote", "ns/vote", "lower"},
	{"cluster.partial_apply_ns_per_entry", "ns/entry", "lower"},
	{"cluster.finalize_us_per_session", "us/session", "lower"},
	{"cluster.agg_session_ms", "ms", "lower"},
	{"service.open_ms", "ms", "lower"},
	{"service.drain_ms", "ms", "lower"},
	{"service.journal_bytes_per_session", "B/session", "lower"},
	{"transport.dial_us", "us", "lower"},
	{"transport.write_ns_per_vote", "ns/vote", "lower"},
	{"transport.read_syscalls_per_vote", "syscalls/vote", "lower"},
	{"transport.write_syscalls_per_vote", "syscalls/vote", "lower"},
	{"transport.conns_per_session", "conns/session", "lower"},
	{"proc.cpu_util", "cores", "higher"},
	{"proc.runqueue_wait_share", "share", "lower"},
	{"proc.steal_share", "share", "lower"},
	{"proc.alloc_bytes_per_vote", "B/vote", "lower"},
	{"proc.allocs_per_vote", "allocs/vote", "lower"},
	{"proc.gc_per_s", "1/s", "lower"},
	{"zeroround.vote_ns", "ns", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"ledger.cpu_covered_share", "share", "higher"},
}, tableMetrics()...)

// tableMetrics are the per-table experiment metrics.
func tableMetrics() []metricDef {
	var defs []metricDef
	for _, id := range reproTables {
		defs = append(defs,
			metricDef{"experiment." + id + "_ms", "ms", "lower"},
			metricDef{"experiment." + id + "_alloc_mb", "MB", "lower"})
	}
	return defs
}

// setupReps is how many times a run performs its set-up; setup_s is the
// median, and the last set-up's state is what the timed phase uses.
const setupReps = 5

// options are one run's flags.
type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	dir      string // journals and span files
	tables   []string
}

// result is what a run measured: attempted and failed units, the metric
// values by name, and notes for the human-readable report.
type result struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	notes             []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "svc-frames, tree-batched or repro-quick")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 prints the per-layer ledger of a traced run")
	dir := fs.String("out", "", "directory for session journals and span files (default: a fresh temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o := options{workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *traced == 1, dir: *dir, tables: reproTables}
	if o.dir == "" {
		tmp, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		o.dir = tmp
	} else if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d failed; first: %v\n", o.workload, res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

func runWorkload(o options) (*result, error) {
	if w, ok := svcWorkloads[o.workload]; ok {
		return runSvc(w, o)
	}
	if o.workload == "repro-quick" {
		return runRepro(o)
	}
	return nil, fmt.Errorf("unknown workload (want svc-frames, tree-batched or repro-quick)")
}

// report prints the notes and every metric of the run's set by name and
// unit, then the result line.
func report(w io.Writer, o options, res *result) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", o.workload, o.seed, o.dur.Seconds(), o.trace)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runSvc runs a service workload: set-up, then the timed phase.
func runSvc(w svcWorkload, o options) (*result, error) {
	var b *svcBench
	setups := make([]float64, setupReps)
	for r := range setups {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if b, err = setupSvc(w, o.seed, o.dir); err != nil {
			return nil, err
		}
		setups[r] = time.Since(start).Seconds()
	}
	res := newResult()
	res.set("setup_s", median(setups))
	res.set("zeroround.vote_ns", ratio(float64(b.voteTime), float64(w.pool*w.k*w.trials)))
	if o.trace {
		err := svcLedger(b, o, res)
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if b.jfiles > 0 {
			res.set("service.journal_bytes_per_session", float64(b.jbytes)/float64(b.jfiles))
		}
		return res, nil
	}
	s0, err := sampleProc()
	if err != nil {
		b.close()
		return nil, err
	}
	ph := b.runPhase(nil, time.Now().Add(o.dur), 0)
	s1, err := sampleProc()
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var pd procDelta
	pd.add(s0, s1)
	res.attempted, res.failed, res.firstErr = ph.sessions(), ph.failed, ph.firstErr
	vps := ratio(float64(ph.votes), ph.wall.Seconds())
	p50, p90 := ph.latencyMS(0.5), ph.latencyMS(0.9)
	res.set("throughput_per_s", vps)
	res.set("latency_p50_ms", p50)
	res.set("latency_p90_ms", p90)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rss)
	res.note("votes_per_s %.6g  session_p50_ms %.6g  session_p90_ms %.6g  sessions %d  failed_share %.6g",
		vps, p50, p90, ph.sessions(), ratio(float64(ph.failed), float64(ph.sessions())))
	res.note("cpu_util %.4g cores  steal_share %.4g", pd.cpuUtil(), pd.stealShare())
	return res, nil
}

// svcLedger is the traced run of a service workload. The timed phase
// alternates untraced and traced blocks: /proc and runtime counters come
// from the untraced blocks, spans from the traced ones, and the throughput
// ratio of the two is the tracing overhead. A single-goroutine replay of
// one session then times the ingest layers.
func svcLedger(b *svcBench, o options, res *result) error {
	spans := newSpanLog(o.seed)
	var (
		plain, traced phase
		pd            procDelta
		plainDials    int64
	)
	const blocks = 4
	for blk := 0; blk < blocks; blk++ {
		until := time.Now().Add(o.dur / blocks)
		if blk%2 == 1 {
			ph := b.runPhase(spans.tr, until, 0)
			traced.merge(&ph)
			continue
		}
		dials := b.dials.Load()
		s0, err := sampleProc()
		if err != nil {
			return err
		}
		ph := b.runPhase(nil, until, 0)
		s1, err := sampleProc()
		if err != nil {
			return err
		}
		pd.add(s0, s1)
		plainDials += b.dials.Load() - dials
		plain.merge(&ph)
	}
	res.attempted = plain.sessions() + traced.sessions()
	res.failed = plain.failed + traced.failed
	res.firstErr = plain.firstErr
	if res.firstErr == nil {
		res.firstErr = traced.firstErr
	}
	stats, err := spans.writeAndFold(filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	rs, err := replaySession(b.w, b.inputs[0])
	if err != nil {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		return nil
	}

	votes := float64(plain.votes)
	plainVPS := ratio(votes, plain.wall.Seconds())
	tracedVPS := ratio(float64(traced.votes), traced.wall.Seconds())
	framesPerVote := ratio(float64(rs.frames), float64(rs.votes))
	sessionVotes := float64(b.w.k * b.w.trials)
	res.set("wire.encode_ns_per_vote", stats["frame.encode"].nsPerVote())
	res.set("wire.bytes_per_vote", ratio(float64(rs.bytes), float64(rs.votes)))
	res.set("wire.frames_per_vote", framesPerVote)
	res.set("wire.read_ns_per_frame", rs.readNSPerFrame())
	res.set("wire.decode_ns_per_vote", rs.decodeNSPerVote())
	res.set("cluster.apply_ns_per_vote", rs.applyNSPerVote())
	res.set("cluster.partial_apply_ns_per_entry", rs.partialNSPerEntry())
	res.set("cluster.finalize_us_per_session", rs.finalizeNS/1e3)
	res.set("cluster.agg_session_ms", stats["Aggregator.Serve"].median()/1e6)
	res.set("service.open_ms", stats["service.Open"].median()/1e6)
	res.set("service.drain_ms", stats["Client.Wait"].median()/1e6)
	res.set("transport.dial_us", stats["net.Dial"].median()/1e3)
	res.set("transport.write_ns_per_vote", stats["conn.Write"].nsPerVote())
	res.set("transport.read_syscalls_per_vote", ratio(float64(pd.syscr), votes))
	res.set("transport.write_syscalls_per_vote", ratio(float64(pd.syscw), votes))
	res.set("transport.conns_per_session", ratio(float64(plainDials), float64(plain.sessions())))
	res.set("proc.cpu_util", pd.cpuUtil())
	res.set("proc.runqueue_wait_share", pd.runqueueWaitShare())
	res.set("proc.steal_share", pd.stealShare())
	res.set("proc.alloc_bytes_per_vote", ratio(float64(pd.allocBytes), votes))
	res.set("proc.allocs_per_vote", ratio(float64(pd.allocs), votes))
	res.set("proc.gc_per_s", ratio(float64(pd.gcs), pd.wall.Seconds()))
	res.set("trace.overhead_share", 1-ratio(tracedVPS, plainVPS))

	// The timed layers' CPU per vote against the whole process's.
	covered := res.values["wire.encode_ns_per_vote"] + res.values["transport.write_ns_per_vote"] +
		res.values["wire.read_ns_per_frame"]*framesPerVote + res.values["wire.decode_ns_per_vote"] +
		res.values["cluster.apply_ns_per_vote"] +
		res.values["cluster.partial_apply_ns_per_entry"]*ratio(float64(rs.partialEntries), sessionVotes) +
		rs.finalizeNS/sessionVotes
	cpuPerVote := ratio(float64(pd.cpu), votes)
	res.set("ledger.cpu_covered_share", ratio(covered, cpuPerVote))
	res.note("untraced votes_per_s %.6g over %d sessions; traced %.6g over %d sessions",
		plainVPS, plain.sessions(), tracedVPS, traced.sessions())
	res.note("cpu_ns_per_vote %.6g, of which the timed layers cover %.6g", cpuPerVote, covered)
	return nil
}

// runRepro runs repro-quick: set-up (a VoteAt calibration and the cheap
// warm-up tables), then passes over the tables until the time is up.
func runRepro(o options) (*result, error) {
	res := newResult()
	setups := make([]float64, setupReps)
	var voteNS []float64
	for r := range setups {
		start := time.Now()
		nws, err := buildNetworks(svcWorkloads["svc-frames"].k)
		if err != nil {
			return nil, err
		}
		const pool, trials = 4, 128
		_, voteTime, err := makeInputs(nws, o.seed, pool, trials)
		if err != nil {
			return nil, err
		}
		voteNS = append(voteNS, ratio(float64(voteTime), float64(pool*nws[0].K()*trials)))
		warm := newReproBench(reproWarmup, o.seed)
		warm.pass(nil)
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %v", warm.first)
		}
		setups[r] = time.Since(start).Seconds()
	}
	res.set("setup_s", median(setups))
	res.set("zeroround.vote_ns", median(voteNS))

	b := newReproBench(o.tables, o.seed)
	var spans *spanLog
	if o.trace {
		spans = newSpanLog(o.seed)
	}
	tr := spans.tracer()
	s0, err := sampleProc()
	if err != nil {
		return nil, err
	}
	wall := b.run(tr, o.dur, 2)
	s1, err := sampleProc()
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.firstErr = b.tried, b.failed, b.first
	var pd procDelta
	pd.add(s0, s1)
	res.note("cpu_util %.4g cores  steal_share %.4g", pd.cpuUtil(), pd.stealShare())
	// A unit of repro-quick is one pass over its tables. Per-table
	// quantiles over the passes keep a burst of interference from other
	// tenants of the host to the table it hits: the p50 pass takes every
	// table's median time, the p90 pass every table's p90 time.
	passMS, passP90MS := 0.0, 0.0
	for _, id := range b.tables {
		passMS += median(b.ms[id])
		passP90MS += quantile(b.ms[id], 0.9)
	}
	if !o.trace {
		res.set("throughput_per_s", ratio(float64(len(b.tables)), passMS/1e3))
		res.set("latency_p50_ms", passMS)
		res.set("latency_p90_ms", passP90MS)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.set("rss_peak_mb", rss)
		res.note("tables_s %.6g (sum of per-table medians)  passes %d over %.3g s  tables run %d  failed_share %.6g",
			passMS/1e3, len(b.passes), wall.Seconds(), b.tried, ratio(float64(b.failed), float64(b.tried)))
		return res, nil
	}
	res.set("proc.cpu_util", pd.cpuUtil())
	res.set("proc.runqueue_wait_share", pd.runqueueWaitShare())
	res.set("proc.steal_share", pd.stealShare())
	res.set("proc.gc_per_s", ratio(float64(pd.gcs), pd.wall.Seconds()))
	stats, err := spans.writeAndFold(filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	for _, id := range o.tables {
		res.set("experiment."+id+"_ms", stats["experiment.Execute."+id].median()/1e6)
		res.set("experiment."+id+"_alloc_mb", median(b.alloc[id]))
	}
	res.note("passes %d, tables_s %.6g", len(b.passes), passMS/1e3)
	return res, nil
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(rank, 0)]
}
