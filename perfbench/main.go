// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three seeded workloads in-process — the golden experiment
// suite, warm sweep serving from a filled store, and cold sweeps through
// a coordinator with two workers — checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics and a
// span summary) as one JSON object on the last line of stdout.
//
//	go run . -workload serve-warm -seed 1 -seconds 10 -trace 0
//
// Run it from the repository root through run.sh, which builds it with
// a build cache inside the checkout. README.md documents the workloads,
// the metrics and how to read the span summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	jobs     int    // simulation gate width in total: nproc
	clients  int    // closed-loop clients: nproc
	root     string // repository checkout (the working directory)
	work     string // scratch directory for stores, removed when the run ends
}

// phase is what one timed phase measured.
type phase struct {
	wall      time.Duration
	points    int64           // points answered
	lat       []time.Duration // per-request latency as the client saw it
	simInsts  int64           // simulated instructions (see README per workload)
	attempted int64
	failed    int64
	alloc     uint64 // bytes allocated in the timed phase
	peak      uint64 // peak live heap in the timed phase
	mix       mix
	gateBusy  time.Duration // summed Session.Busy of the serving sessions
	gateWidth int           // summed gate width of those sessions
	problems  []string      // first few check failures, for the log
	notes     []string      // other log lines
	fixedWork bool          // the phase ran a fixed amount of work (one suite), not a fixed time
}

// mix is how a phase's points split between the cache tiers, plus the
// coordinator's bookkeeping.
type mix struct {
	Sim, Memo, Store, Peer       int64
	Coalesced, Retries, Hedges   int64
	PlannedFresh, PlannedRevisit int64
}

func (p *phase) fail(n int64, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload, ready for a timed phase.
type instance interface {
	// timed runs the timed phase, traced when the instance was set up
	// with a tracer.
	timed() (*phase, error)
	// probe times the layers' exported functions directly on the
	// workload's inputs, outside the timed phase, adding per-layer
	// metrics to m.
	probe(m layerValues) error
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name   string
	setups int // set-ups timed per run; setup_s is their median
	setup  func(o *options, tr *tracer) (instance, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "suite-golden", setups: 5, setup: setupSuite},
		{name: "serve-warm", setups: 3, setup: setupWarm},
		{name: "sweep-cold", setups: 5, setup: setupCold},
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "suite-golden | serve-warm | sweep-cold")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span summary")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	o := &options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		jobs:     runtime.NumCPU(),
		clients:  runtime.NumCPU(),
		root:     root,
	}
	var def *workloadDef
	for _, d := range workloads() {
		if d.name == o.workload {
			def = &d
		}
	}
	if def == nil {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	if _, err := os.Stat(filepath.Join(root, "docs", "GOLDEN.txt")); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	o.work = filepath.Join(root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(o, def, os.Stdout)
	if rerr := os.RemoveAll(o.work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up def.setups times (timing each) and runs the
// timed phase untraced; a traced run then goes on in traced.
func run(o *options, def *workloadDef, out io.Writer) (*result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < def.setups; i++ {
		start := time.Now()
		in, err := def.setup(o, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = in
	}
	plain, err := inst.timed()
	inst.close()
	if err != nil {
		return nil, err
	}
	report(out, "untraced", plain)
	res := &result{Attempted: plain.attempted, Failed: plain.failed}
	if o.trace {
		traced, values, err := runTraced(o, def, plain, out)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Metrics = values.metrics()
	} else {
		res.Metrics = endToEnd(plain, median(setups))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	meta := runMeta(o)
	meta["setup_s_samples"] = setups
	line, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "meta %s\n", line)
	return res, nil
}

// runTraced sets up once more with a tracer, runs the timed phase
// traced, probes the layers, prints both span summaries and writes the
// spans out.
func runTraced(o *options, def *workloadDef, plain *phase, out io.Writer) (*phase, layerValues, error) {
	tr := newTracer()
	inst, err := def.setup(o, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	tr.reset() // set-up's spans (builds, store fill) are not in the account
	traced, err := inst.timed()
	if err != nil {
		return nil, nil, err
	}
	report(out, "traced", traced)
	live := tr.snapshot()
	sumLive := summarize(live)
	values := layerValues{}
	liveMetrics(values, plain, traced, live, sumLive)
	tr.reset()
	if err := inst.probe(values); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	probes := tr.snapshot()
	sumLive.print(out, o.workload+" timed phase (traced)")
	summarize(probes).print(out, o.workload+" layer probes (outside the timed phase)")
	values["tracing.unattributed_s"] = sumLive.Unattrib.Seconds()
	values["tracing.spans"] = float64(len(live) + len(probes))
	path := filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, append(live, probes...)); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return traced, values, nil
}

// report logs a phase's figures and check failures.
func report(w io.Writer, label string, p *phase) {
	fmt.Fprintf(w, "%s: wall %.3f s, %d points (%.1f/s), %d/%d failed, latency %s\n", label, p.wall.Seconds(),
		p.points, float64(p.points)/p.wall.Seconds(), p.failed, p.attempted, latencySummary(durationsMS(p.lat)))
	fmt.Fprintf(w, "%s: mix sim %d memo %d store %d peer %d coalesced %d retries %d hedges %d (planned fresh %d revisit %d)\n",
		label, p.mix.Sim, p.mix.Memo, p.mix.Store, p.mix.Peer, p.mix.Coalesced, p.mix.Retries, p.mix.Hedges,
		p.mix.PlannedFresh, p.mix.PlannedRevisit)
	for _, n := range p.notes {
		fmt.Fprintf(w, "%s: %s\n", label, n)
	}
	for _, pr := range p.problems {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", label, pr)
	}
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setup float64) map[string]metric {
	lat := durationsMS(p.lat)
	wall := p.wall.Seconds()
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"wall_s":          {wall, "s"},
		"points_per_s":    {float64(p.points) / wall, "1/s"},
		"sweep_p50_ms":    {quantile(lat, 0.5), "ms"},
		"sweep_p90_ms":    {quantile(lat, 0.9), "ms"},
		"sweep_p99_ms":    {quantile(lat, 0.99), "ms"},
		"sim_minst_per_s": {float64(p.simInsts) / 1e6 / wall, "Minst/s"},
		"alloc_mb":        {allocPerWork(p) / 1e6, "MB"},
		"peak_heap_mb":    {float64(p.peak) / 1e6, "MB"},
	}
}

// allocWork is the unit of work alloc_mb is reported per on the serving
// workloads, whose timed phase runs for a fixed time: bytes allocated
// per fixed time would grow with throughput.
const allocWork = 10_000 // answered points

// allocPerWork returns the bytes the phase allocated per unit of work:
// per allocWork answered points, or as measured for a fixed-work phase.
func allocPerWork(p *phase) float64 {
	if p.fixedWork || p.points == 0 {
		return float64(p.alloc)
	}
	return float64(p.alloc) * allocWork / float64(p.points)
}

// layerValues collects per-layer metric values by name.
type layerValues map[string]float64

// perLayer lists every per-layer metric and its unit; BENCHMARK.json
// names the same set (see main_test.go).
var perLayer = []struct{ name, unit string }{
	{"core.mcycles_per_s", "Mcycle/s"},
	{"core.minst_per_s", "Minst/s"},
	{"core.run_ms", "ms"},
	{"core.new_us", "us"},
	{"workload.build_ms", "ms"},
	{"workload.builds", "count"},
	{"trace.predecode_ms", "ms"},
	{"trace.insts", "count"},
	{"vcomp.compile_us", "us"},
	{"vcomp.trace_ms", "ms"},
	{"session.key_us", "us"},
	{"session.memo_hit_us", "us"},
	{"session.runall_ms_per_point", "ms"},
	{"session.gate_busy_s", "s"},
	{"session.gate_util", "ratio"},
	{"session.simulations", "count"},
	{"session.memo_hits", "count"},
	{"session.store_hits", "count"},
	{"session.hit_ratio", "ratio"},
	{"experiments.fig6-8_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.fig12_s", "s"},
	{"experiments.ext-regfile_s", "s"},
	{"report.render_ms", "ms"},
	{"store.get_us", "us"},
	{"store.decode_us", "us"},
	{"store.record_bytes", "bytes"},
	{"store.put_us", "us"},
	{"store.encode_us", "us"},
	{"store.miss_us", "us"},
	{"cluster.resolve_us", "us"},
	{"cluster.http_json_ms", "ms"},
	{"cluster.route_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.coalesced", "count"},
	{"client.self_s", "s"},
	{"cluster.self_s", "s"},
	{"store.self_s", "s"},
	{"experiments.self_s", "s"},
	{"tracing.unattributed_s", "s"},
	{"tracing.overhead_s", "s"},
	{"tracing.spans", "count"},
}

// metrics renders every per-layer metric; a layer the workload does not
// exercise reads 0.
func (v layerValues) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

// liveMetrics derives the per-layer metrics that come from the traced
// timed phase itself: tier counts, gate accounting, each live layer's
// self time, the per-experiment times and the tracing overhead.
func liveMetrics(v layerValues, plain, traced *phase, spans []span, sum *traceSummary) {
	m := traced.mix
	answered := m.Sim + m.Memo + m.Store + m.Peer
	v["session.simulations"] = float64(m.Sim)
	v["session.memo_hits"] = float64(m.Memo)
	v["session.store_hits"] = float64(m.Store + m.Peer)
	if answered > 0 {
		v["session.hit_ratio"] = float64(m.Memo+m.Store+m.Peer) / float64(answered)
	}
	v["session.gate_busy_s"] = traced.gateBusy.Seconds()
	if traced.gateWidth > 0 && traced.wall > 0 {
		v["session.gate_util"] = traced.gateBusy.Seconds() / (traced.wall.Seconds() * float64(traced.gateWidth))
	}
	v["cluster.retries"] = float64(m.Retries)
	v["cluster.hedges"] = float64(m.Hedges)
	v["cluster.coalesced"] = float64(m.Coalesced)
	for _, l := range []string{"client", "cluster", "store", "experiments"} {
		v[l+".self_s"] = sum.ByLayer[l].Seconds()
	}
	// Tracing overhead: the traced phase's wall time minus the untraced
	// one's, scaled to the same number of answered points (serving
	// phases run for a fixed time, the suite for a fixed amount of work).
	if plain.points > 0 && traced.points > 0 {
		perPlain := plain.wall.Seconds() / float64(plain.points)
		perTraced := traced.wall.Seconds() / float64(traced.points)
		v["tracing.overhead_s"] = (perTraced - perPlain) * float64(traced.points)
	}
	group := map[string]string{"fig6": "fig6-8", "fig7": "fig6-8", "fig8": "fig6-8"}
	for i := range spans {
		s := &spans[i]
		if s.layer() != "experiments" || s.Tag == "" {
			continue
		}
		id := s.Tag
		if g, ok := group[id]; ok {
			id = g
		}
		v["experiments."+id+"_s"] += s.dur().Seconds()
	}
	for i := range spans {
		if spans[i].Name == "report.render" {
			v["report.render_ms"] += float64(spans[i].dur()) / float64(time.Millisecond)
		}
	}
}

// runMeta is the metadata printed next to every result.
func runMeta(o *options) map[string]any {
	scale := map[string]float64{"suite-golden": goldenScale, "serve-warm": warmScale, "sweep-cold": coldScale}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"scale":      scale[o.workload],
		"jobs":       o.jobs,
		"clients":    o.clients,
	}
}

// commit identifies the code under test: run.sh passes git's HEAD in
// PERFBENCH_COMMIT when the checkout is a git work tree; a plain
// checkout reads "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
