package session

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mtvec/internal/core"
	"mtvec/internal/kernel"
	"mtvec/internal/stats"
	"mtvec/internal/store"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// latencySweep builds a memo-missable sweep sharing one workload with n
// distinct memory latencies.
func latencySweep(t *testing.T, n int) []RunSpec {
	t.Helper()
	w := testWorkload(t)
	specs := make([]RunSpec, n)
	for i := range specs {
		specs[i] = Solo(w, WithMemLatency(10+i))
	}
	return specs
}

// soloRuns runs each spec with Run in a fresh session: the reference a
// RunAll sweep must match point for point.
func soloRuns(t *testing.T, specs []RunSpec) []*stats.Report {
	t.Helper()
	ref := New()
	want := make([]*stats.Report, len(specs))
	for i, spec := range specs {
		rep, err := ref.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("solo point %d: %v", i, err)
		}
		want[i] = rep
	}
	return want
}

// TestRunAllBatchedMatchesSolo: a RunAll sweep, at any jobs bound,
// returns in input order exactly the Reports solo Runs return, and
// simulates each point once.
func TestRunAllBatchedMatchesSolo(t *testing.T) {
	specs := latencySweep(t, 11)
	want := soloRuns(t, specs)
	for _, jobs := range []int{1, 4} {
		s := New(WithJobs(jobs))
		got, err := s.RunAll(context.Background(), specs...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs=%d point %d: RunAll report differs from solo Run", jobs, i)
			}
		}
		if s.Simulations() != int64(len(specs)) {
			t.Errorf("jobs=%d: simulated %d points, want %d", jobs, s.Simulations(), len(specs))
		}
	}
}

// TestRunAllTrackedSources pins the per-point metadata: a cold sweep
// simulates every distinct point once, duplicates share through the
// memo, and a re-run answers entirely from the memo tier.
func TestRunAllTrackedSources(t *testing.T) {
	specs := latencySweep(t, 5)
	specs = append(specs, specs[2]) // duplicate point shares the memo entry

	s := New()
	results := s.RunAllTracked(context.Background(), specs...)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Report == nil {
			t.Fatalf("point %d: nil report", i)
		}
	}
	if !reflect.DeepEqual(results[2].Report, results[5].Report) {
		t.Error("duplicate points disagree")
	}
	if s.Simulations() != 5 {
		t.Errorf("simulated %d, want 5 (duplicate must not re-run)", s.Simulations())
	}
	again := s.RunAllTracked(context.Background(), specs...)
	for i, r := range again {
		if r.Source != SourceMemo {
			t.Errorf("re-run point %d answered from %v, want memo", i, r.Source)
		}
	}
	if s.Simulations() != 5 {
		t.Errorf("re-run simulated more points (%d)", s.Simulations())
	}
}

// TestRunAllMixedValidity: invalid points error in place without
// disturbing their neighbours, and the joined error keeps input order.
func TestRunAllMixedValidity(t *testing.T) {
	w := testWorkload(t)
	specs := []RunSpec{
		Solo(w, WithMemLatency(20)),
		Solo(w, WithMemLatency(-1)), // invalid
		Solo(w, WithMemLatency(21)),
	}
	s := New()
	reps, err := s.RunAll(context.Background(), specs...)
	if err == nil {
		t.Fatal("invalid point did not surface")
	}
	if reps[0] == nil || reps[2] == nil {
		t.Error("valid neighbours of an invalid point did not run")
	}
	if reps[1] != nil {
		t.Error("invalid point produced a report")
	}
}

// cancelObserver cancels a context after the first progress event.
type cancelObserver struct {
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelObserver) Progress(now core.Cycle, dispatched int64) {
	if !c.fired.Swap(true) {
		c.cancel()
	}
}
func (c *cancelObserver) ThreadSwitch(now core.Cycle, from, to int) {}
func (c *cancelObserver) Span(s stats.Span)                         {}

// TestRunAllCancelKeepsInputOrder is the regression test for the
// completion-order bug: when the worker gate is saturated and the
// context is cancelled mid-sweep, RunAll must still return a
// len(specs)-sized, input-indexed result slice where every non-nil
// reps[i] is exactly specs[i]'s solo Report, with the cancellation
// joined into the error. Cancellation is triggered deterministically
// from inside the first spec's own simulation via an observer.
func TestRunAllCancelKeepsInputOrder(t *testing.T) {
	w := testWorkload(t)
	mk := func(i int) RunSpec { return Solo(w, WithMemLatency(30+i)) }

	// Reference reports from an independent session.
	ref := New()
	nPoints := 6
	want := make([]*stats.Report, nPoints)
	for i := range want {
		rep, err := ref.Run(context.Background(), mk(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelObserver{cancel: cancel}
	specs := make([]RunSpec, 0, nPoints+1)
	// The canceller runs first and saturates the 1-slot gate; the rest
	// of the sweep queues behind it.
	specs = append(specs, mk(0).With(WithObserver(obs), WithProgressStride(64)))
	for i := 1; i < nPoints; i++ {
		specs = append(specs, mk(i))
	}

	s := New(WithJobs(1))
	reps, err := s.RunAll(ctx, specs...)
	if len(reps) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(reps), len(specs))
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not joined into the error: %v", err)
	}
	for i, rep := range reps {
		if rep == nil {
			continue // cancelled point: no partial results allowed
		}
		if !reflect.DeepEqual(rep, want[i]) {
			t.Errorf("slot %d holds a different point's report (completion-order leak)", i)
		}
	}
	// The session stays usable and correct after the cancelled sweep.
	reps, err = s.RunAll(context.Background(), specs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if !reflect.DeepEqual(rep, want[i+1]) {
			t.Errorf("post-cancel slot %d wrong", i)
		}
	}
}

// TestRunAllBatchGrouping: a sweep mixing modes (interleaved solo and
// queue points) returns the Reports solo Runs return.
func TestRunAllBatchGrouping(t *testing.T) {
	w := testWorkload(t)
	var specs []RunSpec
	// Two provenances interleaved: solo(w) sweep and queue(w,w) sweep.
	for i := 0; i < 3; i++ {
		specs = append(specs,
			Solo(w, WithMemLatency(40+i)),
			Queue([]*workload.Workload{w, w}, WithContexts(2), WithMemLatency(40+i)),
		)
	}
	want := soloRuns(t, specs)
	s := New()
	got, err := s.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d (%s): RunAll != solo Run", i, specs[i].Mode())
		}
	}
}

// TestBatchStoreWriteThrough: a RunAll sweep writes every fresh point
// through to the persistent store, and a later session's sweep over the
// same points answers entirely from disk — zero simulations.
func TestBatchStoreWriteThrough(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := latencySweep(t, 9)

	s1 := New(WithStore(st))
	want, err := s1.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Simulations() != int64(len(specs)) {
		t.Fatalf("cold sweep simulated %d, want %d", s1.Simulations(), len(specs))
	}

	s2 := New(WithStore(st))
	results := s2.RunAllTracked(context.Background(), specs...)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Source != SourceStore {
			t.Errorf("point %d answered from %v, want store", i, r.Source)
		}
		if !reflect.DeepEqual(r.Report, want[i]) {
			t.Errorf("point %d: stored report differs", i)
		}
	}
	if s2.Simulations() != 0 {
		t.Errorf("warm sweep simulated %d points, want 0", s2.Simulations())
	}
}

// TestBatchObserverBypass: an observer-carrying point inside a RunAll
// sweep simulates with events and reports what the plain point reports.
func TestBatchObserverBypass(t *testing.T) {
	w := testWorkload(t)
	var seen atomic.Int64
	obs := core.ProgressFunc(func(now core.Cycle, dispatched int64) { seen.Add(1) })
	specs := []RunSpec{
		Solo(w, WithMemLatency(60)),
		Solo(w, WithMemLatency(60), WithObserver(obs), WithProgressStride(64)),
		Solo(w, WithMemLatency(61)),
	}
	s := New()
	reps, err := s.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() == 0 {
		t.Error("observer saw no events")
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Error("observer point's report differs from plain point")
	}
	if reps[2] == nil {
		t.Error("point after the observer point did not run")
	}
}

// testCompiled compiles a daxpy loop plus a scalar setup loop.
func testCompiled(t *testing.T) *vcomp.Compiled {
	t.Helper()
	x := &kernel.Array{Name: "x", Base: 0x10000, Stride: 8}
	y := &kernel.Array{Name: "y", Base: 0x20000, Stride: 8}
	k := &kernel.Kernel{Name: "daxpy-setup", Units: []kernel.Unit{
		&kernel.VectorLoop{Name: "daxpy", Body: []kernel.Stmt{{
			Dst: y,
			E: &kernel.Bin{Op: kernel.Add,
				L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a"}, R: &kernel.Ref{Arr: x}},
				R: &kernel.Ref{Arr: y}},
		}}},
		&kernel.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
	}}
	c, err := vcomp.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompiledSweepSynthesizesOnce: an 8-point latency sweep over one
// kernel and schedule synthesizes its trace once, and every point's
// Report equals a solo Run in a fresh session.
func TestCompiledSweepSynthesizesOnce(t *testing.T) {
	c := testCompiled(t)
	sched := []vcomp.Invocation{{Unit: 1, N: 64}, {Unit: 0, N: 2000}, {Unit: 1, N: 64}}
	specs := make([]RunSpec, 8)
	for i := range specs {
		specs[i] = Compiled(c, sched, WithMemLatency(30+10*i))
	}
	s := New(WithJobs(4))
	got, err := s.RunAll(context.Background(), specs...)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.traces.Misses(); n != 1 {
		t.Errorf("sweep synthesized %d traces, want 1", n)
	}
	for i, want := range soloRuns(t, specs) {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("point %d: sweep report differs from solo Run", i)
		}
	}
}

// TestConcurrentSchedulesShareProgram: four goroutines run four
// schedules of one compiled kernel at once, so four traces of the same
// program replay concurrently. The program's PC layout and static
// decode table are built once and race-free (run under -race), and every
// Report equals a solo Run in a fresh session.
func TestConcurrentSchedulesShareProgram(t *testing.T) {
	c := testCompiled(t)
	specs := make([]RunSpec, 4)
	for i := range specs {
		specs[i] = Compiled(c, []vcomp.Invocation{{Unit: 1, N: int64(10 + i)}, {Unit: 0, N: int64(200 * (i + 1))}})
	}
	s := New(WithJobs(len(specs)))
	got := make([]*stats.Report, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Run(context.Background(), specs[i])
		}()
	}
	wg.Wait()
	for i, want := range soloRuns(t, specs) {
		if errs[i] != nil {
			t.Fatalf("schedule %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("schedule %d: concurrent report differs from solo Run", i)
		}
	}
}

// TestTraceCacheEviction: a session running more schedules than the
// trace cache holds evicts the oldest traces, and a point whose trace
// was evicted resynthesizes it with an unchanged Report. The second
// pass carries an observer, so it skips the memo and simulates again.
func TestTraceCacheEviction(t *testing.T) {
	c := testCompiled(t)
	s := New()
	spec := func(i int) RunSpec {
		return Compiled(c, []vcomp.Invocation{{Unit: 0, N: int64(100 + i)}})
	}
	first := make([]*stats.Report, traceCacheCap+2)
	for i := range first {
		rep, err := s.Run(context.Background(), spec(i))
		if err != nil {
			t.Fatal(err)
		}
		first[i] = rep
	}
	if n := s.traces.Len(); n != traceCacheCap {
		t.Errorf("trace cache holds %d traces, want its cap %d", n, traceCacheCap)
	}
	misses := s.traces.Misses()
	for i := range first {
		rep, err := s.Run(context.Background(), spec(i).With(WithObserver(&core.SwitchCounter{})))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, first[i]) {
			t.Errorf("schedule %d: report changed after eviction", i)
		}
	}
	if s.traces.Misses() == misses {
		t.Error("evicted traces were not resynthesized")
	}
}

// TestCancelledSynthesisNotCached: a trace requested under a cancelled
// context fails with the cancellation and leaves nothing cached, so the
// next request synthesizes it.
func TestCancelledSynthesisNotCached(t *testing.T) {
	c := testCompiled(t)
	spec := Compiled(c, []vcomp.Invocation{{Unit: 0, N: 100}})
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.compiledTrace(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled synthesis: err = %v, want context.Canceled", err)
	}
	if n := s.traces.Len(); n != 0 {
		t.Fatalf("cancelled synthesis left %d cached traces", n)
	}
	tr, err := s.compiledTrace(context.Background(), spec)
	if err != nil || tr == nil {
		t.Fatalf("live synthesis after a cancelled one: %v", err)
	}
	if n := s.traces.Len(); n != 1 {
		t.Errorf("live synthesis cached %d traces, want 1", n)
	}
}
