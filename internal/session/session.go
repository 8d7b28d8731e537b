// Package session is the unified run engine behind the public API: one
// composable entry point for every simulation methodology the paper
// uses (solo reference runs, Section 4.1 grouped runs, Section 7 job
// queues, user-compiled kernels).
//
// A Session owns a concurrency-safe, singleflight-memoized run cache —
// the generalization of the experiment Env's per-table memo maps to any
// run request — plus the worker gate that bounds how many simulations
// execute at once across every layer of a nested orchestration. A
// RunSpec declares a simulation point (mode, workloads, machine
// options); Session.Run simulates it under a context.Context, and
// Session.RunAll fans a sweep out point by point over the gate with
// deterministic collection order.
//
// # Concurrency and determinism
//
// All Session methods are safe for concurrent use. Each distinct
// memoizable spec simulates exactly once per session no matter how many
// goroutines request it, and concurrent requesters share the same
// *stats.Report. Because every simulation is a pure function of its
// spec, results are byte-identical at any jobs value, including 1.
//
// # Cancellation
//
// Run honors ctx cancellation and deadlines: a cancelled run returns
// ctx.Err() and never a partial Report. A memoized run joined by
// several callers executes under the first caller's context; if that
// run is cancelled the session forgets the cache entry, and waiters
// whose own context is still live retry it, so one caller's deadline
// never poisons the cache for the others.
//
// # Persistence
//
// SetStore (or WithStore) attaches a persistent result store as a
// second cache tier below the in-memory memo. Every run takes one path
// through the tiers: memo, then the store, then simulation. A memo
// miss whose spec has a stable content identity (catalog workloads,
// named policies — see RunSpec.persistKey) goes through the store's
// Do: a stored record answers, or the run claims the point's
// cross-process lock, simulates and writes through. The store obeys
// the same cancellation rule — a cancelled run is never persisted —
// so any number of processes sharing one store directory simulate each
// distinct point once between them. Observer-carrying specs skip the
// memo lookup but take the same store path, claim included: a
// persisted result returns immediately and the observers see no
// events, because no simulation runs (RunTracked reports which tier
// answered).
package session

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mtvec/internal/core"
	"mtvec/internal/prog"
	"mtvec/internal/runner"
	"mtvec/internal/stats"
	"mtvec/internal/store"
	"mtvec/internal/trace"
)

// Session executes RunSpecs: it memoizes results, bounds concurrency,
// and plumbs cancellation into the simulator. The zero value is not
// usable; construct with New.
type Session struct {
	jobs atomic.Int64 // concurrency bound, mirrored into gate
	sims atomic.Int64 // machine runs actually executed

	// st boxes the optional persistent second cache tier (nil box or nil
	// backend = none); storeHits counts runs this session served from it,
	// peerHits the subset served by a remote peer tier. The pointer-to-box
	// indirection exists because atomic.Value cannot swap between distinct
	// concrete Backend types.
	st        atomic.Pointer[backendBox]
	storeHits atomic.Int64
	peerHits  atomic.Int64

	// pace, when positive, is the minimum wall duration of one gated
	// simulation slot (see SetPace) in nanoseconds.
	pace atomic.Int64

	// gate admits at most Jobs() concurrent leaf sections (machine runs
	// and, via Do, workload builds). Orchestration layers above may
	// spawn freely; parked goroutines hold no slot, so the bound holds
	// across nested fan-outs.
	gate *runner.Gate
	runs runner.Cache[string, *stats.Report]

	// traces caches compiled-kernel traces by kernel identity and
	// schedule (see compiledTrace).
	traces runner.Cache[string, *trace.Trace]

	// idTab assigns session-stable identities to run artifacts
	// (workloads, compiled kernels, policy instances) for memo keys.
	// Retaining the reference here is deliberate: the artifact's
	// address can never be recycled by the GC into a colliding key
	// while a cached result still depends on it.
	idMu  sync.Mutex
	idTab map[any]uint64
}

// idOf returns the session-stable identity of a run artifact.
func (s *Session) idOf(x any) uint64 {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	if s.idTab == nil {
		s.idTab = make(map[any]uint64)
	}
	id, ok := s.idTab[x]
	if !ok {
		id = uint64(len(s.idTab)) + 1
		s.idTab[x] = id
	}
	return id
}

// SessionOption configures a new Session.
type SessionOption func(*Session)

// WithJobs bounds how many simulations may execute concurrently;
// n <= 0 selects runtime.NumCPU(). Results never depend on the setting.
func WithJobs(n int) SessionOption {
	return func(s *Session) { s.SetJobs(n) }
}

// backendBox wraps a store.Backend for atomic swapping.
type backendBox struct{ b store.Backend }

// WithStore attaches a persistent result backend to a new session (see
// Session.SetStore).
func WithStore(st store.Backend) SessionOption {
	return func(s *Session) { s.SetStore(st) }
}

// New creates a session. The simulation concurrency bound defaults to
// runtime.NumCPU().
func New(opts ...SessionOption) *Session {
	s := &Session{gate: runner.NewGate(0)}
	s.traces.Cap = traceCacheCap
	s.SetJobs(0)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// SetJobs changes the simulation concurrency bound; n <= 0 selects
// runtime.NumCPU().
func (s *Session) SetJobs(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.jobs.Store(int64(n))
	s.gate.SetLimit(n)
}

// Jobs returns the session's simulation concurrency bound.
func (s *Session) Jobs() int { return int(s.jobs.Load()) }

// Simulations returns how many machine runs this session has executed —
// cache misses, not requests; the quantity memoization exists to bound.
func (s *Session) Simulations() int64 { return s.sims.Load() }

// SetStore attaches (or, with nil, detaches) a persistent result
// backend: stable specs are served from it when a prior process
// simulated them and written through when this one does. Any
// store.Backend works — an on-disk store.Dir, a remote store.HTTPPeer,
// or a store.Tiered composite. Safe to call concurrently with runs;
// in-flight runs keep the backend they started with.
func (s *Session) SetStore(st store.Backend) {
	if st == nil {
		s.st.Store(nil)
		return
	}
	s.st.Store(&backendBox{b: st})
}

// Store returns the attached persistent backend, or nil.
func (s *Session) Store() store.Backend { return s.backend() }

// backend unwraps the attached backend (nil when detached).
func (s *Session) backend() store.Backend {
	if box := s.st.Load(); box != nil {
		return box.b
	}
	return nil
}

// StoreHits returns how many runs this session served from the
// persistent store — work some earlier process (or session) paid for.
func (s *Session) StoreHits() int64 { return s.storeHits.Load() }

// PeerHits returns the subset of StoreHits served by a remote peer tier
// rather than local disk.
func (s *Session) PeerHits() int64 { return s.peerHits.Load() }

// Active returns how many gated leaf sections (simulations, Do work)
// are executing right now — instantaneous gate occupancy in [0, Jobs()].
func (s *Session) Active() int { return s.gate.Active() }

// SetPace sets a minimum wall duration per simulation inside a gated
// slot: a slot that finishes sooner sleeps out the remainder while
// still holding the slot. Zero (the default) disables. Results are
// unaffected — only timing changes. The knob exists for capacity
// emulation in load tests (see docs/CLUSTER.md): on a machine with
// fewer cores than the deployment being modelled, pacing makes a node's
// simulation capacity the bottleneck, so horizontal scaling behaves as
// it would at size.
func (s *Session) SetPace(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.pace.Store(int64(d))
}

// Pace returns the gated-slot minimum wall duration (0 = disabled).
func (s *Session) Pace() time.Duration { return time.Duration(s.pace.Load()) }

// paceSlot sleeps out the remainder of the pace window for a gated slot
// that started at start. Called while still inside the gate; a
// cancelled ctx cuts the sleep short.
func (s *Session) paceSlot(ctx context.Context, start time.Time) {
	d := time.Duration(s.pace.Load())
	if d <= 0 {
		return
	}
	rem := d - time.Since(start)
	if rem <= 0 {
		return
	}
	t := time.NewTimer(rem)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// PersistKey returns the spec's store persist key — its process-stable
// content identity — and whether it has one. Specs without stable
// identities (ad-hoc workloads, compiled kernels, custom policy
// instances) are not persistable and therefore not shardable by key.
// The cluster coordinator hashes this key to route sweep points.
func (s *Session) PersistKey(spec RunSpec) (string, bool) {
	p, err := spec.prepare()
	if err != nil {
		return "", false
	}
	return spec.persistKey(&p)
}

// Busy returns the cumulative wall time spent inside gated sections
// (simulations and Do work) — the serial-equivalent cost of the
// session's work.
func (s *Session) Busy() time.Duration { return s.gate.Busy() }

// Do runs fn under the session's worker gate, so non-simulation leaf
// work (workload builds, trace generation) counts against the same
// global concurrency bound as the simulations themselves.
func (s *Session) Do(fn func()) { s.gate.Do(fn) }

// Source names the cache tier that answered a run.
type Source int

const (
	// SourceSim: the session executed the simulation.
	SourceSim Source = iota
	// SourceMemo: served from the in-memory memo cache (including
	// joining an in-flight computation).
	SourceMemo
	// SourceStore: served from the persistent store's local disk tier.
	SourceStore
	// SourcePeer: served from a remote peer tier of the persistent store
	// (a store.HTTPPeer, usually inside a store.Tiered).
	SourcePeer
)

// String names the source ("sim", "memo", "store", "peer").
func (s Source) String() string {
	switch s {
	case SourceSim:
		return "sim"
	case SourceMemo:
		return "memo"
	case SourceStore:
		return "store"
	case SourcePeer:
		return "peer"
	}
	return "unknown"
}

// storeSource maps a backend hit tier to the run source it reports, and
// bumps the session's hit counters.
func (s *Session) storeSource(tier store.Tier) Source {
	s.storeHits.Add(1)
	if tier == store.TierPeer {
		s.peerHits.Add(1)
		return SourcePeer
	}
	return SourceStore
}

// Run simulates the spec and returns its Report. Identical memoizable
// specs simulate once and share the result; specs carrying observers
// always simulate unless a persistent store already holds the result.
// A nil ctx means context.Background().
func (s *Session) Run(ctx context.Context, spec RunSpec) (*stats.Report, error) {
	rep, _, err := s.RunTracked(ctx, spec)
	return rep, err
}

// RunTracked is Run plus cache metadata: which tier produced the Report
// — a fresh simulation, the in-memory memo, or the persistent store.
// Waiters that join another caller's in-flight simulation report
// SourceMemo (they did not run it).
func (s *Session) RunTracked(ctx context.Context, spec RunSpec) (*stats.Report, Source, error) {
	p, err := spec.prepare()
	if err != nil {
		return nil, SourceSim, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return s.resolve(ctx, spec, p)
}

// resolve answers a prepared spec through the cache tiers. RunTracked
// and every RunAllTracked point share it:
//
//  1. Memo: join the singleflight on the memo key. Observer runs skip
//     the lookup, because a hit would skip their events.
//  2. Fill: on a miss, fill asks the store (claim, simulate,
//     write-through) or simulates directly.
//  3. Publish: the singleflight installs the result; an observer run
//     adds it, so later plain requests hit.
func (s *Session) resolve(ctx context.Context, spec RunSpec, p plan) (*stats.Report, Source, error) {
	key := spec.memoKey(&p, s.idOf)
	if !p.memoizable {
		rep, src, err := s.fill(ctx, spec, p)
		if err == nil {
			// Reports are observation-invariant (the memo key ignores
			// observers), so this is exactly what a plain Run of the
			// spec would memoize.
			s.runs.Add(key, rep)
		}
		return rep, src, err
	}
	src := SourceMemo // overwritten iff this caller fills
	rep, err := s.runs.DoContext(ctx, key, func() (rep *stats.Report, err error) {
		rep, src, err = s.fill(ctx, spec, p)
		return rep, err
	})
	return rep, src, err
}

// fill computes a memo miss. A persistable spec goes through the
// store's Do, which serves a stored record or claims the point's
// cross-process lock, simulates and writes through; a hit there skips
// the simulation, so observers see no events. Other specs simulate.
func (s *Session) fill(ctx context.Context, spec RunSpec, p plan) (*stats.Report, Source, error) {
	if st := s.backend(); st != nil {
		if key, ok := spec.persistKey(&p); ok {
			rep, tier, err := st.Do(ctx, key, func() (*stats.Report, error) {
				return s.simulate(ctx, spec, p)
			})
			if tier.Hit() {
				return rep, s.storeSource(tier), err
			}
			return rep, SourceSim, err
		}
	}
	rep, err := s.simulate(ctx, spec, p)
	return rep, SourceSim, err
}

// Cached returns the spec's Report if some cache tier already holds it
// — the in-memory memo (completed entries only; it never blocks on an
// in-flight run) or the persistent store — without ever simulating.
// Because Cached never runs anything, it answers for observer-carrying
// specs too (the memo key ignores observers; no events fire either
// way). Invalid specs report a miss.
func (s *Session) Cached(spec RunSpec) (*stats.Report, Source, bool) {
	p, err := spec.prepare()
	if err != nil {
		return nil, SourceSim, false
	}
	key := spec.memoKey(&p, s.idOf)
	if rep, ok := s.runs.Peek(key); ok {
		return rep, SourceMemo, true
	}
	if st := s.backend(); st != nil {
		if pkey, ok := spec.persistKey(&p); ok {
			if rep, tier := st.Get(pkey); tier.Hit() {
				// Promote to the memo tier: the next lookup answers
				// from memory.
				s.runs.Add(key, rep)
				return rep, s.storeSource(tier), true
			}
		}
	}
	return nil, SourceSim, false
}

// RunAll simulates the specs concurrently under the session's jobs
// bound and returns the Reports pinned to input order — slot i is
// specs[i]'s Report (or nil on its error) no matter in which order the
// points complete or get cancelled. Every spec runs even if an earlier
// one fails; errors are joined in input order, so both results and
// error text are independent of scheduling.
func (s *Session) RunAll(ctx context.Context, specs ...RunSpec) ([]*stats.Report, error) {
	results := s.RunAllTracked(ctx, specs...)
	reps := make([]*stats.Report, len(results))
	errs := make([]error, len(results))
	for i := range results {
		reps[i], errs[i] = results[i].Report, results[i].Err
	}
	return reps, errors.Join(errs...)
}

// Result is one RunAllTracked point: the Report (nil on error), which
// cache tier answered, the wall time the point took inside RunAll, and
// the point's error, if any.
type Result struct {
	Report  *stats.Report
	Source  Source
	Elapsed time.Duration
	Err     error
}

// RunAllTracked is RunAll plus per-point metadata: for each spec, the
// Report, the cache tier that answered, the point's wall time inside
// the call, and its error. Results are pinned to input order no matter
// how the points are scheduled or cancelled. Each point is prepared
// once and resolved exactly as Session.RunTracked resolves it.
func (s *Session) RunAllTracked(ctx context.Context, specs ...RunSpec) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(specs))
	// The pool only orchestrates: simulations admit through the
	// session's gate, which bounds them across concurrent sweeps too.
	_ = runner.New(s.Jobs()).Map(len(specs), func(i int) error {
		start := time.Now()
		r := &results[i]
		if p, err := specs[i].prepare(); err != nil {
			r.Err = err
		} else {
			r.Report, r.Source, r.Err = s.resolve(ctx, specs[i], p)
		}
		r.Elapsed = time.Since(start)
		return nil
	})
	return results
}

// simulate executes one machine run under the gate.
func (s *Session) simulate(ctx context.Context, spec RunSpec, p plan) (rep *stats.Report, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.gate.Do(func() {
		// Re-check after possibly parking on the gate.
		if err = ctx.Err(); err != nil {
			return
		}
		start := time.Now()
		defer s.paceSlot(ctx, start)
		cfg := p.cfg
		var spans *core.SpanRecorder
		if p.spans {
			spans = &core.SpanRecorder{}
			cfg.Observers = append(slices.Clip(cfg.Observers), spans)
		}
		var m *core.Machine
		if m, err = core.New(cfg); err != nil {
			return
		}
		if err = s.attachThreads(ctx, m, spec, cfg); err != nil {
			return
		}
		s.sims.Add(1)
		if rep, err = m.RunContext(ctx, p.stop); err == nil && spans != nil {
			rep.Spans = spans.Spans
		}
	})
	return rep, err
}

// attachThreads feeds the machine's contexts according to the spec's
// mode: the solo, grouped, job-queue and compiled-kernel methodologies.
func (s *Session) attachThreads(ctx context.Context, m *core.Machine, spec RunSpec, cfg core.Config) error {
	switch spec.mode {
	case ModeSolo:
		w := spec.workloads[0]
		return m.SetThreadStream(0, w.Spec.Short, w.Stream())
	case ModeGroup:
		primary := spec.workloads[0]
		if err := m.SetThreadStream(0, primary.Spec.Short, primary.Stream()); err != nil {
			return err
		}
		for i, comp := range spec.workloads[1:] {
			comp := comp
			err := m.SetThread(i+1, core.Repeat(comp.Spec.Short, func() *prog.Stream { return comp.Stream() }))
			if err != nil {
				return err
			}
		}
		return nil
	case ModeQueue:
		q := core.NewJobQueue()
		for _, w := range spec.workloads {
			w := w
			q.Add(w.Spec.Short, func() *prog.Stream { return w.Stream() })
		}
		src := q.Source()
		for i := 0; i < cfg.Contexts; i++ {
			if err := m.SetThread(i, src); err != nil {
				return err
			}
		}
		return nil
	case ModeCompiled:
		tr, err := s.compiledTrace(ctx, spec)
		if err != nil {
			return err
		}
		return m.SetThreadStream(0, spec.compiled.Prog.Name, tr.Stream())
	}
	return errors.New("session: spec has no mode")
}

// traceCacheCap bounds the session's compiled-trace cache. A sweep over
// machine options reuses one trace; the cap keeps a session that runs
// many distinct schedules from pinning every synthesized trace.
const traceCacheCap = 8

// compiledTrace returns the compiled spec's trace, synthesized once per
// session for each kernel and schedule, so the points of a sweep share
// one instruction supply. A synthesis requested under a cancelled ctx
// fails with ctx.Err() and is not cached.
func (s *Session) compiledTrace(ctx context.Context, spec RunSpec) (*trace.Trace, error) {
	key := string(appendSupply(nil, &spec, s.idOf))
	return s.traces.DoContext(ctx, key, func() (*trace.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr, err := spec.compiled.Trace(spec.schedule)
		if err != nil {
			return nil, err
		}
		return tr, nil
	})
}

// IsContextErr reports whether err came from a cancelled or expired
// context — the one error class the engine never memoizes, because it
// would not fail identically on retry.
func IsContextErr(err error) bool { return runner.IsContextErr(err) }
