package workload

import (
	"bytes"
	"runtime"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/isa"
	"mtvec/internal/kernel"
	"mtvec/internal/prog"
	"mtvec/internal/trace"
	"mtvec/internal/vcomp"
)

// sourceOf is a source-driven stream over tr's own slices: the oracle
// in-place replay is checked against.
func sourceOf(tr *trace.Trace) *prog.Stream {
	bbs := make([]int, len(tr.BBs))
	for i, b := range tr.BBs {
		bbs[i] = int(b)
	}
	return prog.NewStreamVL(tr.Prog, &prog.SliceSource{BBs: bbs, VLs: tr.VLs, Strides: tr.Strides, Addrs: tr.Addrs}, tr.MaxVL)
}

// checkReplay requires tr's in-place replay (Stream), read through Next
// and through NextExec, to equal source-driven expansion over the same
// slices field for field, with the same Count, and to end with a non-nil
// Err exactly when wantErr — the same error on both sides.
func checkReplay(t *testing.T, tr *trace.Trace, wantErr bool) {
	t.Helper()
	sameEnd := func(how string, want, got *prog.Stream) {
		t.Helper()
		if want.Count() != got.Count() {
			t.Fatalf("%s: in-place Count %d, source-driven %d", how, got.Count(), want.Count())
		}
		we, ge := want.Err(), got.Err()
		if (we != nil) != wantErr || (ge != nil) != wantErr || (we != nil && we.Error() != ge.Error()) {
			t.Fatalf("%s: errors: source-driven %v, in place %v (want error: %v)", how, we, ge, wantErr)
		}
	}

	want, got := sourceOf(tr), tr.Stream()
	var dw, dg isa.DynInst
	for i := 0; ; i++ {
		okW, okG := want.Next(&dw), got.Next(&dg)
		if okW != okG {
			t.Fatalf("Next: inst %d: source-driven ok=%v, in-place ok=%v", i, okW, okG)
		}
		if !okW {
			break
		}
		if dw != dg {
			t.Fatalf("Next: inst %d: in place %+v, source-driven %+v", i, dg, dw)
		}
	}
	sameEnd("Next", want, got)

	want, got = sourceOf(tr), tr.Stream()
	for i := 0; ; i++ {
		sw, vlw, stw := want.NextExec()
		sg, vlg, stg := got.NextExec()
		if (sw == nil) != (sg == nil) {
			t.Fatalf("NextExec: inst %d: source-driven ended=%v, in-place ended=%v", i, sw == nil, sg == nil)
		}
		if sw == nil {
			break
		}
		if *sw != *sg || vlw != vlg || stw != stg {
			t.Fatalf("NextExec: inst %d: in place %+v vl %d stride %d, source-driven %+v vl %d stride %d", i, *sg, vlg, stg, *sw, vlw, stw)
		}
	}
	sameEnd("NextExec", want, got)
}

// malformed returns copies of tr, sharing its program, broken the ways a
// corrupt trace can be: a block id past the program and each value
// stream cut short.
func malformed(tr *trace.Trace) map[string]*trace.Trace {
	cp := func() *trace.Trace {
		c := *tr
		return &c
	}
	badBB, shortVL, shortStride, shortAddr := cp(), cp(), cp(), cp()
	badBB.BBs = append([]int32(nil), tr.BBs...)
	badBB.BBs[len(badBB.BBs)/2] = int32(len(tr.Prog.Blocks))
	shortVL.VLs = tr.VLs[:len(tr.VLs)/2]
	shortStride.Strides = tr.Strides[:len(tr.Strides)/2]
	shortAddr.Addrs = tr.Addrs[:len(tr.Addrs)/2]
	return map[string]*trace.Trace{"bad-block": badBB, "short-vl": shortVL, "short-stride": shortStride, "short-addr": shortAddr}
}

// TestPredecodedReplayMatchesSource: replay over the program's
// predecoded static table, reading the trace in place, equals
// source-driven expansion for every paper and bench-suite build, a build
// for a non-default register file (so the trace's MaxVL is not
// isa.MaxVL), a compiled-kernel trace and an RVV-imported trace; and a
// malformed trace stops both at the same instruction with the same
// error.
func TestPredecodedReplayMatchesSource(t *testing.T) {
	for _, s := range append(Specs(), BenchSpecs()...) {
		t.Run(s.Short, func(t *testing.T) {
			w, err := s.Build(testScale)
			if err != nil {
				t.Fatal(err)
			}
			checkReplay(t, w.Trace, false)
		})
	}
	t.Run("regfile", func(t *testing.T) {
		rf := arch.RegFile{VRegs: 16, VLen: 64, VRegsPerBank: 2, BankReadPorts: 1, BankWritePorts: 1}
		w, err := ByShort("sw").BuildOpts(testScale, vcomp.Options{RegFile: rf})
		if err != nil {
			t.Fatal(err)
		}
		if w.Trace.MaxVL != 64 {
			t.Fatalf("trace MaxVL = %d, want the register file's 64", w.Trace.MaxVL)
		}
		checkReplay(t, w.Trace, false)
	})
	t.Run("compiled", func(t *testing.T) {
		x := &kernel.Array{Name: "x", Base: 0x10000, Stride: 8}
		idx := &kernel.Array{Name: "idx", Base: 0x30000, Stride: 8}
		y := &kernel.Array{Name: "y", Base: 0x20000, Stride: 8}
		k := &kernel.Kernel{Name: "replay", Units: []kernel.Unit{
			&kernel.VectorLoop{Name: "gaxpy", Body: []kernel.Stmt{{
				Dst: y,
				E: &kernel.Bin{Op: kernel.Add,
					L: &kernel.Bin{Op: kernel.Mul, L: &kernel.ScalarArg{Name: "a"}, R: &kernel.Gather{Data: x, Index: idx}},
					R: &kernel.Ref{Arr: y}},
			}}},
			&kernel.ScalarLoop{Name: "setup", Loads: 2, Stores: 1, IntOps: 3, FPOps: 1},
		}}
		c, err := vcomp.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trace([]vcomp.Invocation{{Unit: 1, N: 50}, {Unit: 0, N: 1000}, {Unit: 1, N: 50}, {Unit: 0, N: 77}})
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, tr, false)
	})
	t.Run("rvv", func(t *testing.T) {
		w, err := ByShort("tf").Build(testScale)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := trace.ExportRVV(&text, w.Trace); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ImportRVV(&text)
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, tr, false)
	})
	tf, err := ByShort("tf").Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range malformed(tf.Trace) {
		t.Run("malformed/"+name, func(t *testing.T) { checkReplay(t, tr, true) })
	}
}

// TestReplayAllocatesOnlyTheStream guards against per-instruction state
// outliving a replay: draining Stream of a fresh Trace over tf's program
// and streams, replay after replay, allocates a small constant — the
// stream itself — however long the trace, so a simulator's resident
// memory is its traces and nothing more.
func TestReplayAllocatesOnlyTheStream(t *testing.T) {
	w, err := ByShort("tf").Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace
	const replays, perReplay = 8, 4 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var n int64
	for i := 0; i < replays; i++ {
		tr := &trace.Trace{Prog: src.Prog, BBs: src.BBs, VLs: src.VLs, Strides: src.Strides, Addrs: src.Addrs, MaxVL: src.MaxVL}
		s := tr.Stream()
		var d isa.DynInst
		for s.Next(&d) {
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		n = s.Count()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / replays; got > perReplay {
		t.Fatalf("a replay of %d instructions allocated %d B, want at most %d B whatever its length", n, got, perReplay)
	}
}
