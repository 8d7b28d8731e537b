package workload

import (
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/isa"
	"mtvec/internal/kernel"
	"mtvec/internal/prog"
	"mtvec/internal/trace"
	"mtvec/internal/vcomp"
)

// checkPredecodedReplay requires tr to be predecoded and its predecoded
// streams, read through Next and through NextDec, to equal a fresh
// source-driven stream field for field, with the same Count and Err.
func checkPredecodedReplay(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if tr.Decoded() == nil {
		t.Fatal("trace was not predecoded")
	}
	source := func() *prog.Stream { return prog.NewStreamVL(tr.Prog, tr.Source(), tr.MaxVL) }
	sameEnd := func(how string, want, got *prog.Stream) {
		t.Helper()
		if want.Count() != got.Count() {
			t.Fatalf("%s: predecoded Count %d, source-driven %d", how, got.Count(), want.Count())
		}
		if want.Err() != nil || got.Err() != nil {
			t.Fatalf("%s: errors: source-driven %v, predecoded %v", how, want.Err(), got.Err())
		}
	}

	want, got := source(), tr.Stream()
	var dw, dg isa.DynInst
	for i := 0; ; i++ {
		okW, okG := want.Next(&dw), got.Next(&dg)
		if okW != okG {
			t.Fatalf("Next: inst %d: source-driven ok=%v, predecoded ok=%v", i, okW, okG)
		}
		if !okW {
			break
		}
		if dw != dg {
			t.Fatalf("Next: inst %d: predecoded %+v, source-driven %+v", i, dg, dw)
		}
	}
	sameEnd("Next", want, got)

	want, got = source(), tr.Stream()
	for i := 0; ; i++ {
		vw, vg := want.NextDec(), got.NextDec()
		if (vw == nil) != (vg == nil) {
			t.Fatalf("NextDec: inst %d: source-driven ended=%v, predecoded ended=%v", i, vw == nil, vg == nil)
		}
		if vw == nil {
			break
		}
		if *vw != *vg {
			t.Fatalf("NextDec: inst %d: predecoded %+v, source-driven %+v", i, *vg, *vw)
		}
	}
	sameEnd("NextDec", want, got)
}

// TestPredecodedReplayMatchesSource: every paper and bench-suite build,
// a build for a non-default register file (so the trace's MaxVL is not
// isa.MaxVL) and a compiled-kernel trace replay identically from their
// predecoded records and from their trace streams.
func TestPredecodedReplayMatchesSource(t *testing.T) {
	for _, s := range append(Specs(), BenchSpecs()...) {
		t.Run(s.Short, func(t *testing.T) {
			w, err := s.Build(testScale)
			if err != nil {
				t.Fatal(err)
			}
			checkPredecodedReplay(t, w.Trace)
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
		checkPredecodedReplay(t, w.Trace)
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
		checkPredecodedReplay(t, tr)
	})
}
