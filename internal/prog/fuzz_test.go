package prog

import (
	"testing"

	"mtvec/internal/isa"
)

// fuzzProgram covers every dynamic-expansion path a Stream has: VL/VS
// installs, vector arithmetic (FU1-eligible and FU2-only), vector and
// scalar memory, gather/scatter (two vector sources), reductions and
// plain scalar/branch work.
func fuzzProgram() *Program {
	return &Program{
		Name: "fuzz-mix",
		Blocks: []BasicBlock{
			{Label: "head", Insts: []isa.Inst{
				{Op: isa.OpSetVS, Src1: isa.A(0)},
				{Op: isa.OpSetVL, Src1: isa.A(1)},
			}},
			{Label: "body", Insts: []isa.Inst{
				{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(2)},
				{Op: isa.OpVMul, Dst: isa.V(1), Src1: isa.V(0), Src2: isa.V(0)},
				{Op: isa.OpVAdd, Dst: isa.V(2), Src1: isa.V(1), Src2: isa.V(0)},
				{Op: isa.OpVStore, Src1: isa.V(2), Src2: isa.A(3)},
				{Op: isa.OpSAddI, Dst: isa.A(2), Src1: isa.A(2), Src2: isa.A(4)},
				{Op: isa.OpBr, Src1: isa.S(0)},
			}},
			{Label: "sparse", Insts: []isa.Inst{
				{Op: isa.OpVGather, Dst: isa.V(3), Src1: isa.A(5), Src2: isa.V(0)},
				{Op: isa.OpVScatter, Src1: isa.V(3), Src2: isa.V(0)},
				{Op: isa.OpVRedAdd, Dst: isa.S(1), Src1: isa.V(3)},
				{Op: isa.OpSLoad, Dst: isa.S(2), Src1: isa.A(7)},
				{Op: isa.OpSStore, Src1: isa.S(2), Src2: isa.A(7)},
			}},
			{Label: "revl", Insts: []isa.Inst{
				{Op: isa.OpSetVL, Src1: isa.A(1)},
				{Op: isa.OpVSqrt, Dst: isa.V(4), Src1: isa.V(2)},
			}},
		},
	}
}

// fuzzSource maps fuzz bytes onto the four trace streams. The mapping is
// deliberately permissive: block indices may fall outside the program
// (including -1) and the VL/stride/address streams may run short of what
// the block trace demands, steering the fuzzer into every Stream error
// path as well as the happy one. Two calls on the same bytes build
// identical sources, which is what lets the harness replay a trace twice.
func fuzzSource(data []byte, blocks int) *SliceSource {
	s := &SliceSource{}
	if len(data) == 0 {
		return s
	}
	nbb := int(data[0] % 64)
	data = data[1:]
	if nbb > len(data) {
		nbb = len(data)
	}
	for _, b := range data[:nbb] {
		s.BBs = append(s.BBs, int(b)%(blocks+2)-1)
	}
	rest := data[nbb:]
	for i := 0; i+1 < len(rest); i += 2 {
		hi, lo := rest[i], rest[i+1]
		switch (i / 2) % 3 {
		case 0:
			s.VLs = append(s.VLs, int64(hi)<<8|int64(lo)-128)
		case 1:
			s.Strides = append(s.Strides, int64(int8(hi))*int64(lo))
		case 2:
			s.Addrs = append(s.Addrs, uint64(hi)<<12|uint64(lo)<<3)
		}
	}
	return s
}

// replayOf is the in-place replay of the slices src holds: the stream
// Trace.Stream builds over the same four traces.
func replayOf(p *Program, src *SliceSource, maxVL int64) *Stream {
	bbs := make([]int32, len(src.BBs))
	for i, b := range src.BBs {
		bbs[i] = int32(b)
	}
	return NewReplayStream(p, bbs, src.VLs, src.Strides, src.Addrs, maxVL)
}

// FuzzDecode fuzzes the trace-expansion pipeline: arbitrary bytes become
// the four trace streams over fuzzProgram, replayed in place
// (NewReplayStream) and expanded source-driven through a SliceSource
// (NewStreamVL). The properties under test:
//
//   - neither mode ever panics, whatever the trace holds — out-of-range
//     block indices, exhausted value streams, degenerate VLs and
//     strides must all surface as Stream errors;
//   - in-place replay delivers, via Next, a DynInst sequence
//     bit-identical to source-driven expansion over the same bytes, with
//     the same Count and the same terminal error, and via NextExec the
//     same static entries and VL/stride registers in both modes;
//   - every instruction's static entry is its PC's, agrees with the
//     DynInst Next delivers for it (VL of a vector op, Stride of a
//     vector memory op) and holds the decode the ISA tables give its
//     opcode.
func FuzzDecode(f *testing.F) {
	// Seeds shaped like the suite's synthesized traces: a VL/VS header
	// then looped bodies, a sparse block, a mid-trace VL change, plus
	// degenerate shapes (empty, truncated values, bad block index).
	f.Add([]byte{3, 1, 2, 2, 0, 100, 0, 16, 0x10, 0x00, 0, 100, 0, 8, 0x14, 0x00}, int64(0))
	f.Add([]byte{6, 1, 2, 3, 4, 2, 2, 0, 128, 1, 8, 0x20, 0x00, 1, 0, 2, 64, 0x30, 0x00, 0x11, 0x22}, int64(128))
	f.Add([]byte{2, 1, 2, 0, 7}, int64(4096))      // value streams run dry
	f.Add([]byte{1, 0}, int64(1))                  // trace names block -1
	f.Add([]byte{1, 5, 9, 9}, int64(0))            // trace names a block past the end
	f.Add([]byte{}, int64(0))                      // empty trace
	f.Add([]byte{63, 2, 2, 2, 2, 2, 2}, int64(-7)) // nbb longer than data; maxVL <= 0

	f.Fuzz(func(t *testing.T, data []byte, maxVL int64) {
		p := fuzzProgram()
		blocks := len(p.Blocks)
		sameEnd := func(how string, live, replay *Stream) {
			t.Helper()
			if replay.Count() != live.Count() {
				t.Fatalf("%s: in-place Count %d, source-driven %d", how, replay.Count(), live.Count())
			}
			le, re := live.Err(), replay.Err()
			if (le == nil) != (re == nil) || (le != nil && le.Error() != re.Error()) {
				t.Fatalf("%s: terminal errors diverge: in place %v, source-driven %v", how, re, le)
			}
		}

		// Source-driven expansion is the reference sequence and
		// terminal error.
		live := NewStreamVL(p, fuzzSource(data, blocks), maxVL)
		var want []isa.DynInst
		var d isa.DynInst
		for live.Next(&d) {
			want = append(want, d)
		}

		replay := replayOf(p, fuzzSource(data, blocks), maxVL)
		for i := range want {
			if !replay.Next(&d) {
				t.Fatalf("in-place Next ended early at %d of %d", i, len(want))
			}
			if d != want[i] {
				t.Fatalf("inst %d: in-place Next %+v != source-driven %+v", i, d, want[i])
			}
		}
		if replay.Next(&d) {
			t.Fatalf("in-place Next ran past the %d source-driven instructions", len(want))
		}
		sameEnd("Next", live, replay)

		// NextExec hands both modes' machines the same static entries
		// and registers, and they agree with the expanded sequence.
		live = NewStreamVL(p, fuzzSource(data, blocks), maxVL)
		replay = replayOf(p, fuzzSource(data, blocks), maxVL)
		for i := range want {
			ls, lvl, lstride := live.NextExec()
			rs, rvl, rstride := replay.NextExec()
			if rs == nil || ls == nil {
				t.Fatalf("NextExec ended early at %d of %d (in place %v, source-driven %v)", i, len(want), rs == nil, ls == nil)
			}
			if rs != ls || rvl != lvl || rstride != lstride {
				t.Fatalf("inst %d: in-place NextExec %p/%d/%d, source-driven %p/%d/%d", i, rs, rvl, rstride, ls, lvl, lstride)
			}
			w := &want[i]
			if rs != &p.static[w.PC] || rs.Inst != w.Inst || rs.PC != w.PC {
				t.Fatalf("inst %d: static entry %+v is not PC %d's", i, *rs, w.PC)
			}
			info := isa.InfoOf(w.Op)
			if rs.Kind != info.Kind || rs.FU1OK != info.FU1OK || rs.Load != info.Load {
				t.Fatalf("inst %d (%s): static decode fields disagree with ISA table", i, w.Op)
			}
			var vs [2]uint8
			if n := w.Inst.VSources(&vs); int(rs.NVSrc) != n || vs != rs.VSrcs {
				t.Fatalf("inst %d (%s): static vector sources %d/%v, want %d/%v",
					i, w.Op, rs.NVSrc, rs.VSrcs, n, vs)
			}
			switch info.Kind {
			case isa.KindVector:
				if rvl != w.VL {
					t.Fatalf("inst %d (%s): NextExec VL %d, Next %d", i, w.Op, rvl, w.VL)
				}
			case isa.KindVectorMem:
				if rvl != w.VL || rstride != w.Stride {
					t.Fatalf("inst %d (%s): NextExec VL/stride %d/%d, Next %d/%d", i, w.Op, rvl, rstride, w.VL, w.Stride)
				}
			}
		}
		if rs, _, _ := replay.NextExec(); rs != nil {
			t.Fatal("in-place NextExec ran past the source-driven sequence")
		}
		if ls, _, _ := live.NextExec(); ls != nil {
			t.Fatal("source-driven NextExec ran past its Next sequence")
		}
		sameEnd("NextExec", live, replay)
	})
}
