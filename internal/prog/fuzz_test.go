package prog

import (
	"testing"

	"mtvec/internal/isa"
)

// fuzzProgram covers every dynamic-expansion path Stream.Next has: VL/VS
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

// FuzzDecode fuzzes the trace-expansion pipeline: arbitrary bytes become
// a SliceSource over fuzzProgram, predecoded by DecodeAllVL. The
// properties under test:
//
//   - expansion never panics, whatever the trace holds — out-of-range
//     block indices, exhausted value streams, degenerate VLs and
//     strides must all surface as Stream errors;
//   - the predecoded records replayed through NewDecodedStream deliver,
//     via both Next and NextDec, a DynInst sequence bit-identical to a
//     fresh source-driven stream over the same bytes, with the same
//     terminal error — the stream.go contract the trace cache leans on;
//   - every expanded view's decode fields agree with the ISA tables for
//     its opcode, and each record's Val is the Stride or SetVal its
//     instruction carries (zero for every other kind).
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

		dec, decErr := DecodeAllVL(p, fuzzSource(data, blocks), int64(len(data)), maxVL)

		// A fresh source-driven stream over the same bytes is the
		// reference sequence and terminal error.
		live := NewStreamVL(p, fuzzSource(data, blocks), maxVL)
		var want []isa.DynInst
		var d isa.DynInst
		for live.Next(&d) {
			want = append(want, d)
		}
		if len(want) != len(dec) {
			t.Fatalf("source-driven stream delivered %d instructions, predecode holds %d", len(want), len(dec))
		}
		liveErr := live.Err()
		if (decErr == nil) != (liveErr == nil) ||
			(decErr != nil && decErr.Error() != liveErr.Error()) {
			t.Fatalf("terminal errors diverge: predecode %v, source-driven %v", decErr, liveErr)
		}

		// Predecoded replay through Next hands back the same sequence.
		next := NewDecodedStream(p, dec)
		for i := range want {
			if !next.Next(&d) {
				t.Fatalf("predecoded Next ended early at %d of %d", i, len(want))
			}
			if d != want[i] {
				t.Fatalf("inst %d: predecoded Next %+v != source-driven %+v", i, d, want[i])
			}
		}
		if next.Next(&d) || next.Count() != live.Count() || next.Err() != nil {
			t.Fatalf("predecoded Next: ran past its records or miscounted (count %d, want %d)", next.Count(), live.Count())
		}

		// Predecoded replay through NextDec expands the same sequence,
		// and the expanded decode fields agree with the ISA tables.
		replay := NewDecodedStream(p, dec)
		for i := range want {
			rd := replay.NextDec()
			if rd == nil {
				t.Fatalf("predecoded replay ended early at %d of %d", i, len(dec))
			}
			if rd.DynInst != want[i] {
				t.Fatalf("inst %d: replay %+v != source-driven %+v", i, rd.DynInst, want[i])
			}
			info := isa.InfoOf(rd.Op)
			if rd.Kind != info.Kind || rd.FU1OK != info.FU1OK || rd.Load != info.Load {
				t.Fatalf("inst %d (%s): expanded decode fields disagree with ISA table", i, rd.Op)
			}
			var vs [2]uint8
			if n := rd.Inst.VSources(&vs); int(rd.NVSrc) != n || vs != rd.VSrcs {
				t.Fatalf("inst %d (%s): expanded vector sources %d/%v, want %d/%v",
					i, rd.Op, rd.NVSrc, rd.VSrcs, n, vs)
			}
			var val int64
			switch info.Kind {
			case isa.KindVLVS:
				val = want[i].SetVal
			case isa.KindVectorMem:
				val = want[i].Stride
			}
			if dec[i].Val != val {
				t.Fatalf("inst %d (%s): record Val %d, want %d", i, rd.Op, dec[i].Val, val)
			}
		}
		if replay.NextDec() != nil {
			t.Fatal("predecoded replay ran past its slice")
		}
	})
}
