package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

func sampleProgram() *prog.Program {
	return &prog.Program{
		Name: "sample",
		Blocks: []prog.BasicBlock{
			{Label: "head", Insts: []isa.Inst{
				{Op: isa.OpSetVS, Src1: isa.A(0)},
				{Op: isa.OpSetVL, Src1: isa.A(1)},
			}},
			{Label: "body", Insts: []isa.Inst{
				{Op: isa.OpVLoad, Dst: isa.V(0), Src1: isa.A(2)},
				{Op: isa.OpVMulS, Dst: isa.V(1), Src1: isa.V(0), Src2: isa.S(1)},
				{Op: isa.OpVStore, Src1: isa.V(1), Src2: isa.A(3)},
				{Op: isa.OpBr, Src1: isa.S(0)},
			}},
		},
	}
}

func sampleTrace(iters int) *Trace {
	t := &Trace{Prog: sampleProgram()}
	t.BBs = append(t.BBs, 0)
	t.VLs = []int64{96}
	t.Strides = []int64{8}
	for i := 0; i < iters; i++ {
		t.BBs = append(t.BBs, 1)
		t.Addrs = append(t.Addrs, uint64(0x10000+i*96*8), uint64(0x80000+i*96*8))
	}
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace(10)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prog.Name != tr.Prog.Name {
		t.Errorf("name %q != %q", got.Prog.Name, tr.Prog.Name)
	}
	if !reflect.DeepEqual(got.BBs, tr.BBs) || !reflect.DeepEqual(got.VLs, tr.VLs) ||
		!reflect.DeepEqual(got.Strides, tr.Strides) || !reflect.DeepEqual(got.Addrs, tr.Addrs) {
		t.Error("stream sections did not round-trip")
	}
	for i, b := range got.Prog.Blocks {
		if !reflect.DeepEqual(b.Insts, tr.Prog.Blocks[i].Insts) {
			t.Errorf("block %d instructions differ", i)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	// Property: arbitrary random (but well-formed) traces round-trip.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{Prog: sampleProgram()}
		n := r.Intn(50) + 1
		addr := uint64(r.Int63())
		for i := 0; i < n; i++ {
			tr.BBs = append(tr.BBs, int32(r.Intn(2)))
			if r.Intn(3) == 0 {
				tr.VLs = append(tr.VLs, int64(r.Intn(isa.MaxVL)+1))
			}
			if r.Intn(5) == 0 {
				tr.Strides = append(tr.Strides, int64(r.Intn(4096)-2048))
			}
			// Addresses wander both directions to exercise the
			// signed delta encoding.
			addr += uint64(int64(r.Intn(1<<20) - 1<<19))
			tr.Addrs = append(tr.Addrs, addr)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.BBs, tr.BBs) &&
			reflect.DeepEqual(got.VLs, tr.VLs) &&
			reflect.DeepEqual(got.Strides, tr.Strides) &&
			reflect.DeepEqual(got.Addrs, tr.Addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	tr := sampleTrace(8)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a byte somewhere in the middle of the stream sections.
	for _, pos := range []int{len(raw) / 2, len(raw) - 5, 10} {
		cp := append([]byte(nil), raw...)
		cp[pos] ^= 0x40
		if _, err := Decode(bytes.NewReader(cp)); err == nil {
			t.Errorf("corruption at byte %d went undetected", pos)
		}
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE!"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte{'M', 'T', 'V', 'T', 99})); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	tr := sampleTrace(8)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{6, len(raw) / 3, len(raw) - 3} {
		if _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

// sliceSource is a TraceSource over the trace's own slices: the
// source-driven oracle in-place replay is checked against.
func sliceSource(t *Trace) *prog.SliceSource {
	bbs := make([]int, len(t.BBs))
	for i, b := range t.BBs {
		bbs[i] = int(b)
	}
	return &prog.SliceSource{BBs: bbs, VLs: t.VLs, Strides: t.Strides, Addrs: t.Addrs}
}

// TestReplaySourceMatchesSlices: Stream replays the trace's slices in
// place exactly as a source-driven stream over the same slices expands
// them, and a value stream that runs dry fails both at the same point.
func TestReplaySourceMatchesSlices(t *testing.T) {
	short := sampleTrace(4)
	short.Addrs = short.Addrs[:5] // the third body iteration's store runs dry
	for name, tr := range map[string]*Trace{"clean": sampleTrace(4), "short-addrs": short} {
		want := prog.NewStreamVL(tr.Prog, sliceSource(tr), tr.MaxVL)
		got := tr.Stream()
		var dw, dg isa.DynInst
		for {
			okW, okG := want.Next(&dw), got.Next(&dg)
			if okW != okG {
				t.Fatalf("%s: stream lengths differ (source ok=%v, in-place ok=%v)", name, okW, okG)
			}
			if !okW {
				break
			}
			if dw != dg {
				t.Fatalf("%s: instruction differs:\n  source:   %v\n  in place: %v", name, &dw, &dg)
			}
		}
		if want.Count() != got.Count() {
			t.Fatalf("%s: Count %d in place, %d source-driven", name, got.Count(), want.Count())
		}
		if fmt.Sprint(want.Err()) != fmt.Sprint(got.Err()) || (got.Err() != nil) != (name == "short-addrs") {
			t.Fatalf("%s: errors: source-driven %v, in place %v", name, want.Err(), got.Err())
		}
	}
}

// TestDecodedMaterializesRecords: Decoded reduces each replayed
// instruction to its PC, VL, address and the Stride or SetVal its kind
// carries, builds a fresh slice per call, and returns nil for a trace
// that does not replay.
func TestDecodedMaterializesRecords(t *testing.T) {
	tr := sampleTrace(3)
	dec := tr.Decoded()
	s := tr.Stream()
	var d isa.DynInst
	i := 0
	for ; s.Next(&d); i++ {
		want := prog.DecodedInst{PC: d.PC, VL: d.VL, Addr: d.Addr}
		switch isa.KindOf(d.Op) {
		case isa.KindVLVS:
			want.Val = d.SetVal
		case isa.KindVectorMem:
			want.Val = d.Stride
		}
		if i >= len(dec) || dec[i] != want {
			t.Fatalf("record %d: got %+v, want %+v", i, dec[min(i, len(dec)-1)], want)
		}
	}
	if i != len(dec) {
		t.Fatalf("%d records for %d instructions", len(dec), i)
	}
	if again := tr.Decoded(); &again[0] == &dec[0] {
		t.Fatal("Decoded returned a cached slice")
	}
	tr.Addrs = tr.Addrs[:1]
	if tr.Decoded() != nil {
		t.Fatal("Decoded of a trace that does not replay is not nil")
	}
}

func TestRecordThenReplayIdentity(t *testing.T) {
	// Record from a SliceSource, replay the trace, and compare the two
	// dynamic instruction streams instruction by instruction.
	p := sampleProgram()
	mkSrc := func() *prog.SliceSource {
		return &prog.SliceSource{
			BBs:     []int{0, 1, 1, 1},
			VLs:     []int64{64},
			Strides: []int64{8},
			Addrs:   []uint64{1, 2, 3, 4, 5, 6},
		}
	}
	tr, err := Record(p, mkSrc(), 0)
	if err != nil {
		t.Fatal(err)
	}

	want := prog.NewStream(p, mkSrc())
	got := tr.Stream()
	var dw, dg isa.DynInst
	for {
		okW := want.Next(&dw)
		okG := got.Next(&dg)
		if okW != okG {
			t.Fatalf("stream lengths differ (want-ok=%v got-ok=%v)", okW, okG)
		}
		if !okW {
			break
		}
		if dw != dg {
			t.Fatalf("instruction differs:\n  direct: %v\n  replay: %v", &dw, &dg)
		}
	}
	if want.Err() != nil || got.Err() != nil {
		t.Fatal(want.Err(), got.Err())
	}
}

// TestRecordHonorsMaxInsts: recording stops at the first block boundary
// at or after maxInsts, so the trace replays cleanly and reproduces the
// recorded prefix exactly.
func TestRecordHonorsMaxInsts(t *testing.T) {
	p := sampleProgram()
	mkSrc := func() *prog.SliceSource {
		return &prog.SliceSource{
			BBs:     []int{0, 1, 1, 1, 1, 1},
			VLs:     []int64{64},
			Strides: []int64{8},
			Addrs:   []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		}
	}
	// Block 0 holds 2 instructions and block 1 holds 4.
	for _, c := range []struct{ max, want int64 }{
		{1, 2},  // mid-block: finish the header
		{3, 6},  // mid-block: finish the first body iteration
		{5, 6},  // mid-block, one short of the boundary
		{6, 6},  // exactly at a block boundary
		{7, 10}, // one past it: a whole further iteration
	} {
		tr, err := Record(p, mkSrc(), c.max)
		if err != nil {
			t.Fatalf("maxInsts %d: %v", c.max, err)
		}
		got, direct := tr.Stream(), prog.NewStream(p, mkSrc())
		var dg, dd isa.DynInst
		for got.Next(&dg) {
			if !direct.Next(&dd) || dg != dd {
				t.Fatalf("maxInsts %d: replayed inst %d is %v, recorded run had %v", c.max, got.Count(), &dg, &dd)
			}
		}
		if err := got.Err(); err != nil {
			t.Fatalf("maxInsts %d: replay: %v", c.max, err)
		}
		if got.Count() != c.want {
			t.Fatalf("maxInsts %d: recorded %d dynamic instructions, want %d", c.max, got.Count(), c.want)
		}
	}
}

func TestRecordPropagatesSourceError(t *testing.T) {
	p := sampleProgram()
	src := &prog.SliceSource{BBs: []int{0, 1}, VLs: []int64{64}, Strides: []int64{8}}
	if _, err := Record(p, src, 0); err == nil {
		t.Fatal("source error not propagated")
	}
}
