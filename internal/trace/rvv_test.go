package trace

import (
	"bytes"
	"strings"
	"testing"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

// allOpsTrace exercises every opcode the exporter can name, including
// both stride disciplines, so the round-trip test covers the whole
// mnemonic table.
func allOpsTrace() *Trace {
	blocks := []prog.BasicBlock{{Label: "all", Insts: []isa.Inst{
		{Op: isa.OpNop},
		{Op: isa.OpMovI, Dst: isa.A(2), Src2: isa.Imm(), Imm: 0x1000},
		{Op: isa.OpAAdd, Dst: isa.A(3), Src1: isa.A(2), Src2: isa.Imm(), Imm: 8},
		{Op: isa.OpAShl, Dst: isa.A(3), Src1: isa.A(3), Src2: isa.Imm(), Imm: 3},
		{Op: isa.OpSAddI, Dst: isa.S(1), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSMulI, Dst: isa.S(1), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSDivI, Dst: isa.S(1), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSLogic, Dst: isa.S(1), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSShift, Dst: isa.S(1), Src1: isa.S(1), Src2: isa.Imm(), Imm: 2},
		{Op: isa.OpSCmp, Dst: isa.S(1), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSAdd, Dst: isa.S(3), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSMul, Dst: isa.S(3), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSDiv, Dst: isa.S(3), Src1: isa.S(1), Src2: isa.S(2)},
		{Op: isa.OpSSqrt, Dst: isa.S(3), Src1: isa.S(3)},
		{Op: isa.OpSLoad, Dst: isa.S(4), Src1: isa.A(2)},
		{Op: isa.OpSStore, Src1: isa.S(4), Src2: isa.A(2)},
		{Op: isa.OpSetVS, Src1: isa.A(0)},
		{Op: isa.OpSetVL, Src1: isa.A(1)},
		{Op: isa.OpVAdd, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVSub, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVMul, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVDiv, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVSqrt, Dst: isa.V(0), Src1: isa.V(1)},
		{Op: isa.OpVAnd, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVOr, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVXor, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVShl, Dst: isa.V(0), Src1: isa.V(1)},
		{Op: isa.OpVShr, Dst: isa.V(0), Src1: isa.V(1)},
		{Op: isa.OpVCmp, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVMerge, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2)},
		{Op: isa.OpVAddS, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.S(1)},
		{Op: isa.OpVMulS, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.S(1)},
		{Op: isa.OpVRedAdd, Dst: isa.S(5), Src1: isa.V(0)},
		{Op: isa.OpVLoad, Dst: isa.V(3), Src1: isa.A(2)},
		{Op: isa.OpVStore, Src1: isa.V(3), Src2: isa.A(3)},
		{Op: isa.OpVGather, Dst: isa.V(4), Src1: isa.V(5), Src2: isa.A(2)},
		{Op: isa.OpVScatter, Src1: isa.V(4), Src2: isa.V(5)},
		{Op: isa.OpBr, Src1: isa.S(0)},
		{Op: isa.OpJmp},
	}}}
	return &Trace{
		Prog:    &prog.Program{Name: "allops", Blocks: blocks},
		BBs:     []int32{0},
		VLs:     []int64{64},
		Strides: []int64{16}, // non-unit: exercises vlse64/vsse64 spellings
		Addrs:   []uint64{0x100, 0x108, 0x2000, 0x3000, 0x4000, 0x5000},
	}
}

// sameReplay fails the test unless the two traces expand to identical
// dynamic instruction streams (program counters aside — the importer
// rebuilds the static layout).
func sameReplay(t *testing.T, want, got *Trace) {
	t.Helper()
	s1 := want.Stream()
	s2 := got.Stream()
	var d1, d2 isa.DynInst
	for i := 0; ; i++ {
		ok1, ok2 := s1.Next(&d1), s2.Next(&d2)
		if ok1 != ok2 {
			t.Fatalf("stream lengths differ at dynamic instruction %d (want ended: %v, got ended: %v)", i, !ok1, !ok2)
		}
		if !ok1 {
			break
		}
		d1.PC, d2.PC = 0, 0
		if d1 != d2 {
			t.Fatalf("dynamic instruction %d differs:\nwant %v\ngot  %v", i, &d1, &d2)
		}
	}
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
}

func exportString(t *testing.T, tr *Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportRVV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func mustImport(t *testing.T, text string) *Trace {
	t.Helper()
	tr, err := ImportRVV(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRVVRoundTripAllOps(t *testing.T) {
	tr := allOpsTrace()
	text := exportString(t, tr)
	got := mustImport(t, text)
	if got.Prog.Name != "allops" {
		t.Errorf("program name = %q", got.Prog.Name)
	}
	if got.MaxVL != isa.MaxVL {
		t.Errorf("MaxVL = %d, want %d", got.MaxVL, isa.MaxVL)
	}
	sameReplay(t, tr, got)
}

func TestRVVRoundTripLoop(t *testing.T) {
	tr := sampleTrace(25)
	got := mustImport(t, exportString(t, tr))
	sameReplay(t, tr, got)
	// And the canonical text is a fixed point: exporting the imported
	// trace reproduces it byte for byte.
	if again := exportString(t, got); again != exportString(t, tr) {
		t.Error("canonical export is not a fixed point under import")
	}
}

func TestRVVImportHeaders(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"empty", "", "missing"},
		{"no-format", "vfadd.vv v0, v1, v2\n", "missing"},
		{"version-mismatch", "format: mtvrvv/2\nnop\n", `unsupported format "mtvrvv/2"`},
		{"bad-vlen", "format: mtvrvv/1\nvlen: 0\nnop\n", "out of range"},
		{"huge-vlen", "format: mtvrvv/1\nvlen: 8192\nnop\n", "out of range"},
		{"unknown-header", "format: mtvrvv/1\nflavour: salty\nnop\n", "unknown header"},
		{"late-header", "format: mtvrvv/1\nnop\nvlen: 64\n", "after the first instruction"},
		{"no-insts", "format: mtvrvv/1\nname: empty\n", "no instructions"},
		{"empty-name", "format: mtvrvv/1\nname:\nnop\n", "empty program name"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ImportRVV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRVVImportJoinedDiagnostics(t *testing.T) {
	in := `format: mtvrvv/1
bogus v0
vfadd.vv v0
li a0
vle64.v v0, a2
`
	_, err := ImportRVV(strings.NewReader(in))
	if err == nil {
		t.Fatal("corrupt trace accepted")
	}
	msg := err.Error()
	// One pass reports every defective line, not just the first.
	for _, want := range []string{"4 error(s)", "line 2:", "line 3:", "line 4:", "line 5:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostics %q missing %q", msg, want)
		}
	}
}

func TestRVVImportErrorCap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("format: mtvrvv/1\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("bogus v0\n")
	}
	_, err := ImportRVV(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.Contains(err.Error(), "too many errors") {
		t.Fatalf("unbounded diagnostics: %q", err)
	}
}

func TestRVVImportBadLines(t *testing.T) {
	for _, tc := range []struct {
		name, line, want string
	}{
		{"unknown-mnemonic", "vmacc.vv v0, v1, v2", "unknown mnemonic"},
		{"missing-operand", "vfadd.vv v0, v1", "missing a register"},
		{"leftover-operand", "vfsqrt.v v0, v1, v2", "leftover"},
		{"missing-addr", "vle64.v v0, a2", "needs an @0x"},
		{"addr-on-arith", "vfadd.vv v0, v1, v2 @0x10", "cannot take an address"},
		{"stride-on-indexed", "vluxei64.v v0, v1, a2, 16 @0x10", "cannot take a stride"},
		{"stride-on-unit", "vle64.v v0, a2, 16 @0x10", "does not take a stride"},
		{"missing-stride", "vlse64.v v0, a2 @0x10", "explicit byte stride"},
		{"mask-on-scalar", "fadd.d s1, s2, s3, v0.t", "cannot take a mask"},
		{"bad-register", "vfadd.vv v0, v1, vx", "bad register"},
		{"bad-mask", "vfadd.vv v0, v1, v2, s0.t", "bad mask"},
		{"bad-addr", "vle64.v v0, a2 @zzz", "bad address"},
		{"reg-range", "vfadd.vv v0, v1, v99", "out of range"},
		{"bad-setvl", "vsetvl a1", "wants a register and a value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := "format: mtvrvv/1\n" + tc.line + "\n"
			_, err := ImportRVV(strings.NewReader(in))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// drainOps replays a trace and returns the opcode sequence.
func drainOps(t *testing.T, tr *Trace) []isa.Op {
	t.Helper()
	s := tr.Stream()
	var d isa.DynInst
	var ops []isa.Op
	for s.Next(&d) {
		ops = append(ops, d.Op)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return ops
}

func opsEqual(a, b []isa.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRVVImportLMUL(t *testing.T) {
	// m2 over AVL 256 at vlen 128: each grouped instruction becomes two
	// full-length parts on consecutive registers.
	tr := mustImport(t, `format: mtvrvv/1
name: lmul
vlen: 128
vsetvli 256 m2
vfadd.vv v0, v2, v4
vle64.v v6, a2 @0x1000
`)
	_, st, err := tr.Stream().Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.VectorArithElems != 256 {
		t.Errorf("arith elements = %d, want 256", st.VectorArithElems)
	}
	if st.VectorMemElems != 256 {
		t.Errorf("memory elements = %d, want 256", st.VectorMemElems)
	}
	want := []isa.Op{isa.OpVAdd, isa.OpVAdd, isa.OpVLoad, isa.OpVLoad}
	if got := drainOps(t, tr); !opsEqual(got, want) {
		t.Errorf("ops = %v, want %v", got, want)
	}
	// The second load part advances by one register and one vector's
	// worth of bytes.
	if tr.Addrs[1] != 0x1000+128*8 {
		t.Errorf("part 1 address = %#x", tr.Addrs[1])
	}
}

func TestRVVImportLMULTail(t *testing.T) {
	// AVL 130 at vlen 128 m2: a full part then a 2-element tail part.
	tr := mustImport(t, `format: mtvrvv/1
vlen: 128
vsetvli 130 m2
vfadd.vv v0, v2, v4
`)
	_, st, err := tr.Stream().Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.VectorArithElems != 130 {
		t.Errorf("arith elements = %d, want 130", st.VectorArithElems)
	}
	want := []isa.Op{isa.OpVAdd, isa.OpSetVL, isa.OpVAdd}
	if got := drainOps(t, tr); !opsEqual(got, want) {
		t.Errorf("ops = %v, want %v", got, want)
	}
}

func TestRVVImportLMULErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"misaligned", "vsetvli 256 m2\nvfadd.vv v1, v2, v4", "not aligned"},
		{"avl-too-big", "vsetvli 2000 m2\nvfadd.vv v0, v2, v4", "exceeds LMUL"},
		{"bad-lmul", "vsetvli 128 m3", "bad LMUL"},
		{"bad-ew", "vsetvli 128 e32 m2", "element width"},
		{"no-avl", "vsetvli m2", "missing the requested vector length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := "format: mtvrvv/1\n" + tc.in + "\n"
			_, err := ImportRVV(strings.NewReader(in))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRVVImportMasked(t *testing.T) {
	tr := mustImport(t, `format: mtvrvv/1
vsetvl a1, 64
vfadd.vv v1, v2, v3, v0.t
vse64.v v1, a2, v0.t @0x1000
`)
	// Masked arithmetic merges after the op; masked stores predicate the
	// data register before the store reads it.
	want := []isa.Op{isa.OpSetVL, isa.OpVAdd, isa.OpVMerge, isa.OpVMerge, isa.OpVStore}
	if got := drainOps(t, tr); !opsEqual(got, want) {
		t.Errorf("ops = %v, want %v", got, want)
	}
}

func TestRVVImportMaskedLMUL(t *testing.T) {
	// Grouped masked op: each part carries its own merge.
	tr := mustImport(t, `format: mtvrvv/1
vlen: 128
vsetvli 256 m2
vfmul.vv v0, v2, v4, v6.t
`)
	want := []isa.Op{isa.OpVMul, isa.OpVMerge, isa.OpVMul, isa.OpVMerge}
	if got := drainOps(t, tr); !opsEqual(got, want) {
		t.Errorf("ops = %v, want %v", got, want)
	}
}

func TestRVVImportStrideTracking(t *testing.T) {
	tr := mustImport(t, `format: mtvrvv/1
vle64.v v0, a2 @0x1000
vlse64.v v1, a2, 1024 @0x2000
vlse64.v v2, a2, 1024 @0x3000
vse64.v v0, a3 @0x4000
`)
	// vsetvs instructions appear exactly when the stride in force
	// changes: 8 (initial, no-op) -> 1024 -> 1024 (no-op) -> 8.
	want := []isa.Op{isa.OpVLoad, isa.OpSetVS, isa.OpVLoad, isa.OpVLoad, isa.OpSetVS, isa.OpVStore}
	if got := drainOps(t, tr); !opsEqual(got, want) {
		t.Errorf("ops = %v, want %v", got, want)
	}
	if len(tr.Strides) != 2 || tr.Strides[0] != 1024 || tr.Strides[1] != 8 {
		t.Errorf("strides = %v, want [1024 8]", tr.Strides)
	}
}

func TestRVVImportBinaryBridge(t *testing.T) {
	// An imported text trace encodes to .mtvt and back like any other.
	tr := mustImport(t, exportString(t, sampleTrace(4)))
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got.MaxVL = tr.MaxVL // binary format carries no VL cap
	sameReplay(t, tr, got)
}

func FuzzTraceImport(f *testing.F) {
	var buf bytes.Buffer
	if err := ExportRVV(&buf, allOpsTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("format: mtvrvv/1\nname: g\nvlen: 16\nvsetvli 32 m2\nvfadd.vv v0, v2, v4, v6.t\nvlse64.v v0, a2, 24 @0x80\n")
	f.Add("format: mtvrvv/2\nnop\n")
	f.Add("format: mtvrvv/1\nvsetvl a1, 64\nvluxei64.v v1, v2, a3 @0xffffffffffffffff\n")
	f.Add("vle64.v v0, a2 @0x10\n")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ImportRVV(strings.NewReader(s))
		if err != nil {
			return // rejected input: fine, as long as we didn't panic
		}
		// Anything accepted must replay, export canonically, and
		// re-import to the identical dynamic stream.
		var out bytes.Buffer
		if err := ExportRVV(&out, tr); err != nil {
			t.Fatalf("accepted trace does not export: %v", err)
		}
		tr2, err := ImportRVV(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("canonical export does not re-import: %v\n%s", err, out.String())
		}
		sameReplay(t, tr, tr2)
	})
}
