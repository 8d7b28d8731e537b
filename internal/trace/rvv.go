package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

// RVV-flavoured text trace format ("mtvrvv"), the external-frontend
// counterpart of the binary .mtvt codec. A file carries one dynamic
// instruction per line under RISC-V-vector-style mnemonics, so traces
// generated outside this repository (or by hand) can be replayed
// through the engine, and engine traces can be exported for external
// tooling. docs/BENCHMARKS.md specifies the format with a worked
// example.
//
//	# comment
//	format: mtvrvv/1
//	name: axpy
//	vlen: 128
//	vsetvl a1, 128
//	vle64.v v0, a2 @0x40000000
//	vfmul.vf v1, v0, s1
//	vse64.v v1, a3 @0x40100000
//	beqz a0
//
// Export is canonical: every line is one engine instruction, and
// import(export(t)) replays bit-identically to t (program PCs aside —
// the importer rebuilds the static program one basic block per distinct
// instruction). Import additionally accepts RVV conveniences that have
// no canonical counterpart and are lowered onto the engine's forms:
//
//   - `vsetvli <avl> m<g>` — LMUL-style register grouping: subsequent
//     vector instructions name aligned logical register groups of g
//     architectural registers and operate on up to g*vlen elements; the
//     importer splits them into g per-register instructions, threading
//     the vector-length register through the parts.
//   - a trailing `, vN.t` mask operand — masked execution, lowered to
//     the engine's predicated form (the unmasked op followed by a
//     vmerge with the mask register; for stores the merge precedes the
//     store on the data register).
//   - `vlse64.v`/`vsse64.v` with an explicit byte-stride operand —
//     strided accesses; the importer maintains the architectural
//     vector-stride register, inserting vsetvs instructions exactly
//     when the stride in force must change (unit-stride `vle64.v` /
//     `vse64.v` imply stride 8).
const (
	rvvFormat  = "mtvrvv"
	rvvVersion = 1
)

// maxImportErrors caps how many per-line diagnostics an import collects
// before giving up; they are reported joined, not first-error-only.
const maxImportErrors = 20

// maxRVVVLen bounds the header vlen (mirrors arch.MaxVLen: DynInst.VL
// is uint16 and machines cap register length at 4096 elements).
const maxRVVVLen = 4096

// rvvNames maps engine opcodes to their canonical exported mnemonics.
// Vector memory ops are handled specially (unit-stride and strided
// spellings); everything else round-trips through this table.
var rvvNames = map[isa.Op]string{
	isa.OpNop:      "nop",
	isa.OpMovI:     "li",
	isa.OpAAdd:     "addi",
	isa.OpAShl:     "slli",
	isa.OpSAddI:    "add",
	isa.OpSMulI:    "mul",
	isa.OpSDivI:    "div",
	isa.OpSLogic:   "and",
	isa.OpSShift:   "srli",
	isa.OpSCmp:     "slt",
	isa.OpSAdd:     "fadd.d",
	isa.OpSMul:     "fmul.d",
	isa.OpSDiv:     "fdiv.d",
	isa.OpSSqrt:    "fsqrt.d",
	isa.OpSLoad:    "ld",
	isa.OpSStore:   "sd",
	isa.OpBr:       "beqz",
	isa.OpJmp:      "j",
	isa.OpSetVL:    "vsetvl",
	isa.OpSetVS:    "vsetvs",
	isa.OpVAdd:     "vfadd.vv",
	isa.OpVSub:     "vfsub.vv",
	isa.OpVMul:     "vfmul.vv",
	isa.OpVDiv:     "vfdiv.vv",
	isa.OpVSqrt:    "vfsqrt.v",
	isa.OpVAnd:     "vand.vv",
	isa.OpVOr:      "vor.vv",
	isa.OpVXor:     "vxor.vv",
	isa.OpVShl:     "vsll.v",
	isa.OpVShr:     "vsrl.v",
	isa.OpVCmp:     "vmfgt.vv",
	isa.OpVMerge:   "vmerge.vvm",
	isa.OpVAddS:    "vfadd.vf",
	isa.OpVMulS:    "vfmul.vf",
	isa.OpVRedAdd:  "vfredusum.vs",
	isa.OpVLoad:    "vle64.v",
	isa.OpVStore:   "vse64.v",
	isa.OpVGather:  "vluxei64.v",
	isa.OpVScatter: "vsuxei64.v",
}

// rvvOps is the reverse map, plus import-only aliases.
var rvvOps = func() map[string]isa.Op {
	m := make(map[string]isa.Op, len(rvvNames)+8)
	for op, name := range rvvNames {
		m[name] = op
	}
	// Strided spellings of the vector memory ops (explicit byte stride).
	m["vlse64.v"] = isa.OpVLoad
	m["vsse64.v"] = isa.OpVStore
	// Common aliases external generators use.
	m["vfredosum.vs"] = isa.OpVRedAdd
	m["vloxei64.v"] = isa.OpVGather
	m["vsoxei64.v"] = isa.OpVScatter
	m["fsub.d"] = isa.OpSAdd
	m["sub"] = isa.OpSAddI
	m["or"] = isa.OpSLogic
	m["xor"] = isa.OpSLogic
	m["sll"] = isa.OpSShift
	return m
}()

// ExportRVV writes the trace's dynamic instruction stream as mtvrvv/1
// text: header, then one line per instruction in execution order.
func ExportRVV(w io.Writer, t *Trace) error {
	if t == nil || t.Prog == nil {
		return fmt.Errorf("trace: export: nil trace")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: RVV-flavoured dynamic vector trace of %q\n", rvvFormat, t.Prog.Name)
	fmt.Fprintf(bw, "format: %s/%d\n", rvvFormat, rvvVersion)
	fmt.Fprintf(bw, "name: %s\n", t.Prog.Name)
	maxVL := t.MaxVL
	if maxVL <= 0 {
		maxVL = isa.MaxVL
	}
	fmt.Fprintf(bw, "vlen: %d\n", maxVL)

	s := t.Stream()
	var d isa.DynInst
	for s.Next(&d) {
		if err := exportInst(bw, &d); err != nil {
			return err
		}
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("trace: export: replay failed: %w", err)
	}
	return bw.Flush()
}

func exportInst(bw *bufio.Writer, d *isa.DynInst) error {
	name, ok := rvvNames[d.Op]
	if !ok {
		return fmt.Errorf("trace: export: no mnemonic for opcode %s", d.Op)
	}
	// Strided accesses get the explicit-stride spelling. Indexed
	// (gather/scatter) accesses address element-by-element through the
	// index vector, so the stride register does not apply to them.
	stride := false
	if (d.Op == isa.OpVLoad || d.Op == isa.OpVStore) && d.Stride != isa.ElemBytes {
		stride = true
		if d.Op == isa.OpVLoad {
			name = "vlse64.v"
		} else {
			name = "vsse64.v"
		}
	}
	bw.WriteString(name)
	sep := " "
	writeOp := func(o isa.Operand) {
		if o.Class == isa.ClassNone {
			return
		}
		bw.WriteString(sep)
		sep = ", "
		if o.Class == isa.ClassImm {
			fmt.Fprintf(bw, "%d", d.Imm)
		} else {
			fmt.Fprintf(bw, "%s%d", o.Class, o.Reg)
		}
	}
	writeOp(d.Dst)
	writeOp(d.Src1)
	writeOp(d.Src2)
	switch {
	case d.Op == isa.OpSetVL || d.Op == isa.OpSetVS:
		fmt.Fprintf(bw, "%s%d", sep, d.SetVal)
	case stride:
		fmt.Fprintf(bw, "%s%d", sep, d.Stride)
	}
	if isa.InfoPtr(d.Op).Kind == isa.KindVectorMem || isa.InfoPtr(d.Op).Kind == isa.KindScalarMem {
		fmt.Fprintf(bw, " @0x%x", d.Addr)
	}
	bw.WriteByte('\n')
	return nil
}

// rvvImporter accumulates the reconstructed program and streams while
// tracking the architectural state (VL, VS, grouping) the engine will
// hold at each point of the replay.
type rvvImporter struct {
	t      *Trace
	blocks map[isa.Inst]int32 // static dedup: one block per distinct instruction

	vlen int64 // hardware vector length (header)
	vl   int64 // engine VL register as the replay will see it
	vs   int64 // engine VS register

	lmul int64 // current register grouping (vsetvli), 1 outside groups
	avl  int64 // application vector length of the current grouping

	errs []error
}

// ImportRVV parses an mtvrvv text trace into a replayable Trace,
// validating the result end to end. Parse problems are collected per
// line (up to maxImportErrors of them) and returned joined, so one pass
// reports every diagnosable defect of a hand-written or
// machine-generated trace.
func ImportRVV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	imp := &rvvImporter{
		t:      &Trace{Prog: &prog.Program{Name: "rvv"}},
		blocks: make(map[isa.Inst]int32),
		vlen:   isa.MaxVL,
		lmul:   1,
	}

	lineNo := 0
	sawFormat := false
	sawInst := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if key, val, ok := strings.Cut(line, ":"); ok && !strings.Contains(key, " ") {
			key = strings.TrimSpace(key)
			if err := imp.header(key, strings.TrimSpace(val), &sawFormat, sawInst); err != nil {
				if key == "format" {
					// A version/format mismatch makes every later line
					// unparseable noise; fail immediately.
					return nil, fmt.Errorf("trace: rvv: line %d: %w", lineNo, err)
				}
				imp.fail(lineNo, err)
			}
			continue
		}
		if !sawFormat {
			return nil, fmt.Errorf("trace: rvv: line %d: missing %q header (is this an mtvrvv file?)", lineNo, "format: mtvrvv/1")
		}
		sawInst = true
		if err := imp.inst(line); err != nil {
			imp.fail(lineNo, err)
		}
		if len(imp.errs) >= maxImportErrors {
			imp.errs = append(imp.errs, fmt.Errorf("too many errors; giving up"))
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: rvv: reading input: %w", err)
	}
	if !sawFormat {
		return nil, fmt.Errorf("trace: rvv: empty input (missing %q header)", "format: mtvrvv/1")
	}
	if len(imp.errs) > 0 {
		return nil, fmt.Errorf("trace: rvv: %d error(s):\n%w", len(imp.errs), errors.Join(imp.errs...))
	}
	if len(imp.t.BBs) == 0 {
		return nil, fmt.Errorf("trace: rvv: trace has no instructions")
	}
	// End-to-end validation: the reconstructed trace must replay cleanly
	// through the engine's own stream expansion.
	if _, _, err := imp.t.Stream().Drain(); err != nil {
		return nil, fmt.Errorf("trace: rvv: imported trace does not replay: %w", err)
	}
	return imp.t, nil
}

func (imp *rvvImporter) fail(line int, err error) {
	imp.errs = append(imp.errs, fmt.Errorf("line %d: %w", line, err))
}

func (imp *rvvImporter) header(key, val string, sawFormat *bool, sawInst bool) error {
	if sawInst {
		return fmt.Errorf("header %q after the first instruction", key)
	}
	switch key {
	case "format":
		want := fmt.Sprintf("%s/%d", rvvFormat, rvvVersion)
		if val != want {
			return fmt.Errorf("unsupported format %q (this importer reads %q)", val, want)
		}
		*sawFormat = true
	case "name":
		if val == "" {
			return fmt.Errorf("empty program name")
		}
		imp.t.Prog.Name = val
	case "vlen":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 1 || n > maxRVVVLen {
			return fmt.Errorf("vlen %q out of range 1..%d", val, maxRVVVLen)
		}
		imp.vlen = n
	default:
		return fmt.Errorf("unknown header %q", key)
	}
	if *sawFormat {
		imp.t.MaxVL = imp.vlen
		imp.vl = imp.vlen
		imp.vs = isa.ElemBytes
	}
	return nil
}

// emit appends one instruction occurrence to the dynamic streams,
// creating its static block on first sight.
func (imp *rvvImporter) emit(in isa.Inst) error {
	bi, ok := imp.blocks[in]
	if !ok {
		if err := in.Validate(); err != nil {
			return err
		}
		bi = int32(len(imp.t.Prog.Blocks))
		imp.t.Prog.Blocks = append(imp.t.Prog.Blocks, prog.BasicBlock{
			Label: in.String(), Insts: []isa.Inst{in},
		})
		imp.blocks[in] = bi
	}
	imp.t.BBs = append(imp.t.BBs, bi)
	return nil
}

// setVL emits a vector-length change, mirroring the engine's clamping.
func (imp *rvvImporter) setVL(reg isa.Operand, v int64) error {
	if err := imp.emit(isa.Inst{Op: isa.OpSetVL, Src1: reg}); err != nil {
		return err
	}
	imp.t.VLs = append(imp.t.VLs, v)
	if v < 1 {
		v = 1
	}
	if v > imp.vlen {
		v = imp.vlen
	}
	imp.vl = v
	return nil
}

// setVS emits a vector-stride change.
func (imp *rvvImporter) setVS(reg isa.Operand, v int64) error {
	if err := imp.emit(isa.Inst{Op: isa.OpSetVS, Src1: reg}); err != nil {
		return err
	}
	imp.t.Strides = append(imp.t.Strides, v)
	imp.vs = v
	return nil
}

// ensureVL/ensureVS insert engine instructions only when the
// architectural state must actually change (register a1 is the
// synthesized loop-control register, matching compiled code).
func (imp *rvvImporter) ensureVL(v int64) error {
	if imp.vl == v {
		return nil
	}
	return imp.setVL(isa.A(1), v)
}

func (imp *rvvImporter) ensureVS(v int64) error {
	if imp.vs == v {
		return nil
	}
	return imp.setVS(isa.A(1), v)
}

// line shape after the mnemonic: register operands in signature order,
// then op-specific extras (immediate / set value / stride), then an
// optional @0x... address, then an optional vN.t mask.
type rvvLine struct {
	regs   []isa.Operand
	nums   []int64
	addr   uint64
	hasA   bool
	mask   isa.Operand
	masked bool
}

func parseRVVOperands(fields []string) (rvvLine, error) {
	var l rvvLine
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "@"):
			if l.hasA {
				return l, fmt.Errorf("duplicate address operand %q", f)
			}
			a, err := strconv.ParseUint(strings.TrimPrefix(f, "@"), 0, 64)
			if err != nil {
				return l, fmt.Errorf("bad address %q", f)
			}
			l.addr, l.hasA = a, true
		case strings.HasSuffix(f, ".t"):
			if l.masked {
				return l, fmt.Errorf("duplicate mask operand %q", f)
			}
			m, err := parseReg(strings.TrimSuffix(f, ".t"))
			if err != nil || m.Class != isa.ClassV {
				return l, fmt.Errorf("bad mask operand %q (want vN.t)", f)
			}
			l.mask, l.masked = m, true
		case f[0] == 'a' || f[0] == 's' || f[0] == 'v':
			r, err := parseReg(f)
			if err != nil {
				return l, err
			}
			l.regs = append(l.regs, r)
		default:
			n, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return l, fmt.Errorf("bad operand %q", f)
			}
			l.nums = append(l.nums, n)
		}
	}
	return l, nil
}

func parseReg(f string) (isa.Operand, error) {
	if len(f) < 2 {
		return isa.None, fmt.Errorf("bad register %q", f)
	}
	n, err := strconv.ParseUint(f[1:], 10, 8)
	if err != nil {
		return isa.None, fmt.Errorf("bad register %q", f)
	}
	switch f[0] {
	case 'a':
		return isa.A(uint8(n)), nil
	case 's':
		return isa.S(uint8(n)), nil
	case 'v':
		return isa.V(uint8(n)), nil
	}
	return isa.None, fmt.Errorf("bad register class %q", f)
}

func (imp *rvvImporter) inst(line string) error {
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	if len(fields) == 0 {
		return fmt.Errorf("unparseable line %q", line)
	}
	mnem := fields[0]

	if mnem == "vsetvli" {
		return imp.vsetvli(fields[1:])
	}
	op, ok := rvvOps[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	l, err := parseRVVOperands(fields[1:])
	if err != nil {
		return err
	}

	switch op {
	case isa.OpSetVL, isa.OpSetVS:
		if len(l.regs) != 1 || len(l.nums) != 1 {
			return fmt.Errorf("%s wants a register and a value", mnem)
		}
		if op == isa.OpSetVL {
			imp.lmul, imp.avl = 1, l.nums[0]
			return imp.setVL(l.regs[0], l.nums[0])
		}
		return imp.setVS(l.regs[0], l.nums[0])
	}

	info := isa.InfoPtr(op)
	switch info.Kind {
	case isa.KindVector, isa.KindVectorMem:
		return imp.vectorInst(mnem, op, l)
	}
	// Scalar / control instructions: assemble operands per signature.
	if l.masked {
		return fmt.Errorf("%s cannot take a mask", mnem)
	}
	in := isa.Inst{Op: op}
	regs, nums := l.regs, l.nums
	take := func(o *isa.Operand, imm bool) error {
		if imm {
			if len(nums) == 0 {
				return fmt.Errorf("%s is missing an immediate", mnem)
			}
			*o = isa.Imm()
			in.Imm = nums[0]
			nums = nums[1:]
			return nil
		}
		if len(regs) == 0 {
			return fmt.Errorf("%s is missing a register operand", mnem)
		}
		*o = regs[0]
		regs = regs[1:]
		return nil
	}
	var need [3]struct {
		o   *isa.Operand
		imm bool
	}
	nslot := rvvScalarShape(op, &in, &need)
	for i := 0; i < nslot; i++ {
		if err := take(need[i].o, need[i].imm); err != nil {
			return err
		}
	}
	if len(regs) != 0 || len(nums) != 0 {
		return fmt.Errorf("%s has leftover operands", mnem)
	}
	if info.Kind == isa.KindScalarMem {
		if !l.hasA {
			return fmt.Errorf("%s needs an @0x... address", mnem)
		}
		imp.t.Addrs = append(imp.t.Addrs, l.addr)
	} else if l.hasA {
		return fmt.Errorf("%s cannot take an address", mnem)
	}
	return imp.emit(in)
}

// rvvScalarShape fills the operand-slot plan for a scalar/control
// opcode: which Inst fields are taken, and whether each is an
// immediate. Returns the slot count.
func rvvScalarShape(op isa.Op, in *isa.Inst, need *[3]struct {
	o   *isa.Operand
	imm bool
}) int {
	slot := func(i int, o *isa.Operand, imm bool) {
		need[i].o, need[i].imm = o, imm
	}
	switch op {
	case isa.OpNop, isa.OpJmp:
		return 0
	case isa.OpMovI:
		slot(0, &in.Dst, false)
		slot(1, &in.Src2, true)
		return 2
	case isa.OpAAdd, isa.OpAShl, isa.OpSShift:
		slot(0, &in.Dst, false)
		slot(1, &in.Src1, false)
		slot(2, &in.Src2, true)
		return 3
	case isa.OpSSqrt, isa.OpSLoad:
		slot(0, &in.Dst, false)
		slot(1, &in.Src1, false)
		return 2
	case isa.OpSStore:
		slot(0, &in.Src1, false)
		slot(1, &in.Src2, false)
		return 2
	case isa.OpBr:
		slot(0, &in.Src1, false)
		return 1
	default: // three-register scalar arithmetic
		slot(0, &in.Dst, false)
		slot(1, &in.Src1, false)
		slot(2, &in.Src2, false)
		return 3
	}
}

// vsetvli establishes an LMUL register grouping: following vector
// instructions name logical groups of m registers covering up to
// m*vlen elements.
func (imp *rvvImporter) vsetvli(fields []string) error {
	var avl, m int64 = -1, 1
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "m"):
			g, err := strconv.ParseInt(f[1:], 10, 64)
			if err != nil || (g != 1 && g != 2 && g != 4 && g != 8) {
				return fmt.Errorf("bad LMUL %q (want m1/m2/m4/m8)", f)
			}
			m = g
		case strings.HasPrefix(f, "e"):
			if f != "e64" {
				return fmt.Errorf("unsupported element width %q (the engine models e64)", f)
			}
		default:
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("bad AVL %q", f)
			}
			avl = n
		}
	}
	if avl < 0 {
		return fmt.Errorf("vsetvli is missing the requested vector length")
	}
	if avl > m*imp.vlen {
		return fmt.Errorf("AVL %d exceeds LMUL x vlen = %d", avl, m*imp.vlen)
	}
	imp.avl, imp.lmul = avl, m
	// Install the first part's VL now, like hardware vsetvli does.
	first := avl
	if first > imp.vlen {
		first = imp.vlen
	}
	return imp.ensureVL(first)
}

// vectorInst lowers one (possibly grouped, possibly masked) vector
// instruction into engine instructions.
func (imp *rvvImporter) vectorInst(mnem string, op isa.Op, l rvvLine) error {
	in := isa.Inst{Op: op}
	regs := l.regs
	take := func(o *isa.Operand) error {
		if len(regs) == 0 {
			return fmt.Errorf("%s is missing a register operand", mnem)
		}
		*o = regs[0]
		regs = regs[1:]
		return nil
	}
	var err error
	switch op {
	case isa.OpVSqrt, isa.OpVShl, isa.OpVShr: // dst, src1
		err = errors.Join(take(&in.Dst), take(&in.Src1))
	case isa.OpVRedAdd: // s-dst, v-src
		err = errors.Join(take(&in.Dst), take(&in.Src1))
	case isa.OpVLoad, isa.OpVGather: // dst, [index,] base
		err = errors.Join(take(&in.Dst), take(&in.Src1))
		if op == isa.OpVGather { // (dst, index V, base A)
			err = errors.Join(err, take(&in.Src2))
		}
	case isa.OpVStore: // data, base
		err = errors.Join(take(&in.Src1), take(&in.Src2))
	case isa.OpVScatter: // data, index
		err = errors.Join(take(&in.Src1), take(&in.Src2))
	default: // dst, src1, src2 (vv and vf forms)
		err = errors.Join(take(&in.Dst), take(&in.Src1), take(&in.Src2))
	}
	if err != nil {
		return err
	}
	if len(regs) != 0 {
		return fmt.Errorf("%s has leftover operands", mnem)
	}

	// Memory shape: address requirement and stride discipline.
	isMem := isa.InfoPtr(op).Kind == isa.KindVectorMem
	indexed := op == isa.OpVGather || op == isa.OpVScatter
	var stride int64
	switch {
	case !isMem:
		if l.hasA {
			return fmt.Errorf("%s cannot take an address", mnem)
		}
		if len(l.nums) != 0 {
			return fmt.Errorf("%s has leftover operands", mnem)
		}
	case indexed:
		if len(l.nums) != 0 {
			return fmt.Errorf("%s cannot take a stride", mnem)
		}
	case mnem == "vlse64.v" || mnem == "vsse64.v":
		if len(l.nums) != 1 {
			return fmt.Errorf("%s wants an explicit byte stride", mnem)
		}
		stride = l.nums[0]
	default:
		if len(l.nums) != 0 {
			return fmt.Errorf("%s does not take a stride (use vlse64.v/vsse64.v)", mnem)
		}
		stride = isa.ElemBytes
	}
	if isMem && !l.hasA {
		return fmt.Errorf("%s needs an @0x... address", mnem)
	}

	// Resolve the grouping: logical group registers must be aligned and
	// the whole group must fit the encoding space.
	g := imp.lmul
	if g > 1 {
		for _, o := range [...]isa.Operand{in.Dst, in.Src1, in.Src2} {
			if o.Class != isa.ClassV {
				continue
			}
			if int64(o.Reg)%g != 0 {
				return fmt.Errorf("register v%d is not aligned to LMUL group m%d", o.Reg, g)
			}
			if int64(o.Reg)+g > isa.VRegLimit {
				return fmt.Errorf("group v%d..v%d exceeds the register space", o.Reg, int64(o.Reg)+g-1)
			}
		}
	}

	// Emit the parts. Part i covers elements [i*vlen, min((i+1)*vlen,
	// avl)); parts past the AVL are empty and emit nothing (RVV tail).
	avl := imp.avl
	if g == 1 && avl <= 0 {
		avl = imp.vl // ungrouped: the VL in force
	}
	for i := int64(0); i < g; i++ {
		partVL := avl - i*imp.vlen
		if partVL <= 0 {
			break
		}
		if partVL > imp.vlen {
			partVL = imp.vlen
		}
		if err := imp.ensureVL(partVL); err != nil {
			return err
		}
		if isMem && !indexed {
			if err := imp.ensureVS(stride); err != nil {
				return err
			}
		}
		part := in
		for _, o := range [...]*isa.Operand{&part.Dst, &part.Src1, &part.Src2} {
			if o.Class == isa.ClassV && g > 1 {
				o.Reg += uint8(i)
			}
		}
		// Masked ops without a vector destination (stores, reductions)
		// predicate the data register before the op; ops that write a
		// vector register merge the result after.
		if l.masked && part.Dst.Class != isa.ClassV {
			if err := imp.maskPart(&part, l.mask); err != nil {
				return err
			}
		}
		if err := imp.emit(part); err != nil {
			return err
		}
		if isMem {
			addr := l.addr
			if !indexed {
				addr += uint64(i * imp.vlen * stride)
			}
			imp.t.Addrs = append(imp.t.Addrs, addr)
		}
		if l.masked && part.Dst.Class == isa.ClassV {
			if err := imp.maskPart(&part, l.mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// maskPart lowers a masked instruction part onto the engine's
// predicated form: a vmerge of the written register with the mask (for
// stores, the merge conceptually gated the data register; the engine's
// timing sees the same extra FU1-class operation either way).
func (imp *rvvImporter) maskPart(part *isa.Inst, mask isa.Operand) error {
	dst := part.Dst
	if dst.Class != isa.ClassV {
		// Stores and reductions have no V destination; predicate the
		// data/source register instead.
		dst = part.Src1
	}
	if dst.Class != isa.ClassV {
		return fmt.Errorf("masked %s has no vector register to predicate", part.Op)
	}
	return imp.emit(isa.Inst{Op: isa.OpVMerge, Dst: dst, Src1: dst, Src2: mask})
}
