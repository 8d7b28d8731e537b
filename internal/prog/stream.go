package prog

import (
	"fmt"

	"mtvec/internal/isa"
)

// Stream expands a static program into the dynamic instruction stream.
// It maintains the architectural vector-length and vector-stride
// registers: SetVL/SetVS instructions install values drawn from the
// VL/stride traces, and subsequent vector instructions execute under
// them, exactly as on the traced machine.
//
// A Stream walks the basic-block trace and indexes its program's static
// decode table, one StaticInst per PC, for every instruction. The values
// the instructions consume come either straight from a trace's four
// slices, read in place (NewReplayStream, the form every simulation
// uses), or from a TraceSource (NewStream, NewStreamVL: recording and
// tests). Both deliver the same sequence from the same values, and a
// malformed trace ends both at the same instruction with the same error.
//
// A Stream is single-use; create a new one to restart a program.
type Stream struct {
	prog   *Program
	static []StaticInst
	pcBase []uint32

	// src, when non-nil, supplies the dynamic values; otherwise they are
	// read in place from the four slices, each with its own cursor.
	src     TraceSource
	bbs     []int32
	vls     []int64
	strides []int64
	addrs   []uint64

	bi, vi, si, ai int

	pc, end uint32 // the current block's remaining PCs: [pc, end)

	vl    int64  // architectural vector length register
	vs    int64  // architectural vector stride register (bytes)
	maxVL int64  // hardware vector length: SetVL values clamp to it
	addr  uint64 // address of the current memory instruction

	count int64
	err   error
}

// NewStream creates a dynamic stream for p fed by src. The VL register
// resets to the hardware vector length (isa.MaxVL, the reference
// machine's) and the stride register to one element, the conventional
// initial state.
func NewStream(p *Program, src TraceSource) *Stream {
	return NewStreamVL(p, src, 0)
}

// NewStreamVL is NewStream for a machine whose vector registers hold
// maxVL elements: the VL register resets to maxVL and SetVL values clamp
// to it, exactly as the traced machine would have executed them. maxVL
// <= 0 selects the reference isa.MaxVL.
func NewStreamVL(p *Program, src TraceSource, maxVL int64) *Stream {
	s := newStream(p, maxVL)
	s.src = src
	return s
}

// NewReplayStream creates a stream replaying a captured trace of p in
// place: bbs, vls, strides and addrs are the basic-block, vector-length,
// stride and address traces, and maxVL is as for NewStreamVL. The slices
// are read, never written; one trace can back any number of concurrent
// streams.
func NewReplayStream(p *Program, bbs []int32, vls, strides []int64, addrs []uint64, maxVL int64) *Stream {
	s := newStream(p, maxVL)
	s.bbs, s.vls, s.strides, s.addrs = bbs, vls, strides, addrs
	return s
}

func newStream(p *Program, maxVL int64) *Stream {
	if maxVL <= 0 {
		maxVL = isa.MaxVL
	}
	p.layout()
	return &Stream{prog: p, static: p.static, pcBase: p.pcBase, vl: maxVL, maxVL: maxVL, vs: isa.ElemBytes}
}

// StaticInst is one PC's entry in its program's static decode table: the
// instruction, its PC and the dispatch-relevant decode of its opcode and
// vector source registers, computed once per PC so neither the stream
// nor the simulator recomputes them per dynamic instruction.
type StaticInst struct {
	isa.Inst
	PC    uint32
	Kind  isa.Kind // dispatch classification of Op
	FU1OK bool     // vector arithmetic may run on FU1
	Load  bool     // reads memory
	NVSrc uint8    // number of vector source registers
	VSrcs [2]uint8 // vector source registers (store data, indices)
}

// decode builds the static table entry of instruction in at pc.
func decode(in isa.Inst, pc uint32) StaticInst {
	info := isa.InfoPtr(in.Op)
	d := StaticInst{Inst: in, PC: pc, Kind: info.Kind, FU1OK: info.FU1OK, Load: info.Load}
	d.NVSrc = uint8(in.VSources(&d.VSrcs))
	return d
}

// DecodedInst is one dynamic instruction reduced to what the four trace
// streams contributed to it. Val is the Stride of a vector memory op or
// the SetVal of a SetVL/SetVS, and zero otherwise. Everything else about
// the instruction is its PC's StaticInst. The simulator never
// materializes these; see trace.Trace.Decoded.
type DecodedInst struct {
	PC   uint32
	VL   uint16
	Addr uint64
	Val  int64
}

// Count returns the number of dynamic instructions delivered so far.
func (s *Stream) Count() int64 { return s.count }

// Err returns the first error encountered (bad block index, a value
// trace that runs dry, a failing source). A stream that ends with
// Err() == nil ended normally.
func (s *Stream) Err() error {
	if s.err != nil || s.src == nil {
		return s.err
	}
	return s.src.Err()
}

// NextExec advances to the next instruction and returns its static
// entry together with the vector-length and stride registers it
// executes under — its VL when it is a vector instruction, and its
// Stride when it is a vector memory instruction — or a nil entry at end
// of trace. This is the simulator's accessor: the entry is shared, read
// only, and valid for the program's lifetime, so nothing is copied per
// instruction.
func (s *Stream) NextExec() (*StaticInst, uint16, int64) {
	return s.step(), uint16(s.vl), s.vs
}

// Next fills d with the next dynamic instruction, reporting false at end
// of trace. d is fully overwritten.
func (s *Stream) Next(d *isa.DynInst) bool {
	in := s.step()
	if in == nil {
		return false
	}
	*d = isa.DynInst{Inst: in.Inst, PC: in.PC}
	switch in.Kind {
	case isa.KindVLVS:
		d.SetVal = s.vs
		if in.Op == isa.OpSetVL {
			d.SetVal = s.vl
		}
	case isa.KindVector:
		d.VL = uint16(s.vl)
	case isa.KindVectorMem:
		d.VL, d.Stride, d.Addr = uint16(s.vl), s.vs, s.addr
	case isa.KindScalarMem:
		d.Addr = s.addr
	}
	return true
}

// step advances to the next instruction, drawing the values it
// consumes, and returns its static entry, or nil at end of trace. An
// in-place address read, the per-instruction common case, is inline.
func (s *Stream) step() *StaticInst {
	if s.pc >= s.end && !s.nextBlock() {
		return nil
	}
	in := &s.static[s.pc]
	s.pc++
	s.count++
	switch in.Kind {
	case isa.KindVectorMem, isa.KindScalarMem:
		if s.ai < len(s.addrs) {
			s.addr = s.addrs[s.ai]
			s.ai++
		} else {
			s.addr = s.nextAddr()
		}
	case isa.KindVLVS:
		if in.Op == isa.OpSetVL {
			s.vl = min(max(s.nextVL(), 1), s.maxVL)
		} else {
			s.vs = s.nextStride()
		}
	}
	return in
}

// nextBlock positions the stream at the first instruction of the next
// non-empty traced block, reporting false at end of trace. A value trace
// that ran dry ends the stream here, at the block boundary, as a failing
// TraceSource ends its basic-block trace.
func (s *Stream) nextBlock() bool {
	for s.pc >= s.end {
		if s.err != nil {
			return false
		}
		var bb int
		if s.src != nil {
			b, ok := s.src.NextBB()
			if !ok {
				return false
			}
			bb = b
		} else {
			if s.bi >= len(s.bbs) {
				return false
			}
			bb = int(s.bbs[s.bi])
			s.bi++
		}
		if bb < 0 || bb >= len(s.prog.Blocks) {
			s.err = fmt.Errorf("prog: %s: trace names block %d of %d", s.prog.Name, bb, len(s.prog.Blocks))
			return false
		}
		s.pc, s.end = s.pcBase[bb], s.pcBase[bb+1]
	}
	return true
}

func (s *Stream) nextVL() int64 {
	if s.src != nil {
		return s.src.NextVL()
	}
	if s.vi >= len(s.vls) {
		s.fail("vector-length")
		return 1
	}
	s.vi++
	return s.vls[s.vi-1]
}

func (s *Stream) nextStride() int64 {
	if s.src != nil {
		return s.src.NextStride()
	}
	if s.si >= len(s.strides) {
		s.fail("stride")
		return 0
	}
	s.si++
	return s.strides[s.si-1]
}

// nextAddr is step's slow path for an address: a source-driven read,
// or an in-place address trace that has run dry.
func (s *Stream) nextAddr() uint64 {
	if s.src != nil {
		return s.src.NextAddr()
	}
	s.fail("address")
	return 0
}

func (s *Stream) fail(stream string) {
	if s.err == nil {
		s.err = exhausted(stream)
	}
}

// exhausted is the error of a value trace that runs dry before the
// basic-block trace does.
func exhausted(stream string) error {
	return fmt.Errorf("prog: %s trace exhausted before basic-block trace", stream)
}

// Drain consumes the rest of the stream, returning the number of dynamic
// instructions seen and accumulated statistics.
func (s *Stream) Drain() (int64, Stats, error) {
	var st Stats
	var d isa.DynInst
	var n int64
	for s.Next(&d) {
		st.Add(&d)
		n++
	}
	return n, st, s.Err()
}
