package prog

import (
	"fmt"

	"mtvec/internal/isa"
)

// Stream expands a static program against a TraceSource into the dynamic
// instruction stream. It maintains the architectural vector-length and
// vector-stride registers: SetVL/SetVS instructions install values drawn
// from the VL/stride traces, and subsequent vector instructions execute
// under them, exactly as on the traced machine.
//
// A Stream is single-use; create a new one (with a fresh TraceSource) to
// restart a program.
//
// A Stream has two replay modes: expanding a static program against a
// TraceSource instruction by instruction (NewStream), or indexing a
// predecoded record slice (NewDecodedStream) — the hot-path form
// trace.Trace caches so repeated replays skip the per-instruction
// expansion. A predecoded replay expands each 24-byte record against the
// program's static decode table into a stream-owned InstView. Both modes
// deliver bit-identical DynInst sequences.
type Stream struct {
	prog *Program
	src  TraceSource

	// dec, when non-nil, selects the predecoded replay mode: Next and
	// NextDec expand successive records against static instead of
	// expanding the program.
	dec    []DecodedInst
	di     int
	static []InstView

	// buf backs NextDec in both modes.
	buf InstView

	vl    int64 // architectural vector length register
	vs    int64 // architectural vector stride register (bytes)
	maxVL int64 // hardware vector length: SetVL values clamp to it

	bb    int
	idx   int
	inBB  bool
	count int64

	// Current-block cache: insts and pcBase mirror Blocks[bb] so the
	// per-instruction path needs no repeated double indexing.
	insts  []isa.Inst
	pcBase uint32

	err error
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
	if maxVL <= 0 {
		maxVL = isa.MaxVL
	}
	return &Stream{prog: p, src: src, vl: maxVL, maxVL: maxVL, vs: isa.ElemBytes}
}

// DecodedInst is the dynamic half of one predecoded instruction: what
// the four trace streams contributed to it. Val is the Stride of a
// vector memory op or the SetVal of a SetVL/SetVS, and zero otherwise.
// Everything else about the instruction is fixed per PC and lives once
// in its program's static decode table, so a predecoded trace costs 24
// bytes per dynamic instruction. The struct is pointer-free, so
// predecoded traces cost the garbage collector nothing to scan.
type DecodedInst struct {
	PC   uint32
	VL   uint16
	Addr uint64
	Val  int64
}

// InstView is a dynamic instruction plus its precomputed static decode:
// the dispatch-relevant opcode properties and the vector source
// registers. Simulators consume these via Stream.NextDec without
// recomputing either per dispatch.
type InstView struct {
	isa.DynInst
	Kind  isa.Kind // dispatch classification of Op
	FU1OK bool     // vector arithmetic may run on FU1
	Load  bool     // reads memory
	NVSrc uint8    // number of vector source registers
	VSrcs [2]uint8 // vector source registers (store data, indices)
}

// decodeAux fills the precomputed decode fields from the DynInst. It
// zeroes the unused VSrcs slots so views are canonical values even when
// the receiver is a reused buffer (NextDec): two equal dynamic
// instructions always decode to byte-equal InstViews.
func (d *InstView) decodeAux() {
	info := isa.InfoPtr(d.Op)
	d.Kind = info.Kind
	d.FU1OK = info.FU1OK
	d.Load = info.Load
	d.VSrcs = [2]uint8{}
	d.NVSrc = uint8(d.Inst.VSources(&d.VSrcs))
}

// NewDecodedStream creates a stream replaying a predecoded record
// sequence of p (as produced by DecodeAllVL). The slice is read, never
// written; one slice can back any number of concurrent streams.
func NewDecodedStream(p *Program, insts []DecodedInst) *Stream {
	p.layout()
	return &Stream{prog: p, dec: insts, static: p.static}
}

// DecodeAllVL drains a fresh source-driven stream of p at the given
// hardware vector length (see NewStreamVL; maxVL <= 0 selects the
// reference isa.MaxVL) into a predecoded record slice of capacity hint
// n. It returns the slice and the stream's terminal error, if any.
func DecodeAllVL(p *Program, src TraceSource, n, maxVL int64) ([]DecodedInst, error) {
	if n < 0 {
		n = 0
	}
	dec := make([]DecodedInst, 0, n)
	s := NewStreamVL(p, src, maxVL)
	var d isa.DynInst
	for s.Next(&d) {
		r := DecodedInst{PC: d.PC, VL: d.VL, Addr: d.Addr}
		switch isa.KindOf(d.Op) {
		case isa.KindVLVS:
			r.Val = d.SetVal
		case isa.KindVectorMem:
			r.Val = d.Stride
		}
		dec = append(dec, r)
	}
	return dec, s.Err()
}

// expand fills buf with record r joined to its PC's static view.
func (s *Stream) expand(r *DecodedInst) {
	s.buf = s.static[r.PC]
	s.buf.VL, s.buf.Addr = r.VL, r.Addr
	switch s.buf.Kind {
	case isa.KindVLVS:
		s.buf.SetVal = r.Val
	case isa.KindVectorMem:
		s.buf.Stride = r.Val
	}
}

// Program returns the static program this stream expands.
func (s *Stream) Program() *Program { return s.prog }

// Count returns the number of dynamic instructions delivered so far.
func (s *Stream) Count() int64 { return s.count }

// Err returns the first error encountered (bad block index, failing
// source). A stream that ends with Err() == nil ended normally.
func (s *Stream) Err() error {
	if s.err != nil {
		return s.err
	}
	if s.src == nil {
		return nil
	}
	return s.src.Err()
}

// NextDec returns the next instruction with its precomputed decode, or
// nil at end of trace. The returned view lives in a buffer the stream
// owns and is valid until the following Next or NextDec call. Callers
// must not mutate it.
func (s *Stream) NextDec() *InstView {
	if s.dec != nil {
		if s.di >= len(s.dec) {
			return nil
		}
		s.expand(&s.dec[s.di])
		s.di++
		s.count++
		return &s.buf
	}
	if !s.Next(&s.buf.DynInst) {
		return nil
	}
	s.buf.decodeAux()
	return &s.buf
}

// Next fills d with the next dynamic instruction, reporting false at end
// of trace. d is fully overwritten.
func (s *Stream) Next(d *isa.DynInst) bool {
	if s.dec != nil {
		if s.di >= len(s.dec) {
			return false
		}
		s.expand(&s.dec[s.di])
		*d = s.buf.DynInst
		s.di++
		s.count++
		return true
	}
	if s.err != nil {
		return false
	}
	for !s.inBB || s.idx >= len(s.insts) {
		bb, ok := s.src.NextBB()
		if !ok {
			return false
		}
		if bb < 0 || bb >= len(s.prog.Blocks) {
			s.err = fmt.Errorf("prog: %s: trace names block %d of %d", s.prog.Name, bb, len(s.prog.Blocks))
			return false
		}
		s.bb, s.idx, s.inBB = bb, 0, true
		s.insts = s.prog.Blocks[bb].Insts
		s.pcBase = s.prog.PCBase(bb)
	}

	in := s.insts[s.idx]
	*d = isa.DynInst{Inst: in, PC: s.pcBase + uint32(s.idx)}
	s.idx++
	s.count++

	switch isa.KindOf(in.Op) {
	case isa.KindVLVS:
		if in.Op == isa.OpSetVL {
			v := s.src.NextVL()
			if v < 1 {
				v = 1
			}
			if v > s.maxVL {
				v = s.maxVL
			}
			s.vl = v
			d.SetVal = s.vl
		} else {
			s.vs = s.src.NextStride()
			d.SetVal = s.vs
		}
	case isa.KindVector:
		d.VL = uint16(s.vl)
	case isa.KindVectorMem:
		d.VL = uint16(s.vl)
		d.Stride = s.vs
		d.Addr = s.src.NextAddr()
	case isa.KindScalarMem:
		d.Addr = s.src.NextAddr()
	}
	return true
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
