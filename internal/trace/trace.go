// Package trace is the repository's analogue of the paper's Dixie trace
// system (Section 4.1). A trace file carries a static program together
// with the four dynamic streams Dixie produced on the Convex C3480: the
// basic-block trace, the vector-length trace, the vector-stride trace and
// the memory-address trace. Replaying a trace through prog.Stream
// reconstitutes the exact dynamic instruction stream.
//
// The on-disk format is a versioned, CRC-protected varint encoding.
// Traces at the default reproduction scale are small enough to hold in
// memory, so the API is load/store of a whole Trace value.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"mtvec/internal/isa"
	"mtvec/internal/prog"
)

// Trace is a fully-captured execution of a static program. Its streams
// are the only copy of the dynamic instruction sequence: every replay
// reads them in place (see Stream). Do not mutate a Trace's fields, or
// its program, after streams have been created from it.
type Trace struct {
	Prog    *prog.Program
	BBs     []int32
	VLs     []int64
	Strides []int64
	Addrs   []uint64

	// MaxVL is the hardware vector length of the machine the trace was
	// generated for: replays reset the VL register to it and clamp SetVL
	// values against it. 0 means the reference isa.MaxVL. The field is
	// runtime-only (the on-disk format does not carry it; decoded traces
	// replay at the reference length).
	MaxVL int64
}

// Stream returns a dynamic instruction stream replaying the trace in
// place: it walks BBs over the program's static decode table and reads
// VLs, Strides and Addrs where they lie, so a replay allocates only the
// stream itself, however long the trace. Each call returns an
// independent replay positioned at the beginning; any number may run
// concurrently.
func (t *Trace) Stream() *prog.Stream {
	return prog.NewReplayStream(t.Prog, t.BBs, t.VLs, t.Strides, t.Addrs, t.MaxVL)
}

// Decoded materializes the trace as one prog.DecodedInst per dynamic
// instruction, or returns nil when the trace does not replay cleanly.
// It builds a fresh slice on every call and caches nothing; the
// simulator replays through Stream and never calls it.
func (t *Trace) Decoded() []prog.DecodedInst {
	var dec []prog.DecodedInst
	s := t.Stream()
	var d isa.DynInst
	for s.Next(&d) {
		r := prog.DecodedInst{PC: d.PC, VL: d.VL, Addr: d.Addr}
		switch isa.KindOf(d.Op) {
		case isa.KindVLVS:
			r.Val = d.SetVal
		case isa.KindVectorMem:
			r.Val = d.Stride
		}
		dec = append(dec, r)
	}
	if s.Err() != nil {
		return nil
	}
	return dec
}

// Record captures program p driven by src, returning the captured trace.
// This is the instrumentation step of the Dixie flow: run once, keep the
// four streams. With maxInsts > 0 recording stops at the first block
// boundary at or after maxInsts dynamic instructions, so the trace holds
// every value its blocks consume.
func Record(p *prog.Program, src prog.TraceSource, maxInsts int64) (*Trace, error) {
	rec := &recorder{src: src, t: &Trace{Prog: p}, max: maxInsts}
	rec.s = prog.NewStream(p, rec)
	var d isa.DynInst
	for rec.s.Next(&d) {
	}
	if err := rec.s.Err(); err != nil {
		return nil, err
	}
	return rec.t, nil
}

// recorder forwards a TraceSource while appending every value drawn to
// the trace under construction. It ends the block trace once the stream
// it feeds, s, has delivered max instructions.
type recorder struct {
	src prog.TraceSource
	t   *Trace
	s   *prog.Stream
	max int64
}

func (r *recorder) NextBB() (int, bool) {
	if r.max > 0 && r.s.Count() >= r.max {
		return 0, false
	}
	b, ok := r.src.NextBB()
	if ok {
		r.t.BBs = append(r.t.BBs, int32(b))
	}
	return b, ok
}

func (r *recorder) NextVL() int64 {
	v := r.src.NextVL()
	r.t.VLs = append(r.t.VLs, v)
	return v
}

func (r *recorder) NextStride() int64 {
	v := r.src.NextStride()
	r.t.Strides = append(r.t.Strides, v)
	return v
}

func (r *recorder) NextAddr() uint64 {
	v := r.src.NextAddr()
	r.t.Addrs = append(r.t.Addrs, v)
	return v
}

func (r *recorder) Err() error { return r.src.Err() }

// --- binary format ---

const (
	magic   = "MTVT"
	version = 1
)

// crcWriter hashes everything written through it.
type crcWriter struct{ sum uint32 }

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	return len(p), nil
}

// Encode writes the trace in the versioned binary format: header, program
// section, four delta/varint-encoded stream sections, CRC-32 trailer.
func (t *Trace) Encode(w io.Writer) error {
	var crc crcWriter
	if err := t.encodeBody(io.MultiWriter(w, &crc)); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.sum)
	_, err := w.Write(sum[:])
	return err
}

func (t *Trace) encodeBody(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var buf []byte
	putUvarint := func(v uint64) { buf = binary.AppendUvarint(buf[:0], v); bw.Write(buf) }
	putVarint := func(v int64) { buf = binary.AppendVarint(buf[:0], v); bw.Write(buf) }
	putString := func(s string) { putUvarint(uint64(len(s))); bw.WriteString(s) }

	putString(t.Prog.Name)
	putUvarint(uint64(len(t.Prog.Blocks)))
	for _, b := range t.Prog.Blocks {
		putString(b.Label)
		putUvarint(uint64(len(b.Insts)))
		for _, in := range b.Insts {
			buf = isa.AppendInst(buf[:0], in)
			bw.Write(buf)
		}
	}

	// Basic blocks and addresses delta-encode: deltas are small for
	// loops and array walks.
	putUvarint(uint64(len(t.BBs)))
	prev := int64(0)
	for _, b := range t.BBs {
		putVarint(int64(b) - prev)
		prev = int64(b)
	}
	putUvarint(uint64(len(t.VLs)))
	for _, v := range t.VLs {
		putVarint(v)
	}
	putUvarint(uint64(len(t.Strides)))
	for _, v := range t.Strides {
		putVarint(v)
	}
	putUvarint(uint64(len(t.Addrs)))
	prevA := uint64(0)
	for _, a := range t.Addrs {
		putVarint(int64(a - prevA))
		prevA = a
	}
	return bw.Flush()
}

// Decode reads a trace previously written by Encode, verifying the
// checksum and validating the embedded program.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)

	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:4])
	}
	if head[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[4])
	}

	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	getVarint := func() (int64, error) { return binary.ReadVarint(br) }
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	t := &Trace{Prog: &prog.Program{}}
	var err error
	if t.Prog.Name, err = getString(); err != nil {
		return nil, fmt.Errorf("trace: program name: %w", err)
	}
	nb, err := getUvarint()
	if err != nil || nb > 1<<20 {
		return nil, fmt.Errorf("trace: block count: %w", err)
	}
	instBuf := make([]byte, 0, 32)
	for i := uint64(0); i < nb; i++ {
		var b prog.BasicBlock
		if b.Label, err = getString(); err != nil {
			return nil, fmt.Errorf("trace: block label: %w", err)
		}
		ni, err := getUvarint()
		if err != nil || ni > 1<<24 {
			return nil, fmt.Errorf("trace: inst count: %w", err)
		}
		for j := uint64(0); j < ni; j++ {
			in, err := readInst(br, &instBuf)
			if err != nil {
				return nil, fmt.Errorf("trace: block %d inst %d: %w", i, j, err)
			}
			b.Insts = append(b.Insts, in)
		}
		t.Prog.Blocks = append(t.Prog.Blocks, b)
	}

	readCount := func(what string) (uint64, error) {
		n, err := getUvarint()
		if err != nil {
			return 0, fmt.Errorf("trace: %s count: %w", what, err)
		}
		if n > 1<<32 {
			return 0, fmt.Errorf("trace: unreasonable %s count %d", what, n)
		}
		return n, nil
	}

	n, err := readCount("basic-block")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		t.BBs = make([]int32, n)
	}
	prev := int64(0)
	for i := range t.BBs {
		d, err := getVarint()
		if err != nil {
			return nil, fmt.Errorf("trace: bb %d: %w", i, err)
		}
		prev += d
		t.BBs[i] = int32(prev)
	}

	if n, err = readCount("vector-length"); err != nil {
		return nil, err
	}
	if n > 0 {
		t.VLs = make([]int64, n)
	}
	for i := range t.VLs {
		if t.VLs[i], err = getVarint(); err != nil {
			return nil, fmt.Errorf("trace: vl %d: %w", i, err)
		}
	}

	if n, err = readCount("stride"); err != nil {
		return nil, err
	}
	if n > 0 {
		t.Strides = make([]int64, n)
	}
	for i := range t.Strides {
		if t.Strides[i], err = getVarint(); err != nil {
			return nil, fmt.Errorf("trace: stride %d: %w", i, err)
		}
	}

	if n, err = readCount("address"); err != nil {
		return nil, err
	}
	if n > 0 {
		t.Addrs = make([]uint64, n)
	}
	prevA := uint64(0)
	for i := range t.Addrs {
		d, err := getVarint()
		if err != nil {
			return nil, fmt.Errorf("trace: addr %d: %w", i, err)
		}
		prevA += uint64(d)
		t.Addrs[i] = prevA
	}

	var want [4]byte
	if _, err := io.ReadFull(br, want[:]); err != nil {
		return nil, fmt.Errorf("trace: reading checksum: %w", err)
	}
	// Recompute the payload checksum by re-encoding the decoded value;
	// any corruption that survived the structural checks surfaces here.
	var crc crcWriter
	if err := t.encodeBody(&crc); err != nil {
		return nil, err
	}
	if crc.sum != binary.LittleEndian.Uint32(want[:]) {
		return nil, fmt.Errorf("trace: checksum mismatch (corrupt trace)")
	}
	if err := t.Prog.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func readInst(br *bufio.Reader, buf *[]byte) (isa.Inst, error) {
	// Instructions are variable length: a fixed 7-byte head followed by
	// a varint immediate.
	b := (*buf)[:0]
	for i := 0; i < 7; i++ {
		c, err := br.ReadByte()
		if err != nil {
			return isa.Inst{}, err
		}
		b = append(b, c)
	}
	for {
		c, err := br.ReadByte()
		if err != nil {
			return isa.Inst{}, err
		}
		b = append(b, c)
		if c&0x80 == 0 {
			break
		}
	}
	*buf = b
	in, _, err := isa.DecodeInst(b)
	return in, err
}
