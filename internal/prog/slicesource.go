package prog

// SliceSource is a TraceSource backed by in-memory slices: the
// reference source tests drive source-driven streams with, and the
// oracle the in-place replay of NewReplayStream is checked against.
type SliceSource struct {
	BBs     []int
	VLs     []int64
	Strides []int64
	Addrs   []uint64

	bi, vi, si, ai int
	err            error
}

// NextBB implements TraceSource.
func (s *SliceSource) NextBB() (int, bool) {
	if s.err != nil || s.bi >= len(s.BBs) {
		return 0, false
	}
	b := s.BBs[s.bi]
	s.bi++
	return b, true
}

// NextVL implements TraceSource.
func (s *SliceSource) NextVL() int64 {
	if s.vi >= len(s.VLs) {
		s.fail("vector-length")
		return 1
	}
	v := s.VLs[s.vi]
	s.vi++
	return v
}

// NextStride implements TraceSource.
func (s *SliceSource) NextStride() int64 {
	if s.si >= len(s.Strides) {
		s.fail("stride")
		return 0
	}
	v := s.Strides[s.si]
	s.si++
	return v
}

// NextAddr implements TraceSource.
func (s *SliceSource) NextAddr() uint64 {
	if s.ai >= len(s.Addrs) {
		s.fail("address")
		return 0
	}
	v := s.Addrs[s.ai]
	s.ai++
	return v
}

func (s *SliceSource) fail(stream string) {
	if s.err == nil {
		s.err = exhausted(stream)
	}
}

// Err implements TraceSource.
func (s *SliceSource) Err() error { return s.err }
