package prefetch

import "unsafe"

// Snapshot support: the stream table and its LRU clock are plain
// values; capturing them is a slice copy.

// Snapshot is an immutable capture of the prefetcher's training state.
type Snapshot struct {
	streams []stream
	clock   uint64
}

// Bytes returns the bytes the capture holds.
func (s *Snapshot) Bytes() int {
	return int(unsafe.Sizeof(*s)) + len(s.streams)*int(unsafe.Sizeof(stream{}))
}

// Snapshot captures the stream table.
func (p *Prefetcher) Snapshot() *Snapshot {
	return &Snapshot{streams: append([]stream(nil), p.streams...), clock: p.clock}
}

// Restore loads the captured streams into this prefetcher, which must
// have the same stream count.
func (p *Prefetcher) Restore(s *Snapshot) {
	if len(s.streams) != len(p.streams) {
		panic("prefetch: restore stream-count mismatch")
	}
	copy(p.streams, s.streams)
	p.clock = s.clock
}
