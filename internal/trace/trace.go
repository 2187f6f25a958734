// Package trace provides a compact binary record/replay format for
// simulator instruction streams. Recording a workload's trace decouples
// generation from simulation — the same byte-identical stream can be
// replayed across configuration sweeps (the ablation benches) or shipped
// to another machine, the role SimPoint traces play for the paper's
// simulator.
//
// Format: a 8-byte magic+version header, then one varint-encoded record
// per instruction:
//
//	kind     uvarint (cpu.Kind)
//	payload  Compute → N as uvarint
//	         Load/Store/LoadOverlay → VA delta from the previous VA,
//	         zig-zag varint (address streams are local, so deltas stay
//	         short)
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/cpu"
)

// magic identifies the stream and pins the format version.
var magic = [8]byte{'P', 'O', 'T', 'R', 'A', 'C', 'E', '1'}

// Writer encodes instructions to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	lastVA arch.VirtAddr
	count  uint64
	err    error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Append encodes one instruction.
func (t *Writer) Append(in cpu.Instr) error {
	if t.err != nil {
		return t.err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(in.Kind))
	switch in.Kind {
	case cpu.Compute:
		v := in.N
		if v < 1 {
			v = 1
		}
		n += binary.PutUvarint(buf[n:], uint64(v))
	case cpu.Load, cpu.Store, cpu.LoadOverlay:
		delta := int64(in.VA) - int64(t.lastVA)
		n += binary.PutVarint(buf[n:], delta)
		t.lastVA = in.VA
	default:
		return fmt.Errorf("trace: unknown kind %d", in.Kind)
	}
	if _, err := t.w.Write(buf[:n]); err != nil {
		t.err = fmt.Errorf("trace: write: %w", err)
		return t.err
	}
	t.count++
	return nil
}

// Count returns the number of records appended.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains buffered records to the underlying writer.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Record drains up to limit instructions (0 = all) from src into w.
func Record(w io.Writer, src cpu.Trace, limit uint64) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	for limit == 0 || tw.Count() < limit {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Append(in); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

// Reader decodes a recorded stream; it implements cpu.Trace. A trace
// file is untrusted input: a burst of no instructions (or more than an
// int holds) and a VA at or above 2^arch.VirtBits are decoding errors.
type Reader struct {
	r      *bufio.Reader
	lastVA arch.VirtAddr
	count  uint64
	err    error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if hdr != magic {
		return nil, errors.New("trace: bad magic (not a POTRACE1 stream)")
	}
	return &Reader{r: br}, nil
}

// Next implements cpu.Trace. The stream ends at EOF; decoding errors are
// surfaced through Err.
func (t *Reader) Next() (cpu.Instr, bool) {
	if t.err != nil {
		return cpu.Instr{}, false
	}
	kind, err := binary.ReadUvarint(t.r)
	if err == io.EOF {
		return cpu.Instr{}, false
	}
	if err != nil {
		return t.fail("kind: %w", err)
	}
	in := cpu.Instr{Kind: cpu.Kind(kind)}
	switch in.Kind {
	case cpu.Compute:
		n, err := binary.ReadUvarint(t.r)
		if err != nil {
			return t.fail("burst: %w", err)
		}
		if in.N = int(n); in.N <= 0 {
			return t.fail("burst of %d instructions", n)
		}
	case cpu.Load, cpu.Store, cpu.LoadOverlay:
		delta, err := binary.ReadVarint(t.r)
		if err != nil {
			return t.fail("delta: %w", err)
		}
		in.VA = arch.VirtAddr(int64(t.lastVA) + delta)
		if !in.VA.Canonical() {
			return t.fail("va %#x is at or above 2^%d", uint64(in.VA), arch.VirtBits)
		}
		t.lastVA = in.VA
	default:
		return t.fail("unknown kind %d", kind)
	}
	t.count++
	return in, true
}

// fail ends the stream with a decoding error naming the record.
func (t *Reader) fail(format string, args ...any) (cpu.Instr, bool) {
	t.err = fmt.Errorf("trace: record %d: %w", t.count, fmt.Errorf(format, args...))
	return cpu.Instr{}, false
}

// Count returns the number of records decoded so far.
func (t *Reader) Count() uint64 { return t.count }

// Err reports a decoding failure, if any (EOF is not an error).
func (t *Reader) Err() error { return t.err }
