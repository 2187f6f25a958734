package oms

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refReadMetaBits and refWriteMetaBits read and write a metadata field
// one bit at a time, with one mem.Read (plus one mem.Write) per bit:
// the direct reading of the Figure 7 layout that the span-based
// readMetaBits/writeMetaBits must match byte for byte.
func refReadMetaBits(s *Store, base arch.PhysAddr, bitOff, width uint) uint32 {
	ppn, off := s.metaPPN(base)
	var v uint32
	for i := uint(0); i < width; i++ {
		bit := bitOff + i
		b := s.memory.Read(ppn, off+uint64(bit/8))
		v |= uint32(b>>(bit%8)&1) << i
	}
	return v
}

func refWriteMetaBits(s *Store, base arch.PhysAddr, bitOff, width uint, v uint32) {
	ppn, off := s.metaPPN(base)
	for i := uint(0); i < width; i++ {
		bit := bitOff + i
		byteOff := off + uint64(bit/8)
		b := s.memory.Read(ppn, byteOff)
		if v>>i&1 != 0 {
			b |= 1 << (bit % 8)
		} else {
			b &^= 1 << (bit % 8)
		}
		s.memory.Write(ppn, byteOff, b)
	}
}

type metaField struct{ bitOff, width uint }

// metaFields lists every field of the metadata line the store uses:
// 64 five-bit slot pointers at bit line*5, then the 32-bit free vector
// at bit 320.
func metaFields() []metaField {
	fs := make([]metaField, 0, arch.LinesPerPage+1)
	for line := 0; line < arch.LinesPerPage; line++ {
		fs = append(fs, metaField{uint(line) * 5, 5})
	}
	return append(fs, metaField{320, 32})
}

func metaLine(m *mem.Memory, base arch.PhysAddr) []byte {
	line := make([]byte, arch.LineSize)
	m.ReadSpan(arch.PPN(base.Page()), uint64(base)&arch.PageMask, line)
	return line
}

// TestMetaBitsMatchPerBitReference drives two stores with identical
// segments and random metadata lines through the same random field
// writes — one with the span helpers, one with the per-bit reference —
// and requires identical metadata bytes and identical field reads after
// every step.
func TestMetaBitsMatchPerBitReference(t *testing.T) {
	got, _, gotMem := newStore(t, 2, 16)
	want, _, wantMem := newStore(t, 2, 16)
	rng := rand.New(rand.NewSource(11))
	var bases []arch.PhysAddr
	for _, class := range []int{0, 0, 1, 2, 3, 0} {
		a, errA := got.AllocSegment(class)
		b, errB := want.AllocSegment(class)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("class %d: allocs diverged: %#x/%v vs %#x/%v", class, uint64(a), errA, uint64(b), errB)
		}
		noise := make([]byte, arch.LineSize)
		rng.Read(noise)
		ppn, off := got.metaPPN(a)
		gotMem.WriteSpan(ppn, off, noise)
		wantMem.WriteSpan(ppn, off, noise)
		bases = append(bases, a)
	}
	fields := metaFields()
	for step := 0; step < 5000; step++ {
		base := bases[rng.Intn(len(bases))]
		f := fields[rng.Intn(len(fields))]
		v := rng.Uint32() // bits above the field's width must be ignored
		got.writeMetaBits(base, f.bitOff, f.width, v)
		refWriteMetaBits(want, base, f.bitOff, f.width, v)
		if g, w := metaLine(gotMem, base), metaLine(wantMem, base); !bytes.Equal(g, w) {
			t.Fatalf("step %d: write bits [%d,+%d) = %#x at %#x:\n got  %x\n want %x",
				step, f.bitOff, f.width, v, uint64(base), g, w)
		}
		for _, rf := range fields {
			if g, w := got.readMetaBits(base, rf.bitOff, rf.width), refReadMetaBits(got, base, rf.bitOff, rf.width); g != w {
				t.Fatalf("step %d: read bits [%d,+%d) at %#x = %#x, reference %#x",
					step, rf.bitOff, rf.width, uint64(base), g, w)
			}
		}
	}
}

// TestMetaBitsCopyOnWriteMatchesReference checks the span helpers
// privatise a snapshot-shared frame exactly when the per-bit reference
// does: reads never copy, and the first write copies the frame even
// when it stores the value already there.
func TestMetaBitsCopyOnWriteMatchesReference(t *testing.T) {
	s, _, m := newStore(t, 1, 16)
	base, err := s.AllocSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	snap, msnap := s.Snapshot(), m.Snapshot()
	fork := func() (*Store, *mem.Memory) {
		fm := mem.NewFromSnapshot(msnap)
		var st sim.Stats
		fs, err := New(fm, &st, 0)
		if err != nil {
			t.Fatal(err)
		}
		fs.Restore(snap)
		return fs, fm
	}
	rng := rand.New(rand.NewSource(5))
	for _, f := range metaFields() {
		for _, same := range []bool{true, false} {
			got, gotMem := fork()
			want, wantMem := fork()
			v := rng.Uint32()
			if same {
				v = refReadMetaBits(want, base, f.bitOff, f.width)
			}
			got.readMetaBits(base, f.bitOff, f.width)
			refReadMetaBits(want, base, f.bitOff, f.width)
			if g, w := gotMem.BytesCopied(), wantMem.BytesCopied(); g != 0 || w != 0 {
				t.Fatalf("bits [%d,+%d): reads copied %d/%d bytes", f.bitOff, f.width, g, w)
			}
			for i := 0; i < 2; i++ {
				got.writeMetaBits(base, f.bitOff, f.width, v)
				refWriteMetaBits(want, base, f.bitOff, f.width, v)
				if g, w := gotMem.BytesCopied(), wantMem.BytesCopied(); g != w || w != arch.PageSize {
					t.Fatalf("bits [%d,+%d) write %d (same=%v): BytesCopied %d, reference %d",
						f.bitOff, f.width, i, same, g, w)
				}
			}
			if g, w := metaLine(gotMem, base), metaLine(wantMem, base); !bytes.Equal(g, w) {
				t.Fatalf("bits [%d,+%d): forks diverged:\n got  %x\n want %x", f.bitOff, f.width, g, w)
			}
		}
	}
	if m.BytesCopied() != 0 {
		t.Errorf("writes to forks copied %d bytes in the parent", m.BytesCopied())
	}
}
