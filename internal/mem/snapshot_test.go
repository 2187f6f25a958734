package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

func TestSnapshotForkSharesUntilWrite(t *testing.T) {
	m := New(8)
	ppn, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	m.Write(ppn, 0, 0xAA)

	snap := m.Snapshot()
	fork := NewFromSnapshot(snap)

	if got := fork.Read(ppn, 0); got != 0xAA {
		t.Fatalf("fork reads %#x, want 0xAA", got)
	}
	if fork.BytesCopied() != 0 {
		t.Fatalf("reading materialised %d bytes, want 0", fork.BytesCopied())
	}
	if fork.AllocatedPages() != m.AllocatedPages() || fork.TotalPages() != m.TotalPages() {
		t.Fatal("fork allocator state diverges from parent")
	}

	// First write privatises exactly one frame; parent is untouched.
	fork.Write(ppn, 1, 0xBB)
	if fork.BytesCopied() != arch.PageSize {
		t.Fatalf("BytesCopied = %d, want %d", fork.BytesCopied(), arch.PageSize)
	}
	if got := m.Read(ppn, 1); got != 0 {
		t.Fatalf("fork write leaked into parent: %#x", got)
	}
	if got := fork.Read(ppn, 0); got != 0xAA {
		t.Fatalf("privatised frame lost shared contents: %#x", got)
	}

	// Subsequent writes to the same frame copy nothing more.
	fork.Write(ppn, 2, 0xCC)
	if fork.BytesCopied() != arch.PageSize {
		t.Fatalf("second write re-copied: BytesCopied = %d", fork.BytesCopied())
	}
}

func TestSnapshotImmutableUnderParentWrites(t *testing.T) {
	m := New(8)
	ppn, _ := m.Alloc()
	m.Write(ppn, 0, 1)

	snap := m.Snapshot()
	// The parent keeps running: its own frames turned copy-on-write at
	// capture, so this write must privatise, not mutate the shared array.
	m.Write(ppn, 0, 2)
	if m.BytesCopied() != arch.PageSize {
		t.Fatalf("parent write after snapshot copied %d bytes, want %d", m.BytesCopied(), arch.PageSize)
	}

	fork := NewFromSnapshot(snap)
	if got := fork.Read(ppn, 0); got != 1 {
		t.Fatalf("late fork sees parent's post-snapshot write: %d", got)
	}
}

func TestForksOfOneSnapshotAreIndependent(t *testing.T) {
	m := New(8)
	ppn, _ := m.Alloc()
	m.Write(ppn, 0, 7)
	snap := m.Snapshot()

	a, b := NewFromSnapshot(snap), NewFromSnapshot(snap)
	a.Write(ppn, 0, 8)
	if got := b.Read(ppn, 0); got != 7 {
		t.Fatalf("sibling fork sees the other's write: %d", got)
	}
	b.Write(ppn, 0, 9)
	if got := a.Read(ppn, 0); got != 8 {
		t.Fatalf("fork lost its own write: %d", got)
	}
}

func TestAllocRecycleClearsSharedBit(t *testing.T) {
	m := New(8)
	ppn, _ := m.Alloc()
	m.Write(ppn, 0, 5)
	snap := m.Snapshot()

	fork := NewFromSnapshot(snap)
	fork.Free(ppn)
	re, err := fork.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if re != ppn {
		t.Fatalf("free list recycled %d, want %d", re, ppn)
	}
	// The recycled frame reads as zero and writing it must not copy the
	// old shared contents (the pointer was replaced, not the array).
	if got := fork.Read(re, 0); got != 0 {
		t.Fatalf("recycled frame not zeroed: %d", got)
	}
	fork.Write(re, 0, 6)
	if fork.BytesCopied() != 0 {
		t.Fatalf("write to recycled frame copied %d bytes, want 0", fork.BytesCopied())
	}
	// The snapshot's view is unharmed.
	if got := NewFromSnapshot(snap).Read(ppn, 0); got != 5 {
		t.Fatalf("recycling mutated the snapshot: %d", got)
	}
}

// refMemory is main memory as this package kept it before its tables
// grew with use: the frame and allocation tables sized to totalPages up
// front. TestForkedMemoryMatchesReference checks the package against it.
type refMemory struct {
	frames    []*[arch.PageSize]byte
	allocated []bool
	freeList  []arch.PPN
	nextFree  arch.PPN
	count     int
}

func newRefMemory(totalPages int) *refMemory {
	r := &refMemory{
		frames:    make([]*[arch.PageSize]byte, totalPages),
		allocated: make([]bool, totalPages),
		nextFree:  1,
		count:     1,
	}
	r.allocated[ZeroPPN] = true
	return r
}

func (r *refMemory) alloc() (arch.PPN, bool) {
	if n := len(r.freeList); n > 0 {
		ppn := r.freeList[n-1]
		r.freeList = r.freeList[:n-1]
		r.allocated[ppn], r.frames[ppn] = true, nil
		r.count++
		return ppn, true
	}
	if int(r.nextFree) >= len(r.frames) {
		return 0, false
	}
	ppn := r.nextFree
	r.nextFree++
	r.allocated[ppn] = true
	r.count++
	return ppn, true
}

func (r *refMemory) free(ppn arch.PPN) {
	r.allocated[ppn] = false
	r.count--
	r.freeList = append(r.freeList, ppn)
}

func (r *refMemory) write64(ppn arch.PPN, off, v uint64) {
	if r.frames[ppn] == nil {
		r.frames[ppn] = new([arch.PageSize]byte)
	}
	for i := uint64(0); i < 8; i++ {
		r.frames[ppn][off+i] = byte(v >> (8 * i))
	}
}

func (r *refMemory) read64(ppn arch.PPN, off uint64) uint64 {
	var v uint64
	if f := r.frames[ppn]; f != nil {
		for i := uint64(0); i < 8; i++ {
			v |= uint64(f[off+i]) << (8 * i)
		}
	}
	return v
}

func (r *refMemory) copyPage(dst, src arch.PPN) {
	if r.frames[src] == nil {
		r.frames[dst] = nil
		return
	}
	c := *r.frames[src]
	r.frames[dst] = &c
}

// sameMemory compares every frame's contents and the allocator counts.
func sameMemory(m *Memory, r *refMemory) error {
	if m.AllocatedPages() != r.count || m.FreePages() != len(r.frames)-r.count {
		return fmt.Errorf("allocated %d free %d, want %d and %d", m.AllocatedPages(), m.FreePages(), r.count, len(r.frames)-r.count)
	}
	var got, want [arch.PageSize]byte
	for ppn := range r.frames {
		m.ReadSpan(arch.PPN(ppn), 0, got[:])
		want = [arch.PageSize]byte{}
		if f := r.frames[ppn]; f != nil {
			want = *f
		}
		if got != want {
			return fmt.Errorf("frame %d differs", ppn)
		}
	}
	return nil
}

// TestForkedMemoryMatchesReference checks that a capture holding only
// the materialised frames and the allocation bitmap is exact, and that
// tables grown with use behave as tables sized to capacity. A seeded mix
// of allocs, frees, writes, reads and page copies runs against the
// reference, on frames below and above the allocation high-water mark;
// at random points the memory is captured and a fork of it carries on.
// Every call must return what the reference returns, up to running out
// of memory at the same allocation.
func TestForkedMemoryMatchesReference(t *testing.T) {
	const pages, steps = 96, 6000
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m, r := New(pages), newRefMemory(pages)
			rng := rand.New(rand.NewSource(seed))
			forks, ooms := 0, 0
			for i := 0; i < steps; i++ {
				if rng.Intn(150) == 0 {
					m = NewFromSnapshot(m.Snapshot())
					forks++
					if err := sameMemory(m, r); err != nil {
						t.Fatalf("step %d, fork %d: %v", i, forks, err)
					}
				}
				ppn := arch.PPN(rng.Intn(pages)) // anywhere, allocated or not
				off := uint64(rng.Intn(arch.PageSize/8)) * 8
				switch op := rng.Intn(10); {
				case op < 3:
					got, err := m.Alloc()
					want, ok := r.alloc()
					if (err == nil) != ok || got != want {
						t.Fatalf("step %d: Alloc = %d %v, want %d %v", i, got, err, want, ok)
					}
					if !ok {
						ooms++
					}
				case op < 5:
					if ppn != ZeroPPN && r.allocated[ppn] {
						m.Free(ppn)
						r.free(ppn)
					}
				case op < 7:
					if ppn != ZeroPPN {
						v := rng.Uint64()
						m.Write64(ppn, off, v)
						r.write64(ppn, off, v)
					}
				case op < 8:
					if dst := arch.PPN(rng.Intn(pages)); dst != ZeroPPN {
						m.CopyPage(dst, ppn)
						r.copyPage(dst, ppn)
					}
				default:
					if got, want := m.Read64(ppn, off), r.read64(ppn, off); got != want {
						t.Fatalf("step %d: Read64(%d, %#x) = %#x, want %#x", i, ppn, off, got, want)
					}
					if got, want := m.PageIsZero(ppn), r.frames[ppn] == nil || *r.frames[ppn] == [arch.PageSize]byte{}; got != want {
						t.Fatalf("step %d: PageIsZero(%d) = %v, want %v", i, ppn, got, want)
					}
				}
			}
			if err := sameMemory(m, r); err != nil {
				t.Fatal(err)
			}
			if forks < 20 || ooms == 0 {
				t.Fatalf("sequence too tame: %d forks, %d out-of-memory allocations", forks, ooms)
			}
		})
	}
}

// TestFullCaptureNoLargerThanDense checks the capture's worst case: with
// every frame allocated and materialised it holds no more than the dense
// capture it replaced, a frame pointer and an allocation byte per frame
// besides the contents.
func TestFullCaptureNoLargerThanDense(t *testing.T) {
	const pages = 1024
	m := New(pages)
	for m.FreePages() > 0 {
		ppn, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		m.Write(ppn, 0, 1)
	}
	if got, dense := m.Snapshot().Bytes(), pages*(8+1)+(pages-1)*arch.PageSize; got > dense {
		t.Errorf("full capture holds %d bytes, the dense capture %d", got, dense)
	}
}
