package arch

import "math/bits"

// Bitmap is a set of small non-negative integers stored one bit each:
// member i is bit i%64 of word i/64. The simulator uses it wherever a
// table is sized or captured by which of its slots are live (valid cache
// and TLB ways, allocated and materialised memory frames). A nil Bitmap
// is the empty set.
type Bitmap []uint64

// NewBitmap returns an empty bitmap with room for members below n.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Grow returns b extended with zero words to hold members below n.
func (b Bitmap) Grow(n int) Bitmap {
	for len(b)*64 < n {
		b = append(b, 0)
	}
	return b
}

// Has reports whether i is a member; an i past the end is not.
func (b Bitmap) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Set adds i, which must lie within b.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i; an i past the end is already absent.
func (b Bitmap) Clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Count returns the number of members.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn with every member in ascending order.
func (b Bitmap) Each(fn func(i int)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// Bytes returns the bitmap's size in bytes.
func (b Bitmap) Bytes() int { return 8 * len(b) }

// Gather returns src's elements at b's members, in index order, in a
// slice of exactly that length.
func Gather[T any](b Bitmap, src []T) []T {
	out := make([]T, 0, b.Count())
	b.Each(func(i int) { out = append(out, src[i]) })
	return out
}

// Scatter is Gather's inverse: it stores packed's elements, in order,
// at b's members of dst.
func Scatter[T any](b Bitmap, packed, dst []T) {
	k := 0
	b.Each(func(i int) {
		dst[i] = packed[k]
		k++
	})
}
