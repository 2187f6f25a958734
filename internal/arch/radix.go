package arch

import (
	"sync/atomic"
	"unsafe"
)

// Radix is a fixed-depth radix tree, 9 key bits a level: 512-way
// interior nodes above 512-value leaves, the x86-64 page-table layout.
// The page tables (4 levels over a 36-bit VPN) and the Overlay Mapping
// Table (6 levels over a 52-bit OPN) both wrap it. Each level's index is
// masked, so a key is taken modulo 2^(9·levels). The zero V is an absent
// key.
//
// Trees share nodes copy-on-write, overlay-on-write applied to the
// simulator's own tables. Share hands out a tree holding the receiver's
// nodes in O(1); from then on each tree copies a node the first time it
// hands out a writable pointer through it (Ref). Value reads (Get,
// Range) never copy. A node carries the owner stamp of the one tree that
// may write it in place. A tree that has not written yet owns no node
// and takes a fresh stamp on its first Ref, so a copy of such a tree,
// as every fork of a capture is, is an independent tree: resuming writes
// nothing the capture holds, and any number of goroutines may resume
// from one capture at once. A pointer from Ref may be written only until
// the next Share.
type Radix[V comparable] struct {
	root   unsafe.Pointer // *radixNode, or *radixLeaf[V] in a 1-level tree
	levels int
	owner  uint64 // stamps the nodes this tree writes in place; 0 = none
}

// radixNode is an interior node. Its children are *radixNode, or
// *radixLeaf at the last interior level; as unsafe.Pointer both node
// kinds keep their arrays inline, so a walk loads one word a level.
// Each pointer is converted back only to the type it was made from.
type radixNode struct {
	owner uint64
	kids  [radixFanout]unsafe.Pointer
}

type radixLeaf[V comparable] struct {
	owner uint64
	vals  [radixFanout]V
}

const (
	radixBits   = 9
	radixFanout = 1 << radixBits
	radixMask   = radixFanout - 1
)

var radixOwners atomic.Uint64 // issues owner stamps from 1

// NewRadix returns an empty tree of the given depth.
func NewRadix[V comparable](levels int) Radix[V] { return Radix[V]{levels: levels} }

func (t *Radix[V]) top() uint { return uint(radixBits * (t.levels - 1)) }

// Get returns key's value, or the zero V if the key is absent.
func (t *Radix[V]) Get(key uint64) (v V) {
	p := t.root
	for shift := t.top(); shift > 0 && p != nil; shift -= radixBits {
		p = (*radixNode)(p).kids[key>>shift&radixMask]
	}
	if p == nil {
		return v
	}
	return (*radixLeaf[V])(p).vals[key&radixMask]
}

// Ref returns a writable pointer to key's value, creating the path to it
// and copying every node on the path that another tree may read.
func (t *Radix[V]) Ref(key uint64) *V {
	if t.owner == 0 {
		t.owner = radixOwners.Add(1)
	}
	owner, p := t.owner, &t.root // a local: stores through p would reload t.owner
	for shift := t.top(); shift > 0; shift -= radixBits {
		n := (*radixNode)(*p)
		if n == nil || n.owner != owner {
			c := &radixNode{owner: owner}
			if n != nil {
				c.kids = n.kids
			}
			n, *p = c, unsafe.Pointer(c)
		}
		p = &n.kids[key>>shift&radixMask]
	}
	l := (*radixLeaf[V])(*p)
	if l == nil || l.owner != owner {
		c := &radixLeaf[V]{owner: owner}
		if l != nil {
			c.vals = l.vals
		}
		l, *p = c, unsafe.Pointer(c)
	}
	return &l.vals[key&radixMask]
}

// Share returns a tree holding t's nodes. Both copy a node before
// writing through it.
func (t *Radix[V]) Share() Radix[V] {
	t.owner = 0
	return *t
}

// Range calls fn with every non-zero value in ascending key order until
// fn returns false.
func (t *Radix[V]) Range(fn func(key uint64, v V) bool) {
	radixEach(t.root, t.levels-1, 0, fn)
}

func radixEach[V comparable](p unsafe.Pointer, level int, prefix uint64, fn func(uint64, V) bool) bool {
	var zero V
	switch {
	case p == nil:
	case level == 0:
		for i, v := range &(*radixLeaf[V])(p).vals {
			if v != zero && !fn(prefix<<radixBits|uint64(i), v) {
				return false
			}
		}
	default:
		for i, kid := range &(*radixNode)(p).kids {
			if !radixEach(kid, level-1, prefix<<radixBits|uint64(i), fn) {
				return false
			}
		}
	}
	return true
}

// Bytes returns the bytes t's nodes hold, shared ones included.
func (t *Radix[V]) Bytes() int { return radixBytes[V](t.root, t.levels-1) }

func radixBytes[V comparable](p unsafe.Pointer, level int) int {
	switch {
	case p == nil:
		return 0
	case level == 0:
		return int(unsafe.Sizeof(radixLeaf[V]{}))
	}
	b := int(unsafe.Sizeof(radixNode{}))
	for _, kid := range &(*radixNode)(p).kids {
		b += radixBytes[V](kid, level-1)
	}
	return b
}
