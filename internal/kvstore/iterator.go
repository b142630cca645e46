package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Iterator walks keys in ascending order over one MVCC snapshot. Internal
// pages are materialized as a stack of (page, index) frames; the leaf the
// cursor is in is decoded *in place* — entries are parsed straight out of
// the immutable page image, so a sequential scan allocates one small
// offset index per leaf instead of two copies per entry. Pages are
// re-read through the snapshot (buffer pool or retained versions), so
// iteration plays well with eviction and never observes a concurrent
// commit — the view is frozen at the snapshot's epoch for the whole scan.
//
// Iterators obtained from DB.Seek / DB.First own a private snapshot,
// released automatically when the scan is exhausted or errors; call
// Close to release it early (stopping mid-scan). Iterators from
// Snapshot.Seek / Snapshot.First borrow the caller's snapshot and never
// close it.
type Iterator struct {
	snap    *Snapshot
	owned   bool // close snap when the scan ends
	stack   []frame
	leaf    leafView
	leafIdx int
	inLeaf  bool
	err     error
	key     []byte
	val     []byte
	valid   bool
}

type frame struct {
	id  uint32
	n   *node
	idx int
}

// leafView is a zero-copy decoding of one leaf page: offs indexes the
// entries inside the immutable page buffer, and key/val return subslices
// of it. Because committed page images are never mutated in place (the
// pool swaps pointers), the subslices stay valid as long as the caller
// holds them — retaining one merely pins the page image for the GC.
type leafView struct {
	buf  []byte
	next uint32
	offs []int32 // offset of entry i's key-length field
}

// parse indexes buf's entries, reusing the offs backing array across
// leaves — after the first few leaves a sequential scan stops allocating.
func (v *leafView) parse(buf []byte) error {
	if len(buf) < 7 || buf[0] != pageLeaf {
		return fmt.Errorf("kvstore: corrupt leaf page")
	}
	v.buf = buf
	nkeys := int(binary.BigEndian.Uint16(buf[1:]))
	v.next = binary.BigEndian.Uint32(buf[3:])
	if cap(v.offs) < nkeys {
		v.offs = make([]int32, 0, nkeys)
	}
	v.offs = v.offs[:0]
	off := 7
	for i := 0; i < nkeys; i++ {
		if off+2 > len(buf) {
			return fmt.Errorf("kvstore: corrupt leaf page: key %d", i)
		}
		kl := int(binary.BigEndian.Uint16(buf[off:]))
		if off+2+kl+2 > len(buf) {
			return fmt.Errorf("kvstore: corrupt leaf page: key %d length", i)
		}
		vl := int(binary.BigEndian.Uint16(buf[off+2+kl:]))
		if off+2+kl+2+vl > len(buf) {
			return fmt.Errorf("kvstore: corrupt leaf page: value %d length", i)
		}
		v.offs = append(v.offs, int32(off))
		off += 2 + kl + 2 + vl
	}
	return nil
}

func (v *leafView) count() int { return len(v.offs) }

func (v *leafView) key(i int) []byte {
	off := int(v.offs[i])
	kl := int(binary.BigEndian.Uint16(v.buf[off:]))
	return v.buf[off+2 : off+2+kl]
}

func (v *leafView) val(i int) []byte {
	off := int(v.offs[i])
	kl := int(binary.BigEndian.Uint16(v.buf[off:]))
	vo := off + 2 + kl
	vl := int(binary.BigEndian.Uint16(v.buf[vo:]))
	return v.buf[vo+2 : vo+2+vl]
}

// search returns the index of the first key >= target.
func (v *leafView) search(target []byte) int {
	lo, hi := 0, v.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(v.key(mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Seek positions a new iterator at the smallest key >= target, on a
// snapshot of the current committed state. The iterator's view is fixed
// at that instant: concurrent writers proceed without blocking it and
// without becoming visible to it.
func (db *DB) Seek(target []byte) *Iterator {
	it := db.OpenSnapshot().Seek(target)
	it.owned = true
	it.maybeAutoClose()
	return it
}

// First positions a new iterator at the smallest key (see Seek).
func (db *DB) First() *Iterator { return db.Seek(nil) }

// Seek positions an iterator at the smallest key >= target as of the
// snapshot's epoch. The iterator borrows the snapshot: closing is the
// caller's business, and multiple iterators may share one snapshot.
func (s *Snapshot) Seek(target []byte) *Iterator {
	atomic.AddInt64(&s.db.seeks, 1)
	it := &Iterator{snap: s}
	id := s.root
	for {
		buf, err := s.readPage(id)
		if err != nil {
			it.err = err
			return it
		}
		if len(buf) > 0 && buf[0] == pageLeaf {
			if err := it.leaf.parse(buf); err != nil {
				it.err = err
				return it
			}
			it.inLeaf = true
			it.leafIdx = it.leaf.search(target)
			it.settle()
			return it
		}
		n, err := deserialize(buf)
		if err != nil {
			it.err = err
			return it
		}
		ci := childIndex(n.keys, target)
		it.stack = append(it.stack, frame{id: id, n: n, idx: ci})
		id = n.children[ci]
	}
}

// First positions an iterator at the snapshot's smallest key.
func (s *Snapshot) First() *Iterator { return s.Seek(nil) }

// settle loads the current entry, popping exhausted frames and descending
// into following subtrees until it finds a leaf entry or the end.
func (it *Iterator) settle() {
	for {
		if it.inLeaf {
			if it.leafIdx < it.leaf.count() {
				it.key = it.leaf.key(it.leafIdx)
				it.val = it.leaf.val(it.leafIdx)
				it.valid = true
				return
			}
			it.inLeaf = false
			if len(it.stack) > 0 {
				it.stack[len(it.stack)-1].idx++
			}
			continue
		}
		if len(it.stack) == 0 {
			it.valid = false
			return
		}
		top := &it.stack[len(it.stack)-1]
		if top.idx >= len(top.n.children) {
			it.stack = it.stack[:len(it.stack)-1]
			if len(it.stack) > 0 {
				it.stack[len(it.stack)-1].idx++
			}
			continue
		}
		id := top.n.children[top.idx]
		buf, err := it.snap.readPage(id)
		if err != nil {
			it.err = err
			it.valid = false
			return
		}
		if len(buf) > 0 && buf[0] == pageLeaf {
			if err := it.leaf.parse(buf); err != nil {
				it.err = err
				it.valid = false
				return
			}
			it.inLeaf = true
			it.leafIdx = 0
			// The scan just crossed into a new leaf, so it is provably
			// sequential: prefetch the next leaves along the sibling
			// chain into the buffer pool ahead of the cursor. Seek's
			// initial leaf never prefetches — a scan that ends inside
			// its first leaf (point-ish lookups, early callback stops)
			// reads nothing beyond its own root-to-leaf path. The chain
			// walked is the *current* committed one — read-ahead is
			// purely advisory (it only warms the pool), so a sibling
			// pointer that moved since the snapshot's epoch costs at
			// worst a useless prefetch, never a wrong result.
			it.snap.db.maybeReadAhead(it.leaf.next)
			continue
		}
		child, err := deserialize(buf)
		if err != nil {
			it.err = err
			it.valid = false
			return
		}
		it.stack = append(it.stack, frame{id: id, n: child, idx: 0})
	}
}

// maybeReadAhead prefetches up to db.readAhead leaf pages following the
// sibling chain starting at next into the buffer pool.
func (db *DB) maybeReadAhead(next uint32) {
	if db.readAhead <= 0 || next == 0 {
		return
	}
	db.pager.readAhead(next, db.readAhead, pageLeaf)
}

// maybeAutoClose releases an owned snapshot once the scan can make no
// further progress (exhausted or failed), so the common
// iterate-to-the-end pattern needs no explicit Close.
func (it *Iterator) maybeAutoClose() {
	if it.owned && (!it.valid || it.err != nil) {
		it.snap.Close() // idempotent
	}
}

// Close releases the iterator's snapshot if it owns one (iterators from
// DB.Seek / DB.First). Harmless to call more than once, or on an
// iterator that borrows a caller-managed snapshot.
func (it *Iterator) Close() {
	if it.owned {
		it.snap.Close()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Err returns the first error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key. The slice aliases the immutable page
// image: it stays valid after Next, but retaining it pins the page.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (aliasing rules as for Key).
func (it *Iterator) Value() []byte { return it.val }

// Next advances to the following key.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.leafIdx++ // a valid position is always inside a leaf
	it.valid = false
	it.settle()
	it.maybeAutoClose()
}

// Ascend calls fn for every key in [start, end) in order; a nil end means
// "to the last key". fn returning false stops the scan. The whole scan
// runs on one snapshot, so it sees a consistent tree even with
// concurrent writers — without blocking them; fn must not mutate the
// store (a mutation would simply not be seen, but the restriction keeps
// the contract obvious). The k/v slices alias immutable page images:
// copy before retaining to avoid pinning pages.
func (db *DB) Ascend(start, end []byte, fn func(k, v []byte) bool) error {
	s := db.OpenSnapshot()
	defer s.Close()
	return s.Ascend(start, end, fn)
}

// Ascend calls fn for every key in [start, end) as of the snapshot's
// epoch (see DB.Ascend).
func (s *Snapshot) Ascend(start, end []byte, fn func(k, v []byte) bool) error {
	it := s.Seek(start)
	for it.Valid() {
		if end != nil && bytes.Compare(it.Key(), end) >= 0 {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Err()
}

// AscendPrefix calls fn for every key with the given prefix, in order,
// on one snapshot (see Ascend).
func (db *DB) AscendPrefix(prefix []byte, fn func(k, v []byte) bool) error {
	s := db.OpenSnapshot()
	defer s.Close()
	return s.AscendPrefix(prefix, fn)
}

// AscendPrefix calls fn for every key with the given prefix as of the
// snapshot's epoch.
func (s *Snapshot) AscendPrefix(prefix []byte, fn func(k, v []byte) bool) error {
	it := s.Seek(prefix)
	for it.Valid() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Err()
}
