package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"edgeauth/internal/storage"
)

// ErrDuplicateKey is returned by Insert for a key that is already present.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// ErrKeyNotFound is returned by Delete for an absent key.
var ErrKeyNotFound = errors.New("btree: key not found")

// Tree is a B+-tree over a buffer pool. Safe for concurrent readers; a
// single writer must be externally serialized with respect to readers
// (the VB-tree does this with its mutex; the plain tree mirrors the
// contract and additionally carries an RWMutex).
type Tree struct {
	mu   sync.RWMutex
	bp   *storage.BufferPool
	root storage.PageID
}

// New creates an empty tree whose root is a fresh leaf.
func New(bp *storage.BufferPool) (*Tree, error) {
	f, err := bp.NewPage(storage.PageBTreeLeaf)
	if err != nil {
		return nil, err
	}
	leaf := &leafNode{}
	if err := leaf.encode(f.Page().Bytes()); err != nil {
		bp.Unpin(f, false)
		return nil, err
	}
	root := f.ID()
	bp.Unpin(f, true)
	return &Tree{bp: bp, root: root}, nil
}

// Open reattaches to a tree rooted at root.
func Open(bp *storage.BufferPool, root storage.PageID) *Tree {
	return &Tree{bp: bp, root: root}
}

// Root returns the current root page id (persist it in pager metadata).
func (t *Tree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// Search returns the value stored under key, or found=false.
func (t *Tree) Search(key []byte) (val []byte, found bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pid := t.root
	for {
		f, err := t.bp.Fetch(pid)
		if err != nil {
			return nil, false, err
		}
		buf := f.Page().Bytes()
		switch storage.PageType(buf[0]) {
		case storage.PageBTreeInternal:
			n, err := decodeInternal(buf)
			t.bp.Unpin(f, false)
			if err != nil {
				return nil, false, err
			}
			pid = n.children[n.childIndex(key)]
		case storage.PageBTreeLeaf:
			n, err := decodeLeaf(buf)
			t.bp.Unpin(f, false)
			if err != nil {
				return nil, false, err
			}
			i := n.search(key)
			if i < len(n.keys) && compare(n.keys[i], key) == 0 {
				return n.vals[i], true, nil
			}
			return nil, false, nil
		default:
			t.bp.Unpin(f, false)
			return nil, false, fmt.Errorf("btree: unexpected page type %d at %d", buf[0], pid)
		}
	}
}

// Range calls fn for every (key, value) with lo <= key <= hi in key order.
// Iteration stops early when fn returns false. Nil lo means from the
// smallest key; nil hi means to the largest.
func (t *Tree) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pid := t.root
	// Descend to the leaf that would contain lo.
	for {
		f, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		buf := f.Page().Bytes()
		if storage.PageType(buf[0]) != storage.PageBTreeInternal {
			t.bp.Unpin(f, false)
			break
		}
		n, err := decodeInternal(buf)
		t.bp.Unpin(f, false)
		if err != nil {
			return err
		}
		if lo == nil {
			pid = n.children[0]
		} else {
			pid = n.children[n.childIndex(lo)]
		}
	}
	// Walk the leaf chain.
	for pid != storage.InvalidPageID {
		f, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		n, err := decodeLeaf(f.Page().Bytes())
		t.bp.Unpin(f, false)
		if err != nil {
			return err
		}
		start := 0
		if lo != nil {
			start = n.search(lo)
		}
		for i := start; i < len(n.keys); i++ {
			if hi != nil && compare(n.keys[i], hi) > 0 {
				return nil
			}
			if !fn(n.keys[i], n.vals[i]) {
				return nil
			}
		}
		pid = n.next
	}
	return nil
}

// splitResult propagates a child split to the parent.
type splitResult struct {
	sep   []byte
	right storage.PageID
}

// Insert adds a key/value pair; ErrDuplicateKey if present.
func (t *Tree) Insert(key, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(key) == 0 {
		return errors.New("btree: empty key")
	}
	maxEntry := leafHeader + 2 + len(key) + 2 + len(val)
	if maxEntry > t.bp.PageSize() {
		return fmt.Errorf("btree: entry of %d bytes exceeds page size", maxEntry)
	}
	split, err := t.insertAt(t.root, key, val)
	if err != nil {
		return err
	}
	if split != nil {
		if err := t.growRoot(split); err != nil {
			return err
		}
	}
	return nil
}

// growRoot replaces the root with a new internal node over (oldRoot, split).
func (t *Tree) growRoot(split *splitResult) error {
	f, err := t.bp.NewPage(storage.PageBTreeInternal)
	if err != nil {
		return err
	}
	n := &internalNode{
		keys:     [][]byte{split.sep},
		children: []storage.PageID{t.root, split.right},
	}
	if err := n.encode(f.Page().Bytes()); err != nil {
		t.bp.Unpin(f, false)
		return err
	}
	t.root = f.ID()
	t.bp.Unpin(f, true)
	return nil
}

func (t *Tree) insertAt(pid storage.PageID, key, val []byte) (*splitResult, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, err
	}
	buf := f.Page().Bytes()
	switch storage.PageType(buf[0]) {
	case storage.PageBTreeLeaf:
		n, err := decodeLeaf(buf)
		if err != nil {
			t.bp.Unpin(f, false)
			return nil, err
		}
		i := n.search(key)
		if i < len(n.keys) && compare(n.keys[i], key) == 0 {
			t.bp.Unpin(f, false)
			return nil, ErrDuplicateKey
		}
		n.keys = insertBytes(n.keys, i, key)
		n.vals = insertBytes(n.vals, i, val)
		if n.encodedSize() <= len(buf) {
			if err := n.encode(buf); err != nil {
				t.bp.Unpin(f, false)
				return nil, err
			}
			t.bp.Unpin(f, true)
			return nil, nil
		}
		// Split: right half moves to a new leaf.
		mid := len(n.keys) / 2
		rf, err := t.bp.NewPage(storage.PageBTreeLeaf)
		if err != nil {
			t.bp.Unpin(f, false)
			return nil, err
		}
		right := &leafNode{
			next: n.next,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]byte(nil), n.vals[mid:]...),
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rf.ID()
		if err := right.encode(rf.Page().Bytes()); err != nil {
			t.bp.Unpin(rf, false)
			t.bp.Unpin(f, false)
			return nil, err
		}
		if err := n.encode(buf); err != nil {
			t.bp.Unpin(rf, false)
			t.bp.Unpin(f, false)
			return nil, err
		}
		sep := append([]byte(nil), right.keys[0]...)
		res := &splitResult{sep: sep, right: rf.ID()}
		t.bp.Unpin(rf, true)
		t.bp.Unpin(f, true)
		return res, nil

	case storage.PageBTreeInternal:
		n, err := decodeInternal(buf)
		if err != nil {
			t.bp.Unpin(f, false)
			return nil, err
		}
		ci := n.childIndex(key)
		child := n.children[ci]
		t.bp.Unpin(f, false) // re-fetched after the child settles
		split, err := t.insertAt(child, key, val)
		if err != nil {
			return nil, err
		}
		if split == nil {
			return nil, nil
		}
		f, err = t.bp.Fetch(pid)
		if err != nil {
			return nil, err
		}
		buf = f.Page().Bytes()
		n, err = decodeInternal(buf)
		if err != nil {
			t.bp.Unpin(f, false)
			return nil, err
		}
		ci = n.childIndex(split.sep)
		n.keys = insertBytes(n.keys, ci, split.sep)
		n.children = insertPageID(n.children, ci+1, split.right)
		if n.encodedSize() <= len(buf) {
			if err := n.encode(buf); err != nil {
				t.bp.Unpin(f, false)
				return nil, err
			}
			t.bp.Unpin(f, true)
			return nil, nil
		}
		// Split internal node: middle key moves up.
		mid := len(n.keys) / 2
		upKey := append([]byte(nil), n.keys[mid]...)
		rf, err := t.bp.NewPage(storage.PageBTreeInternal)
		if err != nil {
			t.bp.Unpin(f, false)
			return nil, err
		}
		right := &internalNode{
			keys:     append([][]byte(nil), n.keys[mid+1:]...),
			children: append([]storage.PageID(nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
		if err := right.encode(rf.Page().Bytes()); err != nil {
			t.bp.Unpin(rf, false)
			t.bp.Unpin(f, false)
			return nil, err
		}
		if err := n.encode(buf); err != nil {
			t.bp.Unpin(rf, false)
			t.bp.Unpin(f, false)
			return nil, err
		}
		res := &splitResult{sep: upKey, right: rf.ID()}
		t.bp.Unpin(rf, true)
		t.bp.Unpin(f, true)
		return res, nil

	default:
		t.bp.Unpin(f, false)
		return nil, fmt.Errorf("btree: unexpected page type %d at %d", buf[0], pid)
	}
}

// Delete removes a key. Nodes are detached only when empty (the paper's
// Johnson–Shasha policy); the root collapses when an internal root has a
// single child left.
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	emptied, err := t.deleteAt(t.root, key)
	if err != nil {
		return err
	}
	_ = emptied // an emptied root leaf simply stays as the empty tree
	// Collapse trivial internal roots.
	for {
		f, err := t.bp.Fetch(t.root)
		if err != nil {
			return err
		}
		buf := f.Page().Bytes()
		if storage.PageType(buf[0]) != storage.PageBTreeInternal {
			t.bp.Unpin(f, false)
			return nil
		}
		n, err := decodeInternal(buf)
		t.bp.Unpin(f, false)
		if err != nil {
			return err
		}
		if len(n.keys) > 0 {
			return nil
		}
		t.root = n.children[0]
	}
}

// deleteAt removes key under pid; reports whether the node became empty.
func (t *Tree) deleteAt(pid storage.PageID, key []byte) (bool, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return false, err
	}
	buf := f.Page().Bytes()
	switch storage.PageType(buf[0]) {
	case storage.PageBTreeLeaf:
		n, err := decodeLeaf(buf)
		if err != nil {
			t.bp.Unpin(f, false)
			return false, err
		}
		i := n.search(key)
		if i >= len(n.keys) || compare(n.keys[i], key) != 0 {
			t.bp.Unpin(f, false)
			return false, ErrKeyNotFound
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		if err := n.encode(buf); err != nil {
			t.bp.Unpin(f, false)
			return false, err
		}
		empty := len(n.keys) == 0
		t.bp.Unpin(f, true)
		return empty, nil

	case storage.PageBTreeInternal:
		n, err := decodeInternal(buf)
		if err != nil {
			t.bp.Unpin(f, false)
			return false, err
		}
		ci := n.childIndex(key)
		child := n.children[ci]
		t.bp.Unpin(f, false)
		emptied, err := t.deleteAt(child, key)
		if err != nil {
			return false, err
		}
		if !emptied {
			return false, nil
		}
		// Detach the emptied child (leaf chains may retain a stale next
		// pointer into it, so the page itself stays allocated but empty;
		// scans skip it naturally because it has no entries).
		f, err = t.bp.Fetch(pid)
		if err != nil {
			return false, err
		}
		buf = f.Page().Bytes()
		n, err = decodeInternal(buf)
		if err != nil {
			t.bp.Unpin(f, false)
			return false, err
		}
		ci = -1
		for i, c := range n.children {
			if c == child {
				ci = i
				break
			}
		}
		if ci < 0 { // child already detached by a concurrent structural fix
			t.bp.Unpin(f, false)
			return false, nil
		}
		// Only detach leaves: an empty leaf has no entries to lose. An
		// "emptied" internal child cannot occur because we only report
		// empty upward for leaves, and internal nodes keep >= 1 child.
		cf, err := t.bp.Fetch(child)
		if err != nil {
			t.bp.Unpin(f, false)
			return false, err
		}
		childIsLeaf := storage.PageType(cf.Page().Bytes()[0]) == storage.PageBTreeLeaf
		t.bp.Unpin(cf, false)
		if !childIsLeaf {
			t.bp.Unpin(f, false)
			return false, nil
		}
		if len(n.children) == 1 {
			// Last child of this internal node; report empty upward and
			// let the parent detach us. Keep the child in place.
			t.bp.Unpin(f, false)
			return false, nil
		}
		if ci == 0 {
			n.children = n.children[1:]
			n.keys = n.keys[1:]
		} else {
			n.children = append(n.children[:ci], n.children[ci+1:]...)
			n.keys = append(n.keys[:ci-1], n.keys[ci:]...)
		}
		if err := n.encode(buf); err != nil {
			t.bp.Unpin(f, false)
			return false, err
		}
		t.bp.Unpin(f, true)
		return false, nil

	default:
		t.bp.Unpin(f, false)
		return false, fmt.Errorf("btree: unexpected page type %d at %d", buf[0], pid)
	}
}

// Stats describes the tree's shape, for the Figure 8–9 measurements.
type Stats struct {
	Height        int // levels including the leaf level
	InternalNodes int
	LeafNodes     int
	Entries       int
	// AvgInternalFanOut is children per internal node, averaged.
	AvgInternalFanOut float64
	// MaxLeafEntries/MaxInternalFanOut are the byte-capacity bounds for
	// the given key/value lengths (the analytic fan-out of Figure 8).
	MaxLeafEntries    int
	MaxInternalFanOut int
}

// Stats walks the whole tree. keyLen/valLen parameterize the capacity
// bounds reported alongside the measured shape.
func (t *Tree) Stats(keyLen, valLen int) (Stats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{
		MaxLeafEntries:    MaxLeafEntries(t.bp.PageSize(), keyLen, valLen),
		MaxInternalFanOut: MaxInternalFanOut(t.bp.PageSize(), keyLen),
	}
	var totalChildren int
	var walk func(pid storage.PageID, depth int) error
	walk = func(pid storage.PageID, depth int) error {
		f, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		buf := f.Page().Bytes()
		switch storage.PageType(buf[0]) {
		case storage.PageBTreeLeaf:
			n, err := decodeLeaf(buf)
			t.bp.Unpin(f, false)
			if err != nil {
				return err
			}
			s.LeafNodes++
			s.Entries += len(n.keys)
			if depth+1 > s.Height {
				s.Height = depth + 1
			}
			return nil
		case storage.PageBTreeInternal:
			n, err := decodeInternal(buf)
			t.bp.Unpin(f, false)
			if err != nil {
				return err
			}
			s.InternalNodes++
			totalChildren += len(n.children)
			for _, c := range n.children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
			return nil
		default:
			t.bp.Unpin(f, false)
			return fmt.Errorf("btree: unexpected page type %d", buf[0])
		}
	}
	if err := walk(t.root, 0); err != nil {
		return Stats{}, err
	}
	if s.InternalNodes > 0 {
		s.AvgInternalFanOut = float64(totalChildren) / float64(s.InternalNodes)
	}
	return s, nil
}

// MaxLeafEntries returns how many fixed-size entries fit a leaf page.
func MaxLeafEntries(pageSize, keyLen, valLen int) int {
	return (pageSize - leafHeader) / (2 + keyLen + 2 + valLen)
}

// MaxInternalFanOut returns the analytic B-tree fan-out of the paper's
// formula: children per internal node for fixed-size keys — this is the
// "B-tree" series of Figure 8.
func MaxInternalFanOut(pageSize, keyLen int) int {
	// internalHeader already includes one child pointer; each additional
	// (key, child) entry costs 2+keyLen+4 bytes.
	return 1 + (pageSize-internalHeader)/(2+keyLen+4)
}

func insertBytes(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = append([]byte(nil), v...)
	return s
}

func insertPageID(s []storage.PageID, i int, v storage.PageID) []storage.PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// metaKey formats for persisting roots in pager metadata.
const metaFmt = "btree.root=%d"

// SaveRoot writes the root id into the pager metadata.
func (t *Tree) SaveRoot() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(t.root))
	return t.bp.Pager().SetMeta(b[:])
}

// LoadRoot reads a root id previously written by SaveRoot.
func LoadRoot(bp *storage.BufferPool) (storage.PageID, error) {
	meta, err := bp.Pager().Meta()
	if err != nil {
		return 0, err
	}
	if len(meta) < 8 {
		return 0, errors.New("btree: no saved root in pager metadata")
	}
	return storage.PageID(binary.BigEndian.Uint64(meta[:8])), nil
}
