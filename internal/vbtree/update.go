package vbtree

import (
	"fmt"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Insert adds a tuple at the central server (paper §3.4, Insert). The new
// tuple's digest is *multiplied into* each node digest on the root-to-leaf
// path — the commutative combiner makes this a constant amount of work per
// level:
//
//	D_N' = s( s⁻¹(D_N) · g^(d+1)(U_T) )   for the node d levels above the leaf.
//
// The tree's write lock is held for the whole insert. A node split
// recomputes the digests of the two halves from their entries.
func (t *Tree) Insert(tup schema.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.signer == nil {
		return ErrReadOnly
	}
	attrs, ut, err := t.tupleDigests(tup)
	if err != nil {
		return err
	}
	st, err := t.makeStored(tup, attrs)
	if err != nil {
		return err
	}
	dt, err := t.sealDigest(ut)
	if err != nil {
		return err
	}
	keyBytes := tup.Key(t.sch).KeyBytes()

	maxEntry := vbLeafHeader + 2 + len(keyBytes) + 6 + 2 + len(dt)
	if maxEntry > t.bp.PageSize() {
		return fmt.Errorf("vbtree: leaf entry of %d bytes exceeds page size", maxEntry)
	}

	rootOldU, err := t.currentRootU()
	if err != nil {
		return err
	}
	res, err := t.insertAt(t.root, rootOldU, keyBytes, st, ut, dt)
	if err != nil {
		return err
	}
	if res.split == nil {
		rs, err := t.sign(res.newU)
		if err != nil {
			return err
		}
		t.rootSig = rs
		t.rootU = res.newU
		return nil
	}
	// Root split: a new root over (old root, right).
	leftSig, err := t.sealDigest(res.newU)
	if err != nil {
		return err
	}
	rightSig, err := t.sealDigest(res.split.rightU)
	if err != nil {
		return err
	}
	f, err := t.bp.NewPage(storage.PageVBInternal)
	if err != nil {
		return err
	}
	newRoot := &vbInternal{
		keys:     [][]byte{res.split.sep},
		children: []storage.PageID{t.root, res.split.right},
		sigs:     []sig.Signature{leftSig, rightSig},
	}
	if err := newRoot.encode(f.Page().Bytes()); err != nil {
		t.bp.Unpin(f, false)
		return err
	}
	t.root = f.ID()
	t.bp.Unpin(f, true)
	t.height++
	acc := t.acc.NewAcc()
	if err := acc.Add(res.newU); err != nil {
		return err
	}
	if err := acc.Add(res.split.rightU); err != nil {
		return err
	}
	rs, err := t.sign(acc.Value())
	if err != nil {
		return err
	}
	t.rootSig = rs
	t.rootU = acc.Value()
	return nil
}

// insertResult carries a node's new unsigned digest (and split info) back
// to its parent, which owns the signed copy.
type insertResult struct {
	newU  digest.Value
	split *vbSplit
}

type vbSplit struct {
	sep    []byte
	right  storage.PageID
	rightU digest.Value
}

func (t *Tree) insertAt(pid storage.PageID, myOldU digest.Value, keyBytes []byte,
	st *vo.StoredTuple, ut digest.Value, dt sig.Signature) (insertResult, error) {
	pt, err := t.pageType(pid)
	if err != nil {
		return insertResult{}, err
	}
	if pt == storage.PageVBLeaf {
		return t.insertLeaf(pid, myOldU, keyBytes, st, ut, dt)
	}

	n, err := t.fetchInternal(pid)
	if err != nil {
		return insertResult{}, err
	}
	ci := n.childIndex(keyBytes)
	childOldU, err := t.childU(n.sigs[ci])
	if err != nil {
		return insertResult{}, err
	}
	childRes, err := t.insertAt(n.children[ci], childOldU, keyBytes, st, ut, dt)
	if err != nil {
		return insertResult{}, err
	}
	// Refresh: the child call may have dirtied our page only via its own
	// pages; our decoded copy is still valid because only this goroutine
	// mutates the tree (t.mu is held).
	childNewSig, err := t.sealDigest(childRes.newU)
	if err != nil {
		return insertResult{}, err
	}
	n.sigs[ci] = childNewSig

	// My digest: swap the child's factor.
	acc, err := t.acc.AccFrom(myOldU)
	if err != nil {
		return insertResult{}, err
	}
	if err := acc.Remove(childOldU); err != nil {
		return insertResult{}, err
	}
	if err := acc.Add(childRes.newU); err != nil {
		return insertResult{}, err
	}
	if childRes.split != nil {
		rightSig, err := t.sealDigest(childRes.split.rightU)
		if err != nil {
			return insertResult{}, err
		}
		// Insert the new separator/child after ci.
		n.keys = insertKey(n.keys, ci, childRes.split.sep)
		n.children = insertChild(n.children, ci+1, childRes.split.right)
		n.sigs = insertSig(n.sigs, ci+1, rightSig)
		if err := acc.Add(childRes.split.rightU); err != nil {
			return insertResult{}, err
		}
	}
	myNewU := acc.Value()

	if n.encodedSize() <= t.bp.PageSize() {
		if err := t.writeInternal(pid, n); err != nil {
			return insertResult{}, err
		}
		return insertResult{newU: myNewU}, nil
	}

	// Split this internal node; recompute both halves' digests from the
	// (recovered) child digests.
	mid := len(n.keys) / 2
	upKey := append([]byte(nil), n.keys[mid]...)
	right := &vbInternal{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]storage.PageID(nil), n.children[mid+1:]...),
		sigs:     append([]sig.Signature(nil), n.sigs[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	n.sigs = n.sigs[:mid+1]

	leftU, err := t.combineChildSigs(n.sigs)
	if err != nil {
		return insertResult{}, err
	}
	rightU, err := t.combineChildSigs(right.sigs)
	if err != nil {
		return insertResult{}, err
	}
	rf, err := t.bp.NewPage(storage.PageVBInternal)
	if err != nil {
		return insertResult{}, err
	}
	if err := right.encode(rf.Page().Bytes()); err != nil {
		t.bp.Unpin(rf, false)
		return insertResult{}, err
	}
	rightPid := rf.ID()
	t.bp.Unpin(rf, true)
	if err := t.writeInternal(pid, n); err != nil {
		return insertResult{}, err
	}
	return insertResult{
		newU:  leftU,
		split: &vbSplit{sep: upKey, right: rightPid, rightU: rightU},
	}, nil
}

func (t *Tree) insertLeaf(pid storage.PageID, myOldU digest.Value, keyBytes []byte,
	st *vo.StoredTuple, ut digest.Value, dt sig.Signature) (insertResult, error) {

	n, err := t.fetchLeaf(pid)
	if err != nil {
		return insertResult{}, err
	}
	i := n.search(keyBytes)
	if i < len(n.keys) && compare(n.keys[i], keyBytes) == 0 {
		return insertResult{}, ErrDuplicateKey
	}
	rid, err := t.heap.Insert(st.EncodeBytes())
	if err != nil {
		return insertResult{}, err
	}
	n.keys = insertKey(n.keys, i, keyBytes)
	n.rids = insertRID(n.rids, i, rid)
	n.sigs = insertSig(n.sigs, i, dt)

	if n.encodedSize() <= t.bp.PageSize() {
		// The paper's incremental update: U' = U · g(U_T).
		acc, err := t.acc.AccFrom(myOldU)
		if err != nil {
			return insertResult{}, err
		}
		if err := acc.Add(ut); err != nil {
			return insertResult{}, err
		}
		if err := t.writeLeaf(pid, n); err != nil {
			return insertResult{}, err
		}
		return insertResult{newU: acc.Value()}, nil
	}

	// Split; recompute both halves from their tuple digests.
	mid := len(n.keys) / 2
	rf, err := t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return insertResult{}, err
	}
	right := &vbLeaf{
		next: n.next,
		keys: append([][]byte(nil), n.keys[mid:]...),
		rids: append([]storage.RecordID(nil), n.rids[mid:]...),
		sigs: append([]sig.Signature(nil), n.sigs[mid:]...),
	}
	n.keys = n.keys[:mid]
	n.rids = n.rids[:mid]
	n.sigs = n.sigs[:mid]
	n.next = rf.ID()
	if err := right.encode(rf.Page().Bytes()); err != nil {
		t.bp.Unpin(rf, false)
		return insertResult{}, err
	}
	rightPid := rf.ID()
	t.bp.Unpin(rf, true)
	if err := t.writeLeaf(pid, n); err != nil {
		return insertResult{}, err
	}
	leftU, err := t.combineChildSigs(n.sigs)
	if err != nil {
		return insertResult{}, err
	}
	rightU, err := t.combineChildSigs(right.sigs)
	if err != nil {
		return insertResult{}, err
	}
	return insertResult{
		newU: leftU,
		split: &vbSplit{
			sep:    append([]byte(nil), right.keys[0]...),
			right:  rightPid,
			rightU: rightU,
		},
	}, nil
}

// combineChildSigs reads each stored entry's digest (recovering it under
// the legacy scheme) and combines them — the from-scratch recomputation
// used after splits and deletes.
func (t *Tree) combineChildSigs(sigs []sig.Signature) (digest.Value, error) {
	acc := t.acc.NewAcc()
	for _, s := range sigs {
		u, err := t.childU(s)
		if err != nil {
			return nil, err
		}
		if err := acc.Add(u); err != nil {
			return nil, err
		}
	}
	return acc.Value(), nil
}

// Delete removes the tuple with the given key. ErrKeyNotFound if absent.
func (t *Tree) Delete(key schema.Datum) error {
	n, err := t.DeleteRange(&key, &key)
	if err != nil {
		return err
	}
	if n == 0 {
		return ErrKeyNotFound
	}
	return nil
}

// DeleteRange removes every tuple with lo <= key <= hi (nil = unbounded)
// and returns how many were removed. Under the tree's write lock it
// deletes the tuples on the paths to the affected leaves, then recomputes
// the digests back up to the root. Nodes are detached only when they
// become empty.
func (t *Tree) DeleteRange(lo, hi *schema.Datum) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.signer == nil {
		return 0, ErrReadOnly
	}
	var loB, hiB []byte
	if lo != nil {
		loB = lo.KeyBytes()
	}
	if hi != nil {
		hiB = hi.KeyBytes()
	}
	rootOldU, err := t.currentRootU()
	if err != nil {
		return 0, err
	}
	res, err := t.deleteAt(t.root, rootOldU, loB, hiB)
	if err != nil {
		return 0, err
	}
	if res.removed == 0 {
		return 0, nil
	}
	if res.empty {
		// Everything gone: reset to a fresh empty leaf.
		f, err := t.bp.NewPage(storage.PageVBLeaf)
		if err != nil {
			return 0, err
		}
		empty := &vbLeaf{}
		if err := empty.encode(f.Page().Bytes()); err != nil {
			t.bp.Unpin(f, false)
			return 0, err
		}
		t.root = f.ID()
		t.bp.Unpin(f, true)
		t.height = 1
		rs, err := t.sign(t.acc.Identity())
		if err != nil {
			return 0, err
		}
		t.rootSig = rs
		t.rootU = t.acc.Identity()
		return res.removed, nil
	}
	rs, err := t.sign(res.newU)
	if err != nil {
		return 0, err
	}
	t.rootSig = rs
	t.rootU = res.newU
	// Collapse trivial roots (an internal root with a single child).
	for {
		pt, err := t.pageType(t.root)
		if err != nil {
			return 0, err
		}
		if pt != storage.PageVBInternal {
			break
		}
		n, err := t.fetchInternal(t.root)
		if err != nil {
			return 0, err
		}
		if len(n.keys) > 0 {
			break
		}
		t.root = n.children[0]
		u, err := t.childU(n.sigs[0])
		if err != nil {
			return 0, err
		}
		t.rootU = append(digest.Value(nil), u...)
		if t.merkle {
			// The stored entry is a raw digest; the new root still needs a
			// real signature as the anchor.
			rs, err := t.sign(t.rootU)
			if err != nil {
				return 0, err
			}
			t.rootSig = rs
		} else {
			t.rootSig = n.sigs[0].Clone()
		}
		t.height--
	}
	return res.removed, nil
}

type deleteResult struct {
	newU    digest.Value
	empty   bool
	removed int
}

func (t *Tree) deleteAt(pid storage.PageID, myOldU digest.Value, lo, hi []byte) (deleteResult, error) {
	pt, err := t.pageType(pid)
	if err != nil {
		return deleteResult{}, err
	}
	if pt == storage.PageVBLeaf {
		n, err := t.fetchLeaf(pid)
		if err != nil {
			return deleteResult{}, err
		}
		var keep vbLeaf
		keep.next = n.next
		removed := 0
		for i := range n.keys {
			inRange := (lo == nil || compare(n.keys[i], lo) >= 0) &&
				(hi == nil || compare(n.keys[i], hi) <= 0)
			if inRange {
				if err := t.heap.Delete(n.rids[i]); err != nil {
					return deleteResult{}, err
				}
				removed++
				continue
			}
			keep.keys = append(keep.keys, n.keys[i])
			keep.rids = append(keep.rids, n.rids[i])
			keep.sigs = append(keep.sigs, n.sigs[i])
		}
		if removed == 0 {
			return deleteResult{newU: myOldU}, nil
		}
		if err := t.writeLeaf(pid, &keep); err != nil {
			return deleteResult{}, err
		}
		if len(keep.keys) == 0 {
			return deleteResult{empty: true, removed: removed}, nil
		}
		newU, err := t.combineChildSigs(keep.sigs)
		if err != nil {
			return deleteResult{}, err
		}
		return deleteResult{newU: newU, removed: removed}, nil
	}

	n, err := t.fetchInternal(pid)
	if err != nil {
		return deleteResult{}, err
	}
	acc, err := t.acc.AccFrom(myOldU)
	if err != nil {
		return deleteResult{}, err
	}
	removed := 0
	var detaches []int
	for i := 0; i < len(n.children); i++ {
		clo, chi := n.childSpan(i)
		if !spanIntersects(clo, chi, lo, hi) {
			continue
		}
		childOldU, err := t.childU(n.sigs[i])
		if err != nil {
			return deleteResult{}, err
		}
		res, err := t.deleteAt(n.children[i], childOldU, lo, hi)
		if err != nil {
			return deleteResult{}, err
		}
		removed += res.removed
		if res.removed == 0 {
			continue
		}
		if err := acc.Remove(childOldU); err != nil {
			return deleteResult{}, err
		}
		if res.empty {
			detaches = append(detaches, i)
			continue
		}
		if err := acc.Add(res.newU); err != nil {
			return deleteResult{}, err
		}
		cs, err := t.sealDigest(res.newU)
		if err != nil {
			return deleteResult{}, err
		}
		n.sigs[i] = cs
	}
	// Detach emptied children (highest index first to keep indices valid).
	for j := len(detaches) - 1; j >= 0; j-- {
		i := detaches[j]
		n.children = append(n.children[:i], n.children[i+1:]...)
		n.sigs = append(n.sigs[:i], n.sigs[i+1:]...)
		switch {
		case len(n.keys) == 0:
			// Single-child node lost its child; handled below as empty.
		case i == 0:
			n.keys = n.keys[1:]
		default:
			n.keys = append(n.keys[:i-1], n.keys[i:]...)
		}
	}
	if removed == 0 {
		return deleteResult{newU: myOldU}, nil
	}
	if len(n.children) == 0 {
		return deleteResult{empty: true, removed: removed}, nil
	}
	if err := t.writeInternal(pid, n); err != nil {
		return deleteResult{}, err
	}
	return deleteResult{newU: acc.Value(), removed: removed}, nil
}

func insertKey(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = append([]byte(nil), v...)
	return s
}

func insertSig(s []sig.Signature, i int, v sig.Signature) []sig.Signature {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v.Clone()
	return s
}

func insertRID(s []storage.RecordID, i int, v storage.RecordID) []storage.RecordID {
	s = append(s, storage.RecordID{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertChild(s []storage.PageID, i int, v storage.PageID) []storage.PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
