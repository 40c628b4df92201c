package vbtree

import (
	"fmt"
	"sync"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
)

// Batched inserts: the group-commit write path of the central server.
//
// The per-tuple Insert maintains every digest on the root-to-leaf path
// incrementally and re-signs each of those nodes for every tuple, so N
// inserts spend N·height RSA signatures on node digests — the root alone
// is re-signed N times. InsertBatch splits the work into three phases:
//
//  1. presign (parallel): each tuple's attribute and tuple-digest
//     signatures (formulas (1)-(2)) are computed by the same bounded
//     worker pool Build uses — they depend only on the schema and key,
//     not on tree state, and they are the irreducible per-tuple cost.
//  2. structural (serial, under the tree lock): tuples are placed into
//     leaves, nodes split, the root grows — with NO digest work at all,
//     only a dirty-set of touched nodes.
//  3. repair: each dirty node's unsigned digest is recomputed once,
//     bottom-up, from its (mostly cached) constituents, then signed
//     exactly once — shared ancestors, the root above all, amortize the
//     RSA cost across the whole batch.
//
// The commutative combiner makes the result provably identical to N
// per-tuple inserts: a node digest is an order-free product of its
// children's lifted digests, so recomputing it once is the same value as
// incrementally folding N times (the equivalence test pins byte-equal
// root signatures).

// BatchStats reports what one committed batch cost.
type BatchStats struct {
	// Applied counts the tuples actually inserted (per-op failures such as
	// duplicate keys are skipped and reported in the error slice).
	Applied int
	// NodesResigned counts the tree nodes whose digest was re-signed —
	// each dirtied node exactly once, however many tuples landed in it.
	NodesResigned int
	// RootResigns counts root re-signs: 1 for any batch that applied at
	// least one tuple, 0 otherwise. The per-tuple path re-signs the root
	// once per tuple; this field existing at all is the point.
	RootResigns int
}

// InsertBatch inserts tuples as one batch and returns per-op errors
// (index-aligned with tuples; nil = inserted) alongside the batch stats.
// A non-nil error is a storage-level failure that may leave the tree
// inconsistent — the same contract as a failed Insert. Tuples that fail
// individually (duplicate key, schema mismatch, oversized entry) do not
// abort the rest of the batch.
func (t *Tree) InsertBatch(tuples []schema.Tuple) (BatchStats, []error, error) {
	if t.signer == nil {
		return BatchStats{}, nil, ErrReadOnly
	}
	if len(tuples) == 0 {
		return BatchStats{}, nil, nil
	}
	opErrs := make([]error, len(tuples))

	// Phase 1: per-tuple digests and signatures, parallel across tuples.
	prep := t.presignTuples(tuples, opErrs)

	t.mu.Lock()
	defer t.mu.Unlock()

	b := &treeBatch{
		t:      t,
		leaves: make(map[storage.PageID]*vbLeaf),
		inners: make(map[storage.PageID]*vbInternal),
		u:      make(map[storage.PageID]digest.Value),
		dirty:  make(map[storage.PageID]bool),
		tupU:   make(map[string]digest.Value),
	}

	// Phase 2: structural inserts; digests untouched, dirty set grows.
	applied := 0
	for i := range prep {
		if opErrs[i] != nil {
			continue
		}
		split, err := b.insertAt(t.root, &prep[i])
		if err != nil {
			if !isOpError(err) {
				return BatchStats{}, opErrs, err
			}
			opErrs[i] = err
			continue
		}
		if split != nil {
			if err := b.growRoot(split); err != nil {
				return BatchStats{}, opErrs, err
			}
		}
		applied++
	}
	if applied == 0 {
		return BatchStats{}, opErrs, nil
	}

	// Phase 3: repair — recompute each dirty node's digest once
	// (bottom-up), sign it once (in parallel), install, flush.
	stats := BatchStats{Applied: applied, RootResigns: 1}
	var err error
	stats.NodesResigned, err = b.repair()
	if err != nil {
		return BatchStats{}, opErrs, err
	}
	return stats, opErrs, nil
}

// preparedTuple carries one tuple's pre-computed crypto into the
// structural phase.
type preparedTuple struct {
	keyBytes []byte
	stored   []byte // encoded heap record (tuple + signed attribute digests)
	ut       digest.Value
	dt       sig.Signature
}

// presignTuples runs phase 1 with the build worker pool; failures land in
// opErrs and leave the slot unused.
func (t *Tree) presignTuples(tuples []schema.Tuple, opErrs []error) []preparedTuple {
	prep := make([]preparedTuple, len(tuples))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < t.buildPar; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				attrs, ut, err := t.tupleDigests(tuples[i])
				if err != nil {
					opErrs[i] = opError(err)
					continue
				}
				st, err := t.makeStored(tuples[i], attrs)
				if err != nil {
					opErrs[i] = opError(err)
					continue
				}
				dt, err := t.sealDigest(ut)
				if err != nil {
					opErrs[i] = opError(err)
					continue
				}
				kb := tuples[i].Key(t.sch).KeyBytes()
				if maxEntry := vbLeafHeader + 2 + len(kb) + 6 + 2 + len(dt); maxEntry > t.bp.PageSize() {
					opErrs[i] = opError(fmt.Errorf("vbtree: leaf entry of %d bytes exceeds page size", maxEntry))
					continue
				}
				prep[i] = preparedTuple{keyBytes: kb, stored: st.EncodeBytes(), ut: ut, dt: dt}
			}
		}()
	}
	for i := range tuples {
		work <- i
	}
	close(work)
	wg.Wait()
	return prep
}

// batchOpError marks failures scoped to one tuple of a batch; the rest of
// the batch proceeds.
type batchOpError struct{ err error }

func (e *batchOpError) Error() string { return e.err.Error() }
func (e *batchOpError) Unwrap() error { return e.err }

func opError(err error) error { return &batchOpError{err: err} }

func isOpError(err error) bool {
	if _, ok := err.(*batchOpError); ok {
		return true
	}
	return err == ErrDuplicateKey
}

// treeBatch is the in-flight state of one InsertBatch: decoded nodes, the
// dirty set, and digest caches used by repair. The decoded node caches
// are authoritative over the page bytes until repair flushes them.
type treeBatch struct {
	t      *Tree
	leaves map[storage.PageID]*vbLeaf
	inners map[storage.PageID]*vbInternal
	// u caches unsigned node digests: recovered once for clean nodes,
	// recomputed bottom-up for dirty ones during repair.
	u map[storage.PageID]digest.Value
	// dirty marks nodes whose subtree changed; exactly these are
	// recomputed and re-signed. Dirtiness propagates to the root.
	dirty map[storage.PageID]bool
	// tupU caches unsigned tuple digests by signature bytes, so leaf
	// recomputation recovers each pre-existing entry at most once per
	// batch (new entries are known without any recovery).
	tupU map[string]digest.Value
}

// placeholderSig reserves exactly one stored entry's worth of space in a
// node entry whose real value is produced by repair, keeping encodedSize
// checks exact during the structural phase.
func (b *treeBatch) placeholderSig() sig.Signature {
	return make(sig.Signature, b.t.storedLen())
}

func (b *treeBatch) leaf(pid storage.PageID) (*vbLeaf, error) {
	if n, ok := b.leaves[pid]; ok {
		return n, nil
	}
	n, err := b.t.fetchLeaf(pid)
	if err != nil {
		return nil, err
	}
	b.leaves[pid] = n
	return n, nil
}

func (b *treeBatch) inner(pid storage.PageID) (*vbInternal, error) {
	if n, ok := b.inners[pid]; ok {
		return n, nil
	}
	n, err := b.t.fetchInternal(pid)
	if err != nil {
		return nil, err
	}
	b.inners[pid] = n
	return n, nil
}

// nodeType resolves a page's role through the decoded caches first, so
// nodes created during this batch (whose pages are not yet encoded) are
// classified correctly.
func (b *treeBatch) nodeType(pid storage.PageID) (storage.PageType, error) {
	if _, ok := b.leaves[pid]; ok {
		return storage.PageVBLeaf, nil
	}
	if _, ok := b.inners[pid]; ok {
		return storage.PageVBInternal, nil
	}
	return b.t.pageType(pid)
}

// insertAt inserts one prepared tuple under pid — structurally only. A
// returned split carries the new right sibling; digests are repaired
// after the whole batch has been placed.
func (b *treeBatch) insertAt(pid storage.PageID, pt *preparedTuple) (*vbSplit, error) {
	nt, err := b.nodeType(pid)
	if err != nil {
		return nil, err
	}
	if nt == storage.PageVBLeaf {
		return b.insertLeaf(pid, pt)
	}

	n, err := b.inner(pid)
	if err != nil {
		return nil, err
	}
	ci := n.childIndex(pt.keyBytes)
	split, err := b.insertAt(n.children[ci], pt)
	if err != nil {
		return nil, err
	}
	// The subtree under us changed, so our digest will too.
	b.dirty[pid] = true
	if split != nil {
		n.keys = insertKey(n.keys, ci, split.sep)
		n.children = insertChild(n.children, ci+1, split.right)
		// Signature-length placeholder (so size checks are exact); repair
		// signs the new child once, at the end.
		n.sigs = insertSig(n.sigs, ci+1, b.placeholderSig())
	}
	if n.encodedSize() <= b.t.bp.PageSize() {
		return nil, nil
	}
	return b.splitInner(pid, n)
}

func (b *treeBatch) insertLeaf(pid storage.PageID, pt *preparedTuple) (*vbSplit, error) {
	n, err := b.leaf(pid)
	if err != nil {
		return nil, err
	}
	i := n.search(pt.keyBytes)
	if i < len(n.keys) && compare(n.keys[i], pt.keyBytes) == 0 {
		return nil, ErrDuplicateKey
	}
	rid, err := b.t.heap.Insert(pt.stored)
	if err != nil {
		return nil, err
	}
	n.keys = insertKey(n.keys, i, pt.keyBytes)
	n.rids = insertRID(n.rids, i, rid)
	n.sigs = insertSig(n.sigs, i, pt.dt)
	b.tupU[string(pt.dt)] = pt.ut
	b.dirty[pid] = true

	if n.encodedSize() <= b.t.bp.PageSize() {
		return nil, nil
	}

	mid := len(n.keys) / 2
	rf, err := b.t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return nil, err
	}
	rightPid := rf.ID()
	b.t.bp.Unpin(rf, true)
	right := &vbLeaf{
		next: n.next,
		keys: append([][]byte(nil), n.keys[mid:]...),
		rids: append([]storage.RecordID(nil), n.rids[mid:]...),
		sigs: append([]sig.Signature(nil), n.sigs[mid:]...),
	}
	n.keys = n.keys[:mid]
	n.rids = n.rids[:mid]
	n.sigs = n.sigs[:mid]
	n.next = rightPid
	b.leaves[rightPid] = right
	b.dirty[rightPid] = true
	return &vbSplit{sep: append([]byte(nil), right.keys[0]...), right: rightPid}, nil
}

// splitInner splits an overflowing internal node (structurally).
func (b *treeBatch) splitInner(pid storage.PageID, n *vbInternal) (*vbSplit, error) {
	mid := len(n.keys) / 2
	upKey := append([]byte(nil), n.keys[mid]...)
	rf, err := b.t.bp.NewPage(storage.PageVBInternal)
	if err != nil {
		return nil, err
	}
	rightPid := rf.ID()
	b.t.bp.Unpin(rf, true)
	right := &vbInternal{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]storage.PageID(nil), n.children[mid+1:]...),
		sigs:     append([]sig.Signature(nil), n.sigs[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	n.sigs = n.sigs[:mid+1]
	b.inners[rightPid] = right
	b.dirty[rightPid] = true
	return &vbSplit{sep: upKey, right: rightPid}, nil
}

// growRoot installs a new root over the split halves of the old one.
func (b *treeBatch) growRoot(split *vbSplit) error {
	f, err := b.t.bp.NewPage(storage.PageVBInternal)
	if err != nil {
		return err
	}
	newRootPid := f.ID()
	b.t.bp.Unpin(f, true)
	b.inners[newRootPid] = &vbInternal{
		keys:     [][]byte{split.sep},
		children: []storage.PageID{b.t.root, split.right},
		// Repair signs both children once, at the end.
		sigs: []sig.Signature{b.placeholderSig(), b.placeholderSig()},
	}
	b.dirty[newRootPid] = true
	b.t.root = newRootPid
	b.t.height++
	return nil
}

// computeU returns a dirty node's recomputed unsigned digest, recursing
// bottom-up; clean constituents are recovered from their stored (still
// valid) signatures at most once per batch.
func (b *treeBatch) computeU(pid storage.PageID) (digest.Value, error) {
	if u, ok := b.u[pid]; ok {
		return u, nil
	}
	if n, ok := b.leaves[pid]; ok {
		acc := b.t.acc.NewAcc()
		for _, s := range n.sigs {
			u, ok := b.tupU[string(s)]
			if !ok {
				var err error
				if u, err = b.t.childU(s); err != nil {
					return nil, err
				}
				b.tupU[string(s)] = u
			}
			if err := acc.Add(u); err != nil {
				return nil, err
			}
		}
		u := acc.Value()
		b.u[pid] = u
		return u, nil
	}
	n, ok := b.inners[pid]
	if !ok {
		return nil, fmt.Errorf("vbtree: dirty node %d missing from batch cache", pid)
	}
	acc := b.t.acc.NewAcc()
	for i, child := range n.children {
		var u digest.Value
		var err error
		if b.dirty[child] {
			u, err = b.computeU(child)
		} else {
			u, err = b.cleanU(child, n.sigs[i])
		}
		if err != nil {
			return nil, err
		}
		if err := acc.Add(u); err != nil {
			return nil, err
		}
	}
	u := acc.Value()
	b.u[pid] = u
	return u, nil
}

// cleanU reads an untouched node's digest from its stored entry (one
// recovery per batch under the legacy scheme, a cast under Merkle).
func (b *treeBatch) cleanU(pid storage.PageID, stored sig.Signature) (digest.Value, error) {
	if u, ok := b.u[pid]; ok {
		return u, nil
	}
	u, err := b.t.childU(stored)
	if err != nil {
		return nil, err
	}
	b.u[pid] = u
	return u, nil
}

// repair recomputes each dirty node's digest once (bottom-up from the
// root's dirty spine), seals each exactly once, installs the fresh
// entries into parents and the root anchor, and flushes every dirtied
// page. Under the legacy scheme each dirty node is re-signed (in
// parallel); under a Merkle scheme the entries are the raw digests and
// exactly ONE signature is produced — over the root. Returns how many
// signatures the repair spent.
func (b *treeBatch) repair() (int, error) {
	if _, err := b.computeU(b.t.root); err != nil {
		return 0, err
	}

	dirty := make([]storage.PageID, 0, len(b.dirty))
	for pid := range b.dirty {
		dirty = append(dirty, pid)
	}
	sigs := make(map[storage.PageID]sig.Signature, len(dirty))
	signed := len(dirty)
	if b.t.merkle {
		signed = 1
		for _, pid := range dirty {
			sigs[pid] = sig.Signature(append([]byte(nil), b.u[pid]...))
		}
	} else {
		var sigMu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		work := make(chan storage.PageID)
		for w := 0; w < b.t.buildPar; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pid := range work {
					s, err := b.t.sign(b.u[pid])
					sigMu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
					} else {
						sigs[pid] = s
					}
					sigMu.Unlock()
				}
			}()
		}
		for _, pid := range dirty {
			work <- pid
		}
		close(work)
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
	}

	// Install child entries into every cached parent, then flush. Every
	// dirty node's parent is itself dirty (digest changes propagate to the
	// root), so walking the cached internals covers all installations.
	for pid, n := range b.inners {
		if !b.dirty[pid] {
			continue
		}
		for i, child := range n.children {
			if s, ok := sigs[child]; ok {
				n.sigs[i] = s
			}
		}
		if err := b.t.writeInternal(pid, n); err != nil {
			return 0, err
		}
	}
	for pid, n := range b.leaves {
		if !b.dirty[pid] {
			continue
		}
		if err := b.t.writeLeaf(pid, n); err != nil {
			return 0, err
		}
	}
	if b.t.merkle {
		rs, err := b.t.sign(b.u[b.t.root])
		if err != nil {
			return 0, err
		}
		b.t.rootSig = rs
	} else {
		b.t.rootSig = sigs[b.t.root]
	}
	b.t.rootU = b.u[b.t.root]
	return signed, nil
}
