// Package vbtree implements the Verifiable B-tree of Pang & Tan (ICDE
// 2004): a B+-tree on the primary key of a table, extended with signed
// digests at every level —
//
//	attribute: d_a = s(h(db|table|attr|key|value))          (formula 1)
//	tuple:     D_T = s(Π g(d_a unsigned))                   (formula 2)
//	node:      D_N = s(Π g(U_child))                        (formula 3)
//
// — with the root's signed digest kept in the tree metadata. Tuples live
// in a heap file as vo.StoredTuple records (values + signed attribute
// digests); leaves store (key, record id, D_T); internal nodes store the
// signed digest of each child alongside the child pointer, exactly as in
// the paper's Figure 3.
//
// The tree plays two roles. At the trusted central server (Config.Signer
// set) it supports construction, insert and delete, maintaining digests
// incrementally via the commutative combiner. At an untrusted edge server
// (Signer nil) it answers range/filter/projection queries, producing a
// verification object over the enveloping subtree (paper §3.3).
//
// Concurrency does not follow the paper's §3.4 page-lock protocol, which
// is not implemented. Every mutation (Insert, DeleteRange, ApplyBatch)
// holds the tree's mutex exclusively, so writers to one tree serialize.
// Readers do not lock pages: the servers answer queries from a View over
// an immutable published snapshot (TableState.ViewOver).
package vbtree

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vo"
)

// Common errors.
var (
	ErrDuplicateKey = errors.New("vbtree: duplicate key")
	ErrKeyNotFound  = errors.New("vbtree: key not found")
	ErrReadOnly     = errors.New("vbtree: tree has no signer (edge replica is read-only)")
)

// Config assembles a tree's dependencies.
type Config struct {
	// Pool is the buffer pool holding the tree and heap pages.
	Pool *storage.BufferPool
	// Heap stores the vo.StoredTuple records.
	Heap *storage.HeapFile
	// Schema describes the indexed table.
	Schema *schema.Schema
	// Acc is the digest accumulator (hash h + combiner g).
	Acc *digest.Accumulator
	// Signer is the central server's private key; nil for edge replicas.
	Signer *sig.PrivateKey
	// Pub verifies/recovers digests; required.
	Pub *sig.PublicKey
	// Now supplies timestamps for VOs; defaults to time.Now.
	Now func() int64
	// BuildParallelism bounds the signing workers used by Build.
	// Zero selects a reasonable default.
	BuildParallelism int
}

func (c *Config) validate() error {
	if c.Pool == nil || c.Heap == nil {
		return errors.New("vbtree: config requires Pool and Heap")
	}
	if c.Schema == nil {
		return errors.New("vbtree: config requires Schema")
	}
	if err := c.Schema.Validate(); err != nil {
		return err
	}
	if c.Acc == nil {
		return errors.New("vbtree: config requires Acc")
	}
	if c.Pub == nil {
		return errors.New("vbtree: config requires Pub")
	}
	return nil
}

// Tree is a verifiable B-tree.
type Tree struct {
	mu     sync.RWMutex
	bp     *storage.BufferPool
	heap   *storage.HeapFile
	sch    *schema.Schema
	acc    *digest.Accumulator
	signer *sig.PrivateKey
	pub    *sig.PublicKey
	now    func() int64

	root    storage.PageID
	height  int // levels, leaves = level 1
	rootSig sig.Signature

	// merkle is derived from Pub.Scheme: interior entries (attribute,
	// tuple and node digests) are stored as raw unsigned digest values and
	// only the root digest is signed. The stored layout is unchanged —
	// entries are length-prefixed either way — but every commit spends
	// exactly one signature instead of one per dirtied node.
	merkle bool
	// rootU tracks the unsigned root digest alongside rootSig, so
	// RootDigest (the per-commit shard-map pin) costs no RSA recovery.
	rootU digest.Value

	buildPar int
}

// New creates an empty tree (a single empty leaf whose digest is the
// signed identity). Requires a signer.
func New(cfg Config) (*Tree, error) {
	t, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	if t.signer == nil {
		return nil, ErrReadOnly
	}
	f, err := t.bp.NewPage(storage.PageVBLeaf)
	if err != nil {
		return nil, err
	}
	leaf := &vbLeaf{}
	if err := leaf.encode(f.Page().Bytes()); err != nil {
		t.bp.Unpin(f, false)
		return nil, err
	}
	t.root = f.ID()
	t.bp.Unpin(f, true)
	t.height = 1
	rs, err := t.signer.Sign(t.acc.Identity())
	if err != nil {
		return nil, err
	}
	t.rootSig = rs
	t.rootU = t.acc.Identity()
	return t, nil
}

// Open reattaches to an existing tree (e.g. an edge replica restored from
// a snapshot).
func Open(cfg Config, root storage.PageID, height int, rootSig sig.Signature) (*Tree, error) {
	t, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	if root == storage.InvalidPageID || height < 1 || len(rootSig) == 0 {
		return nil, errors.New("vbtree: invalid tree metadata")
	}
	t.root = root
	t.height = height
	t.rootSig = rootSig.Clone()
	if t.merkle {
		// No message recovery under a Merkle scheme: recompute the root
		// digest from the root node's raw child entries.
		u, err := t.nodeDigest(root)
		if err != nil {
			return nil, err
		}
		t.rootU = u
	} else {
		u, err := t.recoverDigest(t.rootSig)
		if err != nil {
			return nil, err
		}
		t.rootU = u
	}
	return t, nil
}

// nodeDigest recomputes a node's unsigned digest from its stored entries.
func (t *Tree) nodeDigest(pid storage.PageID) (digest.Value, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, err
	}
	buf := f.Page().Bytes()
	var sigs []sig.Signature
	switch storage.PageType(buf[0]) {
	case storage.PageVBLeaf:
		n, err := decodeVBLeaf(buf)
		t.bp.Unpin(f, false)
		if err != nil {
			return nil, err
		}
		sigs = n.sigs
	case storage.PageVBInternal:
		n, err := decodeVBInternal(buf)
		t.bp.Unpin(f, false)
		if err != nil {
			return nil, err
		}
		sigs = n.sigs
	default:
		t.bp.Unpin(f, false)
		return nil, fmt.Errorf("vbtree: unexpected page type %d", buf[0])
	}
	return t.combineChildSigs(sigs)
}

func attach(cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().Unix() }
	}
	par := cfg.BuildParallelism
	if par <= 0 {
		par = 4
	}
	return &Tree{
		bp:       cfg.Pool,
		heap:     cfg.Heap,
		sch:      cfg.Schema,
		acc:      cfg.Acc,
		signer:   cfg.Signer,
		pub:      cfg.Pub,
		now:      now,
		merkle:   cfg.Pub.Scheme.Merkle(),
		buildPar: par,
	}, nil
}

// Schema returns the indexed table's schema.
func (t *Tree) Schema() *schema.Schema { return t.sch }

// Accumulator returns the digest accumulator.
func (t *Tree) Accumulator() *digest.Accumulator { return t.acc }

// Root returns the root page id.
func (t *Tree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// Height returns the number of levels (leaves = 1).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// RootSig returns the signed digest of the root node — the value a client
// ultimately anchors trust in (via the VO's enveloping-subtree digest).
func (t *Tree) RootSig() sig.Signature {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rootSig.Clone()
}

// RootDigest returns the unsigned root digest — the value a signed shard
// map pins for this tree. The tree tracks it alongside the root
// signature, so the per-commit call by the sharded central server costs
// no RSA recovery.
func (t *Tree) RootDigest() (digest.Value, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rootU != nil {
		return append(digest.Value(nil), t.rootU...), nil
	}
	return t.recoverDigest(t.rootSig)
}

// MerkleMode reports whether interior entries are raw Merkle commitments
// (only the root digest signed).
func (t *Tree) MerkleMode() bool { return t.merkle }

// sign signs an unsigned digest with the central server's key.
func (t *Tree) sign(u digest.Value) (sig.Signature, error) {
	if t.signer == nil {
		return nil, ErrReadOnly
	}
	return t.signer.Sign(u)
}

// currentRootU returns the tracked unsigned root digest, recovering it
// from the root signature if it was never computed. Caller holds t.mu.
func (t *Tree) currentRootU() (digest.Value, error) {
	if t.rootU != nil {
		return t.rootU, nil
	}
	u, err := t.recoverDigest(t.rootSig)
	if err != nil {
		return nil, err
	}
	t.rootU = u
	return u, nil
}

// sealDigest produces the stored form of an interior digest: under a
// Merkle scheme the raw digest itself (a hash-only commitment), under the
// legacy scheme an RSA signature over it. Roots are always signed with
// t.sign regardless of mode — they are the anchor of trust.
func (t *Tree) sealDigest(u digest.Value) (sig.Signature, error) {
	if t.merkle {
		return sig.Signature(append([]byte(nil), u...)), nil
	}
	return t.sign(u)
}

// childU returns the unsigned digest committed by a stored interior
// entry: a cast under a Merkle scheme, s⁻¹ under the legacy scheme.
func (t *Tree) childU(s sig.Signature) (digest.Value, error) {
	if t.merkle {
		if len(s) != t.acc.Len() {
			return nil, fmt.Errorf("vbtree: merkle entry has %d bytes, want %d", len(s), t.acc.Len())
		}
		return digest.Value(s), nil
	}
	return t.recoverDigest(s)
}

// storedLen is the byte length of one stored interior entry.
func (t *Tree) storedLen() int {
	if t.merkle {
		return t.acc.Len()
	}
	return t.pub.Len()
}

// recover applies s⁻¹ and validates the payload length.
func (t *Tree) recoverDigest(s sig.Signature) (digest.Value, error) {
	payload, err := t.pub.Recover(s)
	if err != nil {
		return nil, err
	}
	if len(payload) != t.acc.Len() {
		return nil, fmt.Errorf("vbtree: recovered digest has %d bytes, want %d", len(payload), t.acc.Len())
	}
	return digest.Value(payload), nil
}

// attrDigest computes the unsigned attribute digest of formula (1).
func (t *Tree) attrDigest(keyBytes []byte, col int, val schema.Datum) digest.Value {
	return t.acc.HashAttribute(t.sch.DB, t.sch.Table, t.sch.Columns[col].Name, keyBytes, val.CanonicalBytes())
}

// tupleDigests computes all unsigned attribute digests and the unsigned
// tuple digest U_T of formula (2).
func (t *Tree) tupleDigests(tup schema.Tuple) (attrs []digest.Value, ut digest.Value, err error) {
	if len(tup.Values) != len(t.sch.Columns) {
		return nil, nil, fmt.Errorf("vbtree: tuple has %d values for %d columns", len(tup.Values), len(t.sch.Columns))
	}
	keyBytes := tup.Key(t.sch).KeyBytes()
	attrs = make([]digest.Value, len(tup.Values))
	acc := t.acc.NewAcc()
	for i, v := range tup.Values {
		if v.Type != t.sch.Columns[i].Type {
			return nil, nil, fmt.Errorf("vbtree: column %q: value type %v, want %v",
				t.sch.Columns[i].Name, v.Type, t.sch.Columns[i].Type)
		}
		attrs[i] = t.attrDigest(keyBytes, i, v)
		if err := acc.Add(attrs[i]); err != nil {
			return nil, nil, err
		}
	}
	return attrs, acc.Value(), nil
}

// makeStored seals the attribute digests (signing them under the legacy
// scheme, storing them raw under a Merkle scheme) and assembles the heap
// record.
func (t *Tree) makeStored(tup schema.Tuple, attrs []digest.Value) (*vo.StoredTuple, error) {
	st := &vo.StoredTuple{Tuple: tup, AttrSigs: make([]sig.Signature, len(attrs))}
	for i, a := range attrs {
		s, err := t.sealDigest(a)
		if err != nil {
			return nil, err
		}
		st.AttrSigs[i] = s
	}
	return st, nil
}

// Stats describes the tree's physical shape (Figures 8–9 measurements).
type Stats struct {
	Height            int
	InternalNodes     int
	LeafNodes         int
	Entries           int
	AvgInternalFanOut float64
	MaxLeafEntries    int
	MaxInternalFanOut int
}

// Stats walks the tree. keyLen parameterizes the analytic capacity bounds
// (formula (6): VB-tree fan-out for a given key and signature length).
func (t *Tree) Stats(keyLen int) (Stats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sigLen := t.storedLen()
	s := Stats{
		MaxLeafEntries:    MaxLeafEntries(t.bp.PageSize(), keyLen, sigLen),
		MaxInternalFanOut: MaxInternalFanOut(t.bp.PageSize(), keyLen, sigLen),
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
		case storage.PageVBLeaf:
			n, err := decodeVBLeaf(buf)
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
		case storage.PageVBInternal:
			n, err := decodeVBInternal(buf)
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
			return fmt.Errorf("vbtree: unexpected page type %d", buf[0])
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

// MaxLeafEntries is the leaf capacity for fixed key and signature lengths.
func MaxLeafEntries(pageSize, keyLen, sigLen int) int {
	return (pageSize - vbLeafHeader) / (2 + keyLen + 6 + 2 + sigLen)
}

// MaxInternalFanOut is the paper's formula (6): the VB-tree fan-out, where
// each child entry additionally carries a signed digest of length sigLen.
func MaxInternalFanOut(pageSize, keyLen, sigLen int) int {
	return 1 + (pageSize-vbInternalHeader-(2+sigLen)-4)/(2+keyLen+4+2+sigLen)
}
