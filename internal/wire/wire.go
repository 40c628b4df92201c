// Package wire defines the binary protocol spoken between clients, edge
// servers and the central server (the arrows of the paper's Figure 2).
// Every table is range-partitioned into n ≥ 1 shards bound by a signed
// shard map, and replication and queries address one shard at a time
// (see shard.go):
//
//	client → edge:    ShardMapReq, ShardQueryReq (verified scatter-gather)
//	edge   → central: ShardMapReq, ShardSnapshotReq, ShardDeltaReq
//	central→ edge:    ShardMapResp, SnapshotResp, DeltaResp
//	client → central: InsertReq/BatchReq/DeleteReq (updates go to the
//	                  trusted server)
//	client → central: PubKeyReq (the PKI stand-in: an authenticated
//	                  channel to the signer's public key)
//
// # Delta propagation
//
// The paper propagates updates from the trusted central DBMS to edge
// servers periodically. Re-shipping a full snapshot per refresh is
// O(table); the delta frames ship only what changed:
//
//   - ShardDeltaReq carries {table, shard, fromVersion, epoch}, where
//     fromVersion is the shard version the edge's replica currently
//     reflects (versions are bumped once per committed update at the
//     central server, in lockstep with the WAL's LSNs).
//   - DeltaResp carries {fromVersion, toVersion, tree metadata, the pages
//     dirtied by the ops in (fromVersion, toVersion]} plus a signature by
//     the central server over a hash of the delta content, so an edge
//     rejects corrupted or forged deltas before touching its replica.
//     Page payloads carry the VB-tree's signed digests, so a delta also
//     re-anchors client verification at the new root signature.
//   - When the central server's retained changelog no longer covers
//     fromVersion (retention window passed, or the server restarted),
//     DeltaResp has SnapshotNeeded set and the edge falls back to a
//     ShardSnapshotReq.
//
// Frames are u32 length | u8 type | body, big-endian, with a hard frame
// cap to bound allocation from untrusted peers.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MsgType tags a frame.
type MsgType uint8

// The numbering is part of the protocol. Retired types keep their slots
// (marked _) so every live type keeps its number.
const (
	MsgError MsgType = iota + 1
	_                // 2: retired single-tree query request
	_                // 3: retired single-tree query response
	_                // 4: retired single-tree snapshot request
	MsgSnapshotResp
	MsgListTablesReq
	MsgListTablesResp
	MsgPubKeyReq
	MsgPubKeyResp
	MsgSchemaReq
	MsgSchemaResp
	MsgInsertReq
	MsgInsertResp
	MsgDeleteReq
	MsgDeleteResp
	MsgVersionReq
	MsgVersionResp
	_ // 18: retired single-tree delta request
	MsgDeltaResp
	// MsgHello / MsgHelloResp open every session (see v2.go). They
	// travel in the request-ID-less frame of WriteFrame, before the
	// session switches to v2 framing.
	MsgHello
	MsgHelloResp
	// MsgBatchReq / MsgBatchResp carry a group-committed insert batch to
	// the central server and its typed per-op results back (see batch.go).
	MsgBatchReq
	MsgBatchResp
	// Shard-scoped frames (see shard.go). ShardMapResp carries a
	// shardmap.Signed encoding; shard snapshots and deltas are answered
	// with MsgSnapshotResp and MsgDeltaResp.
	MsgShardMapReq
	MsgShardMapResp
	MsgShardSnapshotReq
	MsgShardDeltaReq
	MsgShardQueryReq
	MsgShardQueryResp
	// MsgReshardReq / MsgReshardResp carry an online partition-transition
	// command (split a hot shard, merge a cold pair) to the central
	// server's admin surface (see shard.go).
	MsgReshardReq
	MsgReshardResp
)

func (m MsgType) String() string {
	names := map[MsgType]string{
		MsgError: "error", MsgSnapshotResp: "snapshot-resp",
		MsgListTablesReq: "list-tables-req", MsgListTablesResp: "list-tables-resp",
		MsgPubKeyReq: "pubkey-req", MsgPubKeyResp: "pubkey-resp",
		MsgSchemaReq: "schema-req", MsgSchemaResp: "schema-resp",
		MsgInsertReq: "insert-req", MsgInsertResp: "insert-resp",
		MsgDeleteReq: "delete-req", MsgDeleteResp: "delete-resp",
		MsgVersionReq: "version-req", MsgVersionResp: "version-resp",
		MsgDeltaResp: "delta-resp", MsgHello: "hello", MsgHelloResp: "hello-resp",
		MsgBatchReq: "batch-req", MsgBatchResp: "batch-resp",
		MsgShardMapReq: "shard-map-req", MsgShardMapResp: "shard-map-resp",
		MsgShardSnapshotReq: "shard-snapshot-req",
		MsgShardDeltaReq:    "shard-delta-req",
		MsgShardQueryReq:    "shard-query-req",
		MsgShardQueryResp:   "shard-query-resp",
		MsgReshardReq:       "reshard-req",
		MsgReshardResp:      "reshard-resp",
	}
	if n, ok := names[m]; ok {
		return n
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// MaxFrameSize bounds a single frame (1 GiB) to keep a malicious peer from
// forcing unbounded allocation.
const MaxFrameSize = 1 << 30

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t MsgType, body []byte) error {
	if len(body)+1 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return MsgType(buf[0]), buf[1:], nil
}

// WriteError sends a typed error frame in the handshake framing of
// WriteFrame: the answer to a session opening that is not a valid Hello.
func WriteError(w io.Writer, err error) error {
	return WriteFrame(w, MsgError, ToWireError(err).Encode())
}

// --- primitive encoding helpers shared by the message codecs ---

func appendU8(dst []byte, v uint8) []byte { return append(dst, v) }
func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}
func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}
func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}
func appendBytes(dst []byte, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// reader is a cursor over a frame body.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := make([]byte, n)
	copy(b, r.data[r.off:r.off+n])
	r.off += n
	return b
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.data)-r.off)
	}
	return nil
}
