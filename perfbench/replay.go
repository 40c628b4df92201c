package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/edge"
	"edgeauth/internal/query"
	"edgeauth/internal/shardmap"
	"edgeauth/internal/sig"
	"edgeauth/internal/verify"
	"edgeauth/internal/vo"
	"edgeauth/internal/wire"
)

// replayer re-runs a sample of traced queries in-process, one layer call
// at a time, so each layer's share of a client.Query can be timed: the
// edge's RunShardQuery, the wire encode and decode of its response, and
// the client-side map and VO verification — on the benchmark's own
// verifier, whose accumulator and key count digest and signature work.
type replayer struct {
	eg        *edge.Server
	tr        *tracer
	nr        int // rows in the table, for the cost model
	v         *verify.Verifier
	digestCtr *digest.Counters // hash/combine ops of the replay verifier
	sigCtr    *digest.Counters // signature recoveries of the replay key

	mu          sync.Mutex
	n           int       // replayed queries
	transportUs []float64 // client.Query span minus the replayed layers
	shards      int
	respBytes   int64
	voBytes     int64 // VO wire bytes
	commBytes   int64 // VO plus result wire bytes, what CommVB predicts
	digests     int64
	rows        int64
	predVOBytes float64 // costmodel CommVB summed over the replays
	predOps     float64 // costmodel CompVB (unit costs) summed
	sample      []digest.Value
}

func newReplayer(eg *edge.Server, pub *sig.PublicKey, nr int, tr *tracer) (*replayer, error) {
	p := &replayer{eg: eg, tr: tr, nr: nr, digestCtr: new(digest.Counters), sigCtr: new(digest.Counters)}
	params := digest.DefaultParams()
	params.Counters = p.digestCtr
	acc, err := digest.New(params)
	if err != nil {
		return nil, err
	}
	key := *pub
	key.Counters = p.sigCtr
	reg := sig.NewRegistry()
	reg.Put(&key)
	p.v = &verify.Verifier{Keys: reg, Acc: acc, Schema: benchSchema()}
	return p, nil
}

// replay runs q through every layer in-process under request req, whose
// client.Query took clientDur over TCP.
func (p *replayer) replay(ctx context.Context, q rangeQuery, req int64, clientDur time.Duration) error {
	tr := p.tr
	root := tr.reserve()
	t0 := time.Now()
	vq, err := query.Compile(p.v.Schema, query.Spec{Predicates: q.preds(), Project: q.project()})
	if err != nil {
		return err
	}
	routing, err := p.eg.SignedShardMap(tableName)
	if err != nil {
		return err
	}
	first, last := routing.Map.ShardsForRange(vq.Lo, vq.Hi)
	var layers time.Duration
	span := func(name string, fn func() error) error {
		s := time.Now()
		err := fn()
		e := time.Now()
		tr.record(root, req, name, s, e)
		layers += e.Sub(s)
		return err
	}
	var respBytes, voBytes, commBytes, digests, rows int
	var predVO, predOps float64
	var sample []digest.Value
	for idx := first; idx <= last; idx++ {
		var rs *vo.ResultSet
		var w *vo.VO
		var sm *shardmap.Signed
		if err := span("edge.query", func() (err error) {
			rs, w, sm, err = p.eg.RunShardQuery(ctx, tableName, uint32(idx), vq)
			return err
		}); err != nil {
			return fmt.Errorf("edge query shard %d: %w", idx, err)
		}
		var body []byte
		_ = span("wire.encode", func() error {
			body = (&wire.ShardQueryResponse{Resp: &wire.QueryResponse{Result: rs, VO: w}, SignedMap: sm.Encode()}).Encode()
			return nil
		})
		var resp *wire.ShardQueryResponse
		if err := span("wire.decode", func() (err error) {
			resp, err = wire.DecodeShardQueryResponse(body)
			return err
		}); err != nil {
			return err
		}
		var bound *shardmap.Signed
		if err := span("verify.map", func() (err error) {
			if bound, err = shardmap.DecodeSigned(resp.SignedMap); err != nil {
				return err
			}
			return p.v.VerifyShardMap(bound, tableName)
		}); err != nil {
			return fmt.Errorf("shard map: %w", err)
		}
		if err := span("verify.verify", func() error {
			return p.v.VerifyAnchored(resp.Resp.Result, resp.Resp.VO, bound.Map.Shards[idx].RootDigest)
		}); err != nil {
			return fmt.Errorf("verify shard %d: %w", idx, err)
		}
		respBytes += len(body)
		voBytes += resp.Resp.VO.WireSize()
		commBytes += resp.Resp.VO.WireSize() + resp.Resp.Result.WireSize()
		digests += resp.Resp.VO.NumDigests()
		qr := len(resp.Resp.Result.Tuples)
		rows += qr
		model := modelParams(p.nr/len(routing.Map.Shards), q.qc())
		predVO += float64(model.CommVB(qr))
		predOps += model.CompVB(qr)
		if len(sample) == 0 {
			sample = vodigests(resp.Resp.VO, p.v.Acc.Len())
		}
	}
	tr.finish(root, 0, req, "replay", t0, time.Now())

	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	p.transportUs = append(p.transportUs, float64(clientDur-layers)/float64(time.Microsecond))
	p.shards += last - first + 1
	p.respBytes += int64(respBytes)
	p.voBytes += int64(voBytes)
	p.commBytes += int64(commBytes)
	p.digests += int64(digests)
	p.rows += int64(rows)
	p.predVOBytes += predVO
	p.predOps += predOps
	if len(p.sample) < 64 {
		p.sample = append(p.sample, sample...)
	}
	return nil
}

// vodigests returns the raw digests a Merkle-scheme VO carries, the
// operands the client's accumulator works on.
func vodigests(w *vo.VO, size int) []digest.Value {
	var out []digest.Value
	add := func(b []byte) {
		if len(b) == size {
			out = append(out, digest.Value(append([]byte(nil), b...)))
		}
	}
	add(w.TopDigest)
	for _, e := range w.DS {
		add(e.Sig)
	}
	for _, d := range w.DP {
		add(d)
	}
	return out
}
