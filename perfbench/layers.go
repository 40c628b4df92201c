package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"edgeauth/internal/digest"
	"edgeauth/internal/schema"
)

func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// applyBatchSamples is how many extra fresh-key batches the traced run
// commits in-process to time central.Server.ApplyBatch alone.
const applyBatchSamples = 8

// layerMetrics fills the traced run's per-layer metrics from the spans,
// the replayer's counters, and two in-process probes: ApplyBatch on
// extra batches, and the accumulator operations on digests taken from
// this run's own VOs.
func (r *run) layerMetrics(ctx context.Context, out *result, tr *tracer, pool *keyPool, open, untraced openResult) error {
	// central: ApplyBatch in-process on fresh keys.
	for i := 0; i < applyBatchSamples; i++ {
		keys, err := pool.take(batchSize)
		if err != nil {
			return err
		}
		tuples := make([]schema.Tuple, len(keys))
		for j, k := range keys {
			tuples[j] = r.gen.tuple(k)
		}
		t0 := time.Now()
		opErrs, err := r.d.srv.ApplyBatch(tableName, tuples)
		tr.record(0, 0, "central.apply_batch", t0, time.Now())
		if err != nil {
			return fmt.Errorf("ApplyBatch: %w", err)
		}
		for _, e := range opErrs {
			if e != nil {
				return fmt.Errorf("ApplyBatch: %w", e)
			}
		}
	}

	spans := tr.snapshot()
	ms, us := time.Millisecond, time.Microsecond
	out.layer["central.apply_batch_ms"] = median(durationsByName(spans, "central.apply_batch", ms))
	out.layer["client.query_ms"] = median(durationsByName(spans, "client.query", ms))
	out.layer["edge.query_us"] = median(durationsByName(spans, "edge.query", us))
	out.layer["wire.encode_us"] = median(durationsByName(spans, "wire.encode", us))
	out.layer["wire.decode_us"] = median(durationsByName(spans, "wire.decode", us))
	out.layer["verify.verify_us"] = median(durationsByName(spans, "verify.verify", us))
	out.layer["verify.map_verify_us"] = median(durationsByName(spans, "verify.map", us))

	// loadgen: a request's self time is how late the generator sent it
	// (see openLoop).
	self := selfTimes(spans)
	var late []float64
	for _, s := range spans {
		if s.Name == "request" {
			late = append(late, float64(self[s.ID])/float64(ms))
		}
	}
	out.layer["loadgen.late_p99_ms"] = quantile(late, 0.99)
	out.layer["trace.overhead_ratio"] = ratio(quantile(open.latMs, 0.5), quantile(untraced.latMs, 0.5))
	out.note("trace: %d traced vs %d untraced open-loop samples, p50 %.3f vs %.3f ms",
		len(open.latMs), len(untraced.latMs), quantile(open.latMs, 0.5), quantile(untraced.latMs, 0.5))

	p := r.rep
	p.mu.Lock()
	n := float64(p.n)
	dc, sc := p.digestCtr.Snapshot(), p.sigCtr.Snapshot()
	out.layer["rpc.transport_us"] = median(p.transportUs)
	out.layer["client.shards_per_query"] = ratio(float64(p.shards), n)
	out.layer["vo.bytes_per_query"] = ratio(float64(p.voBytes), n)
	out.layer["vo.digests_per_query"] = ratio(float64(p.digests), n)
	out.layer["wire.response_bytes"] = ratio(float64(p.respBytes), n)
	out.layer["digest.hash_ops_per_query"] = ratio(float64(dc.HashOps), n)
	out.layer["digest.combine_ops_per_query"] = ratio(float64(dc.CombineOps), n)
	out.layer["sig.recover_ops_per_query"] = ratio(float64(sc.RecoverOps), n)
	ops := float64(dc.HashOps + dc.CombineOps + sc.RecoverOps)
	out.layer["costmodel.vo_bytes_ratio"] = ratio(float64(p.commBytes), p.predVOBytes)
	out.layer["costmodel.verify_ops_ratio"] = ratio(ops, p.predOps)
	out.note("costmodel.vo_bytes_ratio: %.0f measured VO+result bytes per query vs CommVB %.0f",
		ratio(float64(p.commBytes), n), ratio(p.predVOBytes, n))
	out.note("costmodel.verify_ops_ratio: %.1f measured hash+combine+recover ops per query vs CompVB %.1f (unit costs)",
		ratio(ops, n), ratio(p.predOps, n))
	out.note("replay: %d queries replayed in-process, %.0f result rows per query", p.n, ratio(float64(p.rows), n))
	sample := p.sample
	p.mu.Unlock()

	var hits, misses int64
	for _, cl := range r.d.clients {
		st := cl.VerifyCacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	out.layer["verify.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	if len(sample) < 2 {
		return fmt.Errorf("no VO digests sampled for the accumulator timings")
	}
	return timeDigestOps(out, sample)
}

// timeDigestOps times the accumulator's G, Lift (two levels), Mul and
// Acc.Add over digests from the run's VOs, reporting the median over
// five repetitions of ns per call.
func timeDigestOps(out *result, sample []digest.Value) error {
	acc, err := digest.New(digest.DefaultParams())
	if err != nil {
		return err
	}
	const reps, rounds = 5, 200
	timeOp := func(fn func(i int) error) (float64, error) {
		var per []float64
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			for i := 0; i < rounds*len(sample); i++ {
				if err := fn(i); err != nil {
					return 0, err
				}
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(rounds*len(sample)))
		}
		return median(per), nil
	}
	m := len(sample)
	ops := []struct {
		name string
		fn   func(i int) error
	}{
		{"digest.g_ns", func(i int) error { _, err := acc.G(sample[i%m]); return err }},
		{"digest.lift_ns", func(i int) error { _, err := acc.Lift(sample[i%m], 2); return err }},
		{"digest.mul_ns", func(i int) error { _, err := acc.Mul(sample[i%m], sample[(i+1)%m]); return err }},
	}
	a := acc.NewAcc()
	ops = append(ops, struct {
		name string
		fn   func(i int) error
	}{"digest.acc_add_ns", func(i int) error { return a.Add(sample[i%m]) }})
	for _, op := range ops {
		v, err := timeOp(op.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		out.layer[op.name] = v
	}
	out.note("digest timings over %d digests from this run's VOs", m)
	return nil
}
