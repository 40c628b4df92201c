package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"edgeauth/internal/client"
	"edgeauth/internal/schema"
)

// requestTimeout bounds one operation; a timed-out operation counts as
// failed.
const requestTimeout = 10 * time.Second

// counters tallies operations and answer sizes across all phases.
type counters struct {
	attempted, failed, wrong atomic.Int64
	answers, rows, voBytes   atomic.Int64
	firstErr                 atomic.Pointer[string]
}

func (c *counters) fail(wrong bool, format string, args ...any) {
	c.failed.Add(1)
	if wrong {
		c.wrong.Add(1)
	}
	msg := fmt.Sprintf(format, args...)
	c.firstErr.CompareAndSwap(nil, &msg)
}

// query issues one verified range read through cl, checks the answer and
// records it; it returns the answer (nil when the query failed or the
// answer was wrong) and when client.Query was called and returned, so the
// oracle check is in no timing. parent and req tie the client span to its
// request when the run is traced (tr non-nil).
func (r *run) query(ctx context.Context, cl *client.Client, q rangeQuery, tr *tracer, parent, req int64) (res *client.QueryResult, sent, done time.Time) {
	r.ctr.attempted.Add(1)
	qctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	sent = time.Now()
	res, err := cl.Query(qctx, tableName, q.preds(), q.project())
	done = time.Now()
	tr.record(parent, req, "client.query", sent, done)
	if err != nil {
		r.ctr.fail(false, "query [%d,%d]: %v", q.lo, q.hi, err)
		return nil, sent, done
	}
	if err := checkAnswer(r.gen, q, res, r.model, sent.Sub(r.epoch), done.Sub(r.epoch)); err != nil {
		r.ctr.fail(true, "oracle mismatch on [%d,%d]: %v", q.lo, q.hi, err)
		return nil, sent, done
	}
	r.ctr.answers.Add(1)
	r.ctr.rows.Add(int64(len(res.Result.Tuples)))
	r.ctr.voBytes.Add(int64(res.VOBytes))
	return res, sent, done
}

// checkWrites reads n ranges through the first client after the write
// probe, untimed, and checks each answer against the key model: every
// acked and refreshed insert must be served, no refreshed delete.
func (r *run) checkWrites(ctx context.Context, n int) {
	g := newQueryGen(r.seed*86028121, r.w, r.cuts)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		r.query(ctx, r.d.clients[0], g.next(), nil, 0, 0)
	}
}

// warmup runs n queries per client before timing, so schema, shard-map
// and signature caches are filled and connections are open.
func (r *run) warmup(ctx context.Context, n int) {
	var wg sync.WaitGroup
	for i, cl := range r.d.clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			g := newQueryGen(r.seed*7919+int64(i), r.w, r.cuts)
			for j := 0; j < n && ctx.Err() == nil; j++ {
				r.query(ctx, cl, g.next(), nil, 0, 0)
			}
		}(i, cl)
	}
	wg.Wait()
}

// closedLoop runs one worker on the first client, sending its next query
// when the previous one is answered, for dur. It returns the verified
// answers per second of each half-second window; the run reports their
// median, so a stall in one window (a GC cycle, a noisy neighbour) does
// not move the figure.
func (r *run) closedLoop(ctx context.Context, dur time.Duration, stream int64) []float64 {
	const window = 500 * time.Millisecond
	nWin := int(dur / window)
	if nWin < 1 {
		nWin = 1
	}
	counts := make([]int, nWin)
	g := newQueryGen(r.seed*104729+stream*131, r.w, r.cuts)
	start := time.Now()
	deadline := start.Add(time.Duration(nWin) * window)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if res, _, _ := r.query(ctx, r.d.clients[0], g.next(), nil, 0, 0); res != nil {
			if w := int(time.Since(start) / window); w < nWin {
				counts[w]++
			}
		}
	}
	per := make([]float64, nWin)
	for i, n := range counts {
		per[i] = float64(n) / window.Seconds()
	}
	return per
}

// openResult is what an open-loop phase measured.
type openResult struct {
	latMs []float64 // from each request's scheduled send time
}

func (o *openResult) add(p openResult) {
	o.latMs = append(o.latMs, p.latMs...)
}

// openLoop sends queries at Poisson arrival times with the given mean
// rate for dur, regardless of how fast answers come back, and times each
// one from when it was due. With tr non-nil every request is traced, and
// every replayEvery-th answered one is replayed in-process layer by layer
// once the loop is over, so the traced requests carry only span recording.
func (r *run) openLoop(ctx context.Context, rate float64, dur time.Duration, stream int64, tr *tracer) openResult {
	rng := rand.New(rand.NewSource(r.seed*15485863 + stream))
	g := newQueryGen(r.seed*32452843+stream, r.w, r.cuts)
	var at []time.Duration
	var qs []rangeQuery
	for t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); t < dur; t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		at = append(at, t)
		qs = append(qs, g.next())
	}
	type replay struct {
		q    rangeQuery
		req  int64
		took time.Duration
	}
	var (
		mu      sync.Mutex
		replays []replay
	)
	res := openResult{latMs: make([]float64, len(at))}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range at {
		due := start.Add(at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		cl := r.d.clients[i%len(r.d.clients)]
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			var root int64
			if tr != nil {
				root = tr.reserve()
			}
			ans, sent, done := r.query(ctx, cl, qs[i], tr, root, root)
			res.latMs[i] = float64(done.Sub(due)) / float64(time.Millisecond)
			if ans == nil {
				// A failed request misses every latency limit.
				res.latMs[i] = float64(requestTimeout) / float64(time.Millisecond)
			}
			if tr != nil {
				// The request span runs from the due time and its
				// client.query child from the actual send, so its self
				// time is how late the generator ran.
				tr.finish(root, 0, root, "request", due, done)
				if ans != nil && i%replayEvery == 0 {
					mu.Lock()
					replays = append(replays, replay{qs[i], root, done.Sub(sent)})
					mu.Unlock()
				}
			}
		}(i, due)
	}
	wg.Wait()
	for _, p := range replays {
		if err := r.rep.replay(ctx, p.q, p.req, p.took); err != nil {
			r.ctr.fail(false, "replay: %v", err)
		}
	}
	return res
}

// replayEvery is the traced run's sampling: one request in replayEvery is
// replayed in-process after its open loop ends.
const replayEvery = 4

// writeResult is what a write phase measured.
type writeResult struct {
	commitMs   []float64 // InsertBatch call latencies
	deleteMs   []float64 // DeleteRange call latencies
	lagMs      []float64 // ack to the edge serving the write, per write
	refreshMs  []float64 // RefreshAll call durations
	refreshes  int       // table refreshes that moved state
	snapshots  int       // ... of which fell back to a snapshot
	refreshB   int64     // refresh payload bytes
	tuples     int       // tuples inserted
	tupleBytes int64     // their wire size
	writes     int       // acked writes (inserts and deletes)
	elapsed    time.Duration
}

func (res *writeResult) add(o writeResult) {
	res.commitMs = append(res.commitMs, o.commitMs...)
	res.deleteMs = append(res.deleteMs, o.deleteMs...)
	res.lagMs = append(res.lagMs, o.lagMs...)
	res.refreshMs = append(res.refreshMs, o.refreshMs...)
	res.refreshes += o.refreshes
	res.snapshots += o.snapshots
	res.refreshB += o.refreshB
	res.tuples += o.tuples
	res.tupleBytes += o.tupleBytes
	res.writes += o.writes
	res.elapsed += o.elapsed
}

// writePhase runs one closed-loop writer for nWrites writes: 64-tuple
// InsertBatch calls on fresh keys, and every tenth write a DeleteRange
// over one key inserted earlier. After each ack the writer runs
// edge.RefreshAll and sends its next write only once the edge serves the
// last one, so each write's freshness lag is one refresh and no commit
// races a refresh.
func (r *run) writePhase(ctx context.Context, nWrites int, pool *keyPool, stream int64, tr *tracer) (writeResult, error) {
	var res writeResult
	cl := r.d.clients[0]
	rng := rand.New(rand.NewSource(r.seed*49979687 + stream))
	var live []int64
	start := time.Now()
	for i := 0; i < nWrites && ctx.Err() == nil; i++ {
		del := i%10 == 9 && len(live) > 0
		var keys []int64
		var err error
		if del {
			j := rng.Intn(len(live))
			keys = []int64{live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else if keys, err = pool.take(batchSize); err != nil {
			return res, err
		}
		acked, err := r.write(ctx, cl, keys, del, &res, tr)
		if err != nil {
			return res, err
		}
		if !del {
			live = append(live, keys...)
		}
		if err := r.refresh(ctx, keys, del, acked, &res, tr); err != nil {
			return res, err
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// write sends one InsertBatch of keys' generated tuples, or with del a
// one-key DeleteRange, and returns when it was acknowledged.
func (r *run) write(ctx context.Context, cl *client.Client, keys []int64, del bool, res *writeResult, tr *tracer) (time.Time, error) {
	wctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	r.ctr.attempted.Add(1)
	if del {
		r.model.sending(keys, true, time.Since(r.epoch))
		lo := schema.Int64(keys[0])
		t0 := time.Now()
		n, err := cl.DeleteRange(wctx, tableName, &lo, &lo)
		t1 := time.Now()
		tr.record(0, 0, "client.delete_range", t0, t1)
		if err != nil || n != 1 {
			r.ctr.fail(err == nil, "delete of key %d: n=%d err=%v", keys[0], n, err)
			return t1, fmt.Errorf("delete of key %d failed", keys[0])
		}
		res.deleteMs = append(res.deleteMs, float64(t1.Sub(t0))/float64(time.Millisecond))
		res.writes++
		return t1, nil
	}
	tuples := make([]schema.Tuple, len(keys))
	for j, k := range keys {
		tuples[j] = r.gen.tuple(k)
		res.tupleBytes += int64(tuples[j].WireSize())
	}
	r.model.sending(keys, false, time.Since(r.epoch))
	t0 := time.Now()
	opErrs, err := cl.InsertBatch(wctx, tableName, tuples)
	t1 := time.Now()
	tr.record(0, 0, "client.insert_batch", t0, t1)
	if err == nil {
		err = errors.Join(opErrs...)
	}
	if err != nil {
		r.ctr.fail(false, "InsertBatch: %v", err)
		return t1, err
	}
	res.commitMs = append(res.commitMs, float64(t1.Sub(t0))/float64(time.Millisecond))
	res.tuples += len(keys)
	res.writes++
	return t1, nil
}

// refresh pulls the edge up to date after the write of keys acked at
// acked, and records how long the write took to become servable.
func (r *run) refresh(ctx context.Context, keys []int64, del bool, acked time.Time, res *writeResult, tr *tracer) error {
	t0 := time.Now()
	stats, err := r.d.eg.RefreshAll(ctx)
	t1 := time.Now()
	tr.record(0, 0, "edge.refresh", t0, t1)
	if err != nil {
		r.ctr.fail(false, "RefreshAll: %v", err)
		return fmt.Errorf("edge refresh: %w", err)
	}
	res.refreshMs = append(res.refreshMs, float64(t1.Sub(t0))/float64(time.Millisecond))
	for _, st := range stats {
		if st.Mode == "noop" {
			continue
		}
		res.refreshes++
		if st.Mode == "snapshot" {
			res.snapshots++
		}
		res.refreshB += int64(st.Bytes)
	}
	r.model.published(keys, del, t1.Sub(r.epoch))
	res.lagMs = append(res.lagMs, float64(t1.Sub(acked))/float64(time.Millisecond))
	return nil
}
