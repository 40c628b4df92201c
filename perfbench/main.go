// Command perfbench is the end-to-end benchmark of the edge
// authentication system: a central server, one edge server and verifying
// clients in one process over loopback TCP, with the Ed25519 (Merkle)
// scheme. It drives one workload, checks every answer against the rows
// it generated, and prints every metric by name and unit; the last line
// of standard output is a JSON summary. See README.md.
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"edgeauth/internal/client"
	"edgeauth/internal/vo"
)

// setupRuns is how many times a run sets the system up; setup_s is their
// median and the last deployment serves the timed phases.
const setupRuns = 7

// outDir holds the WAL directories and span dumps, inside the checkout.
const outDir = ".bench_build/perfbench"

// runSeconds is the measured load per run that BENCHMARK.json fixes.
const runSeconds = 40

// rounds is how many closed-loop/open-loop read rounds a run makes, and
// probeParts how many parts its write probe runs in. Each metric is the
// median over rounds or parts, so a slow stretch of the host that covers
// a third of the rounds or a quarter of the parts moves it little. The
// probe has fewer parts because it has fewer samples: on read-hot each
// part holds about 63 commits, six beyond their p90.
const (
	rounds     = 6
	probeParts = 4
)

// writeChecks is how many ranges are read back and checked against the
// key model after the write probe.
const writeChecks = 100

func main() {
	name := flag.String("workload", "", "workload to run: read-hot or read-wide")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", runSeconds, "seconds of measured load")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	desc := flag.Bool("describe", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *desc {
		b, err := describe()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", names())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := runWorkload(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout, *trace == 1)
	if !res.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", res.why)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// run is the state one workload run shares across its phases.
type run struct {
	w     workload
	seed  int64
	gen   rowGen
	epoch time.Time
	d     *deployment
	cuts  []int     // first initial row of each shard after the first
	model *keyModel // nil while the table is read-only
	rep   *replayer // traced runs only
	ctr   counters
}

// result is everything a run reports.
type result struct {
	workload string
	correct  bool
	why      string
	att, bad int64
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func runWorkload(ctx context.Context, w workload, seed int64, total time.Duration, traced bool) (*result, error) {
	r := &run{w: w, seed: seed, gen: rowGen{seed: uint64(seed)}, epoch: time.Now()}
	out := &result{workload: w.name, e2e: map[string]float64{}, layer: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer(r.epoch)
	}
	walRoot := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)

	// Set-up, several times; the last deployment stays up.
	tuples := r.gen.initialTuples(w.rows)
	nClients := runtime.NumCPU()
	var setups, builds, installs []float64
	for i := 0; i < setupRuns; i++ {
		var str *tracer
		if i == setupRuns-1 {
			str = tr
		}
		runtime.GC()
		d, err := deploy(ctx, w, tuples, nClients, walRoot, str)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.setup.Seconds())
		builds = append(builds, d.build.Seconds())
		installs = append(installs, d.install.Seconds())
		if i < setupRuns-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			continue
		}
		r.d = d
	}
	defer func() {
		if err := r.d.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}()
	tuples = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_mb"] = float64(ms.HeapInuse) / (1 << 20)
	out.layer["central.build_s"] = median(builds)
	out.layer["edge.install_s"] = median(installs)
	out.note("setup: %d runs, median %.3f s (AddTable %.3f s, PullAll %.3f s), %d clients; each %s",
		setupRuns, median(setups), median(builds), median(installs), nClients, fmtList(setups, "%.3f"))

	sm, err := r.d.srv.SignedShardMap(tableName)
	if err != nil {
		return nil, err
	}
	for _, b := range sm.Map.Boundaries {
		r.cuts = append(r.cuts, int((b.I+1)/2))
	}
	if traced {
		if r.rep, err = newReplayer(r.d.eg, r.d.srv.PublicKey(), w.rows, tr); err != nil {
			return nil, err
		}
	}

	// The reads run in rounds, each a closed-loop phase (one worker) and
	// then an open loop at the workload's fixed rate, so every read
	// metric samples the whole run rather than one stretch of it. A write
	// probe follows every read, so the read phases stay read-only. A
	// traced run traces every other round; the untraced rounds give
	// trace.overhead_ratio.
	closedDur := total / 4 / rounds
	openDur := total * 2 / 5 / rounds
	writeDur := total * 35 / 100
	pool := newKeyPool(w.rows, newRand(seed, 11))
	nWrites := int(writeRate * writeDur.Seconds() / batchSize)
	if max := pool.remaining() * 9 / 10 / batchSize; nWrites > max {
		nWrites = max
	}
	beforeStats := r.d.srv.Stats()
	beforeCtr := r.d.commitCtr.Snapshot()
	beforeWAL, err := r.d.walBytes()
	if err != nil {
		return nil, err
	}

	r.warmup(ctx, 10)
	var qpsWindows []float64
	var open, untraced openResult
	var opens []openResult  // the rounds whose latencies are reported
	var parts []writeResult // one per write probe part
	for round := 0; round < rounds; round++ {
		runtime.GC()
		qpsWindows = append(qpsWindows, r.closedLoop(ctx, closedDur, int64(round))...)
		rtr := tr
		if round%2 == 0 {
			rtr = nil
		}
		o := r.openLoop(ctx, w.openRate, openDur, int64(round), rtr)
		if traced && rtr == nil {
			untraced.add(o)
		} else {
			open.add(o)
			opens = append(opens, o)
		}
	}
	out.e2e["query_qps"] = median(qpsWindows)
	out.note("closed loop: 1 client, %d rounds of %v: %.1f verified answers/s (median of %d 0.5 s windows; mean %.1f)",
		rounds, closedDur, median(qpsWindows), len(qpsWindows), mean(qpsWindows))
	r.model = newKeyModel()
	var werr error
	for i := 0; i < probeParts && werr == nil; i++ {
		runtime.GC()
		var rw writeResult
		rw, werr = r.writePhase(ctx, share(nWrites, i), pool, int64(rounds+i), tr)
		parts = append(parts, rw)
	}
	if werr != nil {
		r.ctr.fail(false, "write phase: %v", werr)
	}
	var wr writeResult
	for _, rw := range parts {
		wr.add(rw)
	}
	afterStats := r.d.srv.Stats()
	commitOps := r.d.commitCtr.Snapshot().Sub(beforeCtr)
	afterWAL, err := r.d.walBytes()
	if err != nil {
		return nil, err
	}

	// Each figure is taken per round or probe part, then the median over
	// them (see rounds).
	openBy := func(f func(openResult) float64) (float64, string) {
		var vs []float64
		for _, o := range opens {
			vs = append(vs, f(o))
		}
		return median(vs), fmtList(vs, "%.3f")
	}
	writeBy := func(f func(writeResult) float64) (float64, string) {
		var vs []float64
		for _, rw := range parts {
			vs = append(vs, f(rw))
		}
		return median(vs), fmtList(vs, "%.3f")
	}
	var list string
	out.e2e["query_p50_ms"], list = openBy(func(o openResult) float64 { return quantile(o.latMs, 0.5) })
	out.note("open loop: %.0f queries/s Poisson, %d rounds of %v: %d samples (%d a round beyond p90; pooled p99 %.3f ms); p50 by round %s ms",
		w.openRate, rounds, openDur, len(open.latMs), samplesBeyond(len(open.latMs)/len(opens), 0.9), quantile(open.latMs, 0.99), list)
	// The tails are printed but not reported: the query tail on read-wide
	// moved by a quarter between runs in which the host stole no CPU
	// time, and the write tails by up to 0.44 in sets with stolen time.
	p90, list := openBy(func(o openResult) float64 { return quantile(o.latMs, 0.9) })
	out.note("open loop: p90 %.3f ms, by round %s ms", p90, list)
	out.e2e["vo_bytes_per_row"] = ratio(float64(r.ctr.voBytes.Load()), float64(r.ctr.rows.Load()))
	out.e2e["ingest_tuples_per_s"], list = writeBy(func(rw writeResult) float64 { return ratio(float64(rw.tuples), rw.elapsed.Seconds()) })
	out.e2e["commit_p50_ms"], _ = writeBy(func(rw writeResult) float64 { return quantile(rw.commitMs, 0.5) })
	out.e2e["fresh_lag_p50_ms"], _ = writeBy(func(rw writeResult) float64 { return quantile(rw.lagMs, 0.5) })
	out.note("writes: %d acked (%d InsertBatch of %d, %d DeleteRange, delete p50 %.3f ms) in %d parts, %v; tuples/s by part %s; WAL on, fsync per shard commit",
		wr.writes, len(wr.commitMs), batchSize, len(wr.deleteMs), quantile(wr.deleteMs, 0.5), len(parts), wr.elapsed.Round(time.Millisecond), list)
	out.note("refresh: %d RefreshAll calls, one after each ack; %d table refreshes moved state (%d by snapshot)",
		len(wr.refreshMs), wr.refreshes, wr.snapshots)
	commit90, list := writeBy(func(rw writeResult) float64 { return quantile(rw.commitMs, 0.9) })
	out.note("writes: commit p90 %.3f ms, by part %s ms", commit90, list)
	lag90, list := writeBy(func(rw writeResult) float64 { return quantile(rw.lagMs, 0.9) })
	out.note("writes: fresh lag p90 %.3f ms, by part %s ms", lag90, list)
	out.note("answers: %d verified, %d rows, %d VO bytes", r.ctr.answers.Load(), r.ctr.rows.Load(), r.ctr.voBytes.Load())
	r.checkWrites(ctx, writeChecks)

	if traced {
		writes := float64(wr.writes)
		out.layer["edge.refresh_ms"] = median(wr.refreshMs)
		out.layer["edge.refresh_bytes_per_commit"] = ratio(float64(wr.refreshB), writes)
		out.layer["edge.snapshot_refresh_ratio"] = ratio(float64(wr.snapshots), float64(wr.refreshes))
		out.layer["digest.hash_ops_per_commit"] = ratio(float64(commitOps.HashOps), writes)
		out.layer["digest.combine_ops_per_commit"] = ratio(float64(commitOps.CombineOps), writes)
		out.layer["sig.sign_ops_per_commit"] = ratio(float64(afterStats.SignOps-beforeStats.SignOps), writes)
		out.layer["central.group_commit_ops_per_round"] = ratio(float64(afterStats.BatchOps-beforeStats.BatchOps),
			float64(afterStats.BatchRounds-beforeStats.BatchRounds))
		out.layer["wal.bytes_per_user_byte"] = ratio(float64(afterWAL-beforeWAL), float64(wr.tupleBytes))
		insert := modelParams(w.rows/w.shards, numCols).InsertCost()
		measured := ratio(float64(commitOps.HashOps+commitOps.CombineOps), float64(wr.tuples))
		out.layer["costmodel.commit_ops_ratio"] = ratio(measured, insert)
		out.note("costmodel.commit_ops_ratio: %.1f measured hash+combine ops per inserted tuple vs InsertCost %.1f",
			measured, insert)
		if err := r.layerMetrics(ctx, out, tr, pool, open, untraced); err != nil {
			return nil, err
		}
	}

	// Live-verification canary: a tampered answer must be refused.
	if err := r.canary(ctx); err != nil {
		r.ctr.fail(true, "canary: %v", err)
	}

	out.att, out.bad = r.ctr.attempted.Load(), r.ctr.failed.Load()
	out.correct = r.ctr.wrong.Load() == 0 && out.bad == 0
	if msg := r.ctr.firstErr.Load(); msg != nil {
		out.why = *msg
	}
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		out.note("spans: %d written to %s", len(tr.snapshot()), path)
	}
	return out, nil
}

// fmtList formats each value with format, space-separated.
func fmtList(vs []float64, format string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}

// share is part i's share of n writes spread over the probe parts.
func share(n, i int) int {
	if i == probeParts-1 {
		return n - n/probeParts*(probeParts-1)
	}
	return n / probeParts
}

// canary installs an edge tamper that flips one returned value and
// requires the client to reject the answer with ErrTampered.
func (r *run) canary(ctx context.Context) error {
	r.d.eg.SetTamper(func(rs *vo.ResultSet, _ *vo.VO) error {
		if len(rs.Tuples) > 0 && len(rs.Tuples[0].Values) > 1 {
			rs.Tuples[0].Values[1].S += "!"
		}
		return nil
	})
	defer r.d.eg.SetTamper(nil)
	q := newQueryGen(r.seed, r.w, r.cuts).next()
	qctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	_, err := r.d.clients[0].Query(qctx, tableName, q.preds(), q.project())
	if !errors.Is(err, client.ErrTampered) {
		return fmt.Errorf("tampered answer was not refused (err = %v)", err)
	}
	return nil
}

// print writes every metric of the run, one per line with its unit, then
// the JSON summary as the last line.
func (res *result) print(f *os.File, traced bool) {
	fmt.Fprintf(f, "workload %s\n", res.workload)
	for _, n := range res.notes {
		fmt.Fprintf(f, "  %s\n", n)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	emit := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			fmt.Fprintf(f, "%-36s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
			metrics[d.Name] = metric{vals[d.Name], d.Unit}
		}
	}
	errRate := ratio(float64(res.bad), float64(res.att))
	fmt.Fprintf(f, "%-36s %14.4f %s  (%d failed of %d attempted)\n", "error_rate", errRate, "ratio", res.bad, res.att)
	if traced {
		emit(perLayer, res.layer)
	} else {
		emit(endToEnd, res.e2e)
	}
	// JSON cannot carry NaN; a metric with no samples is reported as 0.
	for k, m := range metrics {
		if m.Value != m.Value {
			m.Value = 0
			metrics[k] = m
		}
	}
	// Marshal cannot fail: the value holds only finite numbers and strings.
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.att, res.bad, metrics})
	fmt.Fprintln(f, string(b))
}
