package main

import (
	"encoding/json"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/digest"
)

// workload is one traffic mix. Every run of a workload with a given seed
// and --seconds applies identical work, except the closed-loop capacity
// phase, which by design counts how much work fits in its time.
type workload struct {
	name, why string
	rows      int     // initial table rows N_R
	shards    int     // range partitions
	span      int     // initial rows per range query
	zipf      bool    // zipfian start keys (else uniform)
	straddle  float64 // share of ranges placed across a shard boundary
	openRate  float64 // open-loop Poisson arrival rate, queries/s
}

// writeRate sizes the write probe: the writer sends
// writeRate × (probe seconds) / 64 writes, a fixed count, a little below
// what one writer that waits for each refresh reaches on a 2-vCPU
// container.
const writeRate = 2500

// The open-loop rates are fixed, about a fifth of what a 2-vCPU
// container answers with both CPUs busy, so a faster program meets the
// same offered load rather than a heavier one, and queueing on a noisy
// shared host does not swamp the latency figures.
var workloads = []workload{
	{
		name: "read-hot",
		why:  "20k rows, 1 shard, zipfian 20-row ranges (half projected): fixed per-query costs and per-row digests dominate",
		rows: 20000, shards: 1, span: 20, zipf: true,
		openRate: 150,
	},
	{
		name: "read-wide",
		why:  "100k rows, 8 shards, uniform 200-row ranges, 1 in 4 across a shard cut: VO build, wire, per-row verify, scatter-gather, big setup",
		rows: 100000, shards: 8, span: 200, straddle: 0.25,
		openRate: 50,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one reported metric. Bound applies to end-to-end metrics
// only: the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounds reflect the run-to-run spread measured on a shared 2-vCPU
// container: host noise moves throughput and latency by 5 to 15% between
// identical runs, and stretches of CPU stolen by the host by more, so
// every timing bound sits at the largest allowed, 0.25. Heap size and VO
// bytes hardly move.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.1},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"vo_bytes_per_row", "B", "lower", 0.1},
	{"ingest_tuples_per_s", "1/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"fresh_lag_p50_ms", "ms", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "client.query_ms", Unit: "ms", Better: "lower"},
	{Name: "client.shards_per_query", Unit: "count", Better: "lower"},
	{Name: "rpc.transport_us", Unit: "us", Better: "lower"},
	{Name: "edge.query_us", Unit: "us", Better: "lower"},
	{Name: "edge.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.refresh_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "edge.snapshot_refresh_ratio", Unit: "ratio", Better: "lower"},
	{Name: "edge.install_s", Unit: "s", Better: "lower"},
	{Name: "vo.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "vo.digests_per_query", Unit: "count", Better: "lower"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.response_bytes", Unit: "B", Better: "lower"},
	{Name: "verify.verify_us", Unit: "us", Better: "lower"},
	{Name: "verify.map_verify_us", Unit: "us", Better: "lower"},
	{Name: "verify.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "digest.hash_ops_per_query", Unit: "count", Better: "lower"},
	{Name: "digest.combine_ops_per_query", Unit: "count", Better: "lower"},
	{Name: "digest.hash_ops_per_commit", Unit: "count", Better: "lower"},
	{Name: "digest.combine_ops_per_commit", Unit: "count", Better: "lower"},
	{Name: "digest.g_ns", Unit: "ns", Better: "lower"},
	{Name: "digest.lift_ns", Unit: "ns", Better: "lower"},
	{Name: "digest.mul_ns", Unit: "ns", Better: "lower"},
	{Name: "digest.acc_add_ns", Unit: "ns", Better: "lower"},
	{Name: "sig.sign_ops_per_commit", Unit: "count", Better: "lower"},
	{Name: "sig.recover_ops_per_query", Unit: "count", Better: "lower"},
	{Name: "central.apply_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "central.group_commit_ops_per_round", Unit: "count", Better: "higher"},
	{Name: "central.build_s", Unit: "s", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "costmodel.vo_bytes_ratio", Unit: "ratio", Better: "lower"},
	{Name: "costmodel.verify_ops_ratio", Unit: "ratio", Better: "lower"},
	{Name: "costmodel.commit_ops_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// describe renders BENCHMARK.json from the tables above, so the contract
// file and the program cannot drift apart.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// modelParams is the paper's cost model (Table 1) at this run's table:
// N_R rows per shard tree, N_C = 10, the query's Q_C, 4 KiB pages,
// 16-byte digests and 8-byte keys, with every operation at unit cost so
// predictions are operation counts.
func modelParams(nr, qc int) costmodel.Params {
	p := costmodel.Default()
	p.NR = nr
	p.NC = numCols
	p.QC = qc
	p.B = pageSize
	p.D = digest.DefaultSize
	p.K = 8
	p.AttrSize = attrBytes
	p.CostH, p.CostK, p.X = 1, 1, 1
	return p
}
