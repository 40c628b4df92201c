package main

import (
	"fmt"
	"math/rand"

	"edgeauth/internal/query"
	"edgeauth/internal/schema"
)

// The benchmark table: an int64 key "id" and nine 20-byte string
// attributes, the paper's §4.2 shape (N_C = 10, 200-byte tuples).
const (
	numCols   = 10
	attrBytes = 20
	tableName = "items"
	batchSize = 64 // tuples per InsertBatch call
)

func benchSchema() *schema.Schema {
	sch := &schema.Schema{DB: "perfbench", Table: tableName, Key: 0}
	sch.Columns = append(sch.Columns, schema.Column{Name: "id", Type: schema.TypeInt64})
	for i := 1; i < numCols; i++ {
		sch.Columns = append(sch.Columns, schema.Column{Name: fmt.Sprintf("a%d", i), Type: schema.TypeString})
	}
	return sch
}

// projectFirst5 is the Q_C = 5 projection: the key plus four attributes,
// so the other five travel as D_P digests.
var projectFirst5 = []string{"id", "a1", "a2", "a3", "a4"}

// rowGen derives every attribute of a row from (seed, key), so the
// oracle can regenerate the exact expected tuple for any key — initial
// or inserted — without keeping the table in memory.
type rowGen struct{ seed uint64 }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const alphabet = "abcdefghijklmnopqrstuvwxyz012345"

func (g rowGen) attr(key int64, col int) string {
	var b [attrBytes]byte
	h := splitmix(g.seed ^ splitmix(uint64(key)*16+uint64(col)))
	for i := range b {
		if i%12 == 0 && i > 0 {
			h = splitmix(h)
		}
		b[i] = alphabet[h&31]
		h >>= 5
	}
	return string(b[:])
}

func (g rowGen) tuple(key int64) schema.Tuple {
	vals := make([]schema.Datum, numCols)
	vals[0] = schema.Int64(key)
	for c := 1; c < numCols; c++ {
		vals[c] = schema.Str(g.attr(key, c))
	}
	return schema.Tuple{Values: vals}
}

// initialKey is the key of initial row i: initial rows take the even
// keys, inserts draw the odd keys in between, so inserted rows land
// inside the ranges the queries read.
func initialKey(i int) int64 { return 2 * int64(i) }

func (g rowGen) initialTuples(rows int) []schema.Tuple {
	out := make([]schema.Tuple, rows)
	for i := range out {
		out[i] = g.tuple(initialKey(i))
	}
	return out
}

// keyPool hands out fresh odd keys without replacement, in a seeded
// order. A generator that could repeat keys would turn some inserts into
// cheap duplicate rejections and inflate throughput.
type keyPool struct {
	keys []int64
	next int
}

func newKeyPool(rows int, rng *rand.Rand) *keyPool {
	perm := rng.Perm(rows)
	keys := make([]int64, rows)
	for i, p := range perm {
		keys[i] = 2*int64(p) + 1
	}
	return &keyPool{keys: keys}
}

func (p *keyPool) remaining() int { return len(p.keys) - p.next }

// take returns n fresh keys, or an error when the pool is exhausted.
func (p *keyPool) take(n int) ([]int64, error) {
	if p.remaining() < n {
		return nil, fmt.Errorf("key pool exhausted: %d fresh keys left, %d wanted", p.remaining(), n)
	}
	ks := p.keys[p.next : p.next+n]
	p.next += n
	return ks, nil
}

// rangeQuery is one verified range read: rows [lo, hi] of the key space,
// all columns or the first five.
type rangeQuery struct {
	lo, hi   int64
	project5 bool
}

func (q rangeQuery) preds() []query.Predicate {
	return []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(q.lo)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(q.hi)},
	}
}

func (q rangeQuery) project() []string {
	if q.project5 {
		return projectFirst5
	}
	return nil
}

// columns is the column list the answer must carry.
func (q rangeQuery) columns() []string {
	if q.project5 {
		return projectFirst5
	}
	var cols []string
	for _, c := range benchSchema().Columns {
		cols = append(cols, c.Name)
	}
	return cols
}

func (q rangeQuery) qc() int { return len(q.columns()) }

// queryGen draws the range queries of one workload from its own seeded
// stream.
type queryGen struct {
	rng      *rand.Rand
	rows     int // initial rows N_R
	span     int // initial rows per range (Q_R on a read-only table)
	zipf     *rand.Zipf
	perm     []int   // zipf rank -> start row, so hot ranges scatter over the table
	cuts     []int   // first initial row of each shard after the first
	straddle float64 // share of ranges placed across a shard boundary
	order    []int   // query classes of the current block, in sending order
	slot     int     // next index into order
}

func newQueryGen(seed int64, w workload, cuts []int) *queryGen {
	rng := rand.New(rand.NewSource(seed))
	g := &queryGen{rng: rng, rows: w.rows, span: w.span, cuts: cuts, straddle: w.straddle}
	starts := w.rows - w.span + 1
	if w.zipf {
		g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(starts-1))
		g.perm = rng.Perm(starts)
	}
	return g
}

// class draws the next query's class so that each block of eight queries
// holds exactly the workload's shares: half projected to Q_C = 5, and
// straddle × 8 placed across a shard cut, split evenly between the two
// projections. With a coin per query the shares of a run drift by
// several percent, and the latency tail, which the straddling queries
// set, drifts with them.
func (g *queryGen) class() (project5, straddle bool) {
	if g.slot == 0 {
		g.order = g.rng.Perm(8)
	}
	k := g.order[g.slot]
	g.slot = (g.slot + 1) % 8
	return k%2 == 0, len(g.cuts) > 0 && k/2 < int(g.straddle*4+0.5)
}

func (g *queryGen) next() rangeQuery {
	starts := g.rows - g.span + 1
	project5, straddle := g.class()
	var start int
	switch {
	case straddle:
		cut := g.cuts[g.rng.Intn(len(g.cuts))]
		start = cut - 1 - g.rng.Intn(g.span-1) // [cut-span+1, cut-1]: crosses the cut
		if start < 0 {
			start = 0
		}
		if start > starts-1 {
			start = starts - 1
		}
	case g.zipf != nil:
		start = g.perm[g.zipf.Uint64()]
	default:
		start = g.rng.Intn(starts)
	}
	return rangeQuery{
		lo:       initialKey(start),
		hi:       initialKey(start + g.span - 1),
		project5: project5,
	}
}
