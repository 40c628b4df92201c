package main

import (
	"testing"
	"time"

	"edgeauth/internal/client"
	"edgeauth/internal/schema"
	"edgeauth/internal/vo"
)

// answer builds the QueryResult an honest edge would return for keys.
func answer(gen rowGen, q rangeQuery, keys ...int64) *client.QueryResult {
	rs := &vo.ResultSet{Columns: q.columns()}
	for _, k := range keys {
		t := gen.tuple(k)
		t.Values = t.Values[:len(rs.Columns)]
		rs.Keys = append(rs.Keys, schema.Int64(k))
		rs.Tuples = append(rs.Tuples, t)
	}
	return &client.QueryResult{Result: rs}
}

func TestCheckAnswerReadOnly(t *testing.T) {
	gen := rowGen{seed: 9}
	q := rangeQuery{lo: 10, hi: 16, project5: true}
	if err := checkAnswer(gen, q, answer(gen, q, 10, 12, 14, 16), nil, 0, 0); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}
	bad := map[string]*client.QueryResult{
		"missing row":  answer(gen, q, 10, 12, 16),
		"extra row":    answer(gen, q, 10, 11, 12, 14, 16),
		"out of range": answer(gen, q, 8, 10, 12, 14, 16),
		"out of order": answer(gen, q, 12, 10, 14, 16),
	}
	wrongValue := answer(gen, q, 10, 12, 14, 16)
	wrongValue.Result.Tuples[2].Values[3] = schema.Str("x")
	bad["wrong value"] = wrongValue
	wrongCols := answer(gen, rangeQuery{lo: 10, hi: 16}, 10, 12, 14, 16)
	bad["wrong projection"] = wrongCols
	for name, res := range bad {
		if err := checkAnswer(gen, q, res, nil, 0, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckAnswerWithWrites(t *testing.T) {
	gen := rowGen{seed: 3}
	q := rangeQuery{lo: 0, hi: 6}
	m := newKeyModel()
	ms := time.Millisecond
	m.sending([]int64{1}, false, 10*ms)
	m.published([]int64{1}, false, 20*ms)
	m.sending([]int64{3}, false, 30*ms) // issued, not yet refreshed
	m.sending([]int64{5}, false, 5*ms)
	m.published([]int64{5}, false, 8*ms)
	m.sending([]int64{5}, true, 12*ms) // deleted, refreshed at 15ms
	m.published([]int64{5}, true, 15*ms)

	cases := []struct {
		name          string
		keys          []int64
		sent, arrived time.Duration
		ok            bool
	}{
		{"before any insert", []int64{0, 2, 4, 6}, 1 * ms, 2 * ms, true},
		{"refreshed insert present", []int64{0, 1, 2, 4, 6}, 25 * ms, 26 * ms, true},
		{"refreshed insert missing", []int64{0, 2, 4, 6}, 25 * ms, 26 * ms, false},
		{"unrefreshed insert may show", []int64{0, 1, 2, 3, 4, 6}, 31 * ms, 32 * ms, true},
		{"insert shown before issued", []int64{0, 1, 2, 3, 4, 6}, 25 * ms, 26 * ms, false},
		{"deleted row after its refresh", []int64{0, 1, 2, 4, 5, 6}, 25 * ms, 26 * ms, false},
		{"deleted row before its refresh", []int64{0, 2, 4, 5, 6}, 9 * ms, 13 * ms, true},
		{"initial row missing", []int64{0, 1, 2, 6}, 25 * ms, 26 * ms, false},
	}
	for _, c := range cases {
		err := checkAnswer(gen, q, answer(gen, q, c.keys...), m, c.sent, c.arrived)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestKeyPoolIsCollisionFree(t *testing.T) {
	p := newKeyPool(1000, newRand(5, 11))
	seen := map[int64]bool{}
	for p.remaining() >= 64 {
		ks, err := p.take(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			if k%2 != 1 || k < 1 || k > 1999 || seen[k] {
				t.Fatalf("bad or repeated key %d", k)
			}
			seen[k] = true
		}
	}
	if _, err := p.take(64); err == nil {
		t.Fatal("exhausted pool handed out keys")
	}
	q := newKeyPool(1000, newRand(5, 11))
	a, _ := q.take(10)
	if a[0] != p.keys[0] {
		t.Error("same seed gave a different key order")
	}
}
