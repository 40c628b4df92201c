package main

import (
	"fmt"
	"sync"
	"time"

	"edgeauth/internal/client"
	"edgeauth/internal/schema"
)

// keyModel is the ingest oracle's view of which inserted keys and deletes
// the edge may, must and must not serve. Times are offsets from the run's
// epoch; zero means "not yet".
type keyModel struct {
	mu       sync.Mutex
	inserted map[int64]*keyState
	deleted  map[int64]*keyState
}

type keyState struct {
	sent    time.Duration // the write call was issued
	visible time.Duration // a refresh that started after the ack returned
}

func newKeyModel() *keyModel {
	return &keyModel{inserted: make(map[int64]*keyState), deleted: make(map[int64]*keyState)}
}

func (m *keyModel) sending(keys []int64, del bool, at time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tbl := m.inserted
	if del {
		tbl = m.deleted
	}
	for _, k := range keys {
		tbl[k] = &keyState{sent: at}
	}
}

func (m *keyModel) published(keys []int64, del bool, at time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tbl := m.inserted
	if del {
		tbl = m.deleted
	}
	for _, k := range keys {
		tbl[k].visible = at
	}
}

// checkAnswer compares a verified answer with the rows the benchmark
// generated. With m nil the table is read-only and the answer must be
// exactly the initial rows in [lo, hi]. Otherwise the answer must hold
// every row committed and refreshed before the query was sent (sent),
// and no row whose insert had not been issued when it arrived (arrived),
// nor any row whose delete was refreshed before the send.
func checkAnswer(gen rowGen, q rangeQuery, res *client.QueryResult, m *keyModel, sent, arrived time.Duration) error {
	if res == nil || res.Result == nil {
		return fmt.Errorf("empty answer")
	}
	rs := res.Result
	cols := q.columns()
	want := len(cols)
	if len(rs.Columns) != want {
		return fmt.Errorf("answer has columns %v, want %v", rs.Columns, cols)
	}
	for i, c := range cols {
		if rs.Columns[i] != c {
			return fmt.Errorf("answer has columns %v, want %v", rs.Columns, cols)
		}
	}
	if len(rs.Keys) != len(rs.Tuples) {
		return fmt.Errorf("answer has %d keys for %d tuples", len(rs.Keys), len(rs.Tuples))
	}
	if m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	got := make(map[int64]bool, len(rs.Keys))
	prev := q.lo - 1
	for i, kd := range rs.Keys {
		if kd.Type != schema.TypeInt64 {
			return fmt.Errorf("row %d: key of type %v", i, kd.Type)
		}
		k := kd.I
		if k < q.lo || k > q.hi || k <= prev {
			return fmt.Errorf("row %d: key %d out of order or outside [%d,%d]", i, k, q.lo, q.hi)
		}
		prev = k
		got[k] = true
		if k%2 != 0 {
			if m == nil {
				return fmt.Errorf("key %d was never inserted", k)
			}
			st, ok := m.inserted[k]
			if !ok || st.sent >= arrived {
				return fmt.Errorf("key %d served before its insert was issued", k)
			}
			if d, ok := m.deleted[k]; ok && d.visible != 0 && d.visible <= sent {
				return fmt.Errorf("key %d served after its delete was refreshed", k)
			}
		}
		exp := gen.tuple(k)
		tup := rs.Tuples[i]
		if len(tup.Values) != want {
			return fmt.Errorf("key %d: %d values, want %d", k, len(tup.Values), want)
		}
		for c := 0; c < want; c++ {
			if !tup.Values[c].Equal(exp.Values[c]) {
				return fmt.Errorf("key %d column %d: got %v, want %v", k, c, tup.Values[c], exp.Values[c])
			}
		}
	}
	// Completeness: initial rows are never deleted, so every even key in
	// range must be present; inserted keys must be once refreshed.
	for k := q.lo; k <= q.hi; k++ {
		if got[k] {
			continue
		}
		if k%2 == 0 {
			return fmt.Errorf("initial key %d missing from [%d,%d]", k, q.lo, q.hi)
		}
		if m == nil {
			continue
		}
		st, ok := m.inserted[k]
		if !ok || st.visible == 0 || st.visible > sent {
			continue
		}
		if d, ok := m.deleted[k]; ok && d.sent < arrived {
			continue
		}
		return fmt.Errorf("key %d committed and refreshed before the send but missing", k)
	}
	return nil
}
