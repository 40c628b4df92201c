package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 60},
		{ID: 4, Parent: 2, Name: "a.child", Start: 12, End: 20},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: 70, 2: 12, 3: 10, 4: 8}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestSelfTimeMergesOverlapAndClips(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "gather", Start: 100, End: 200},
		// Two concurrent shard calls overlapping on [130,150].
		{ID: 2, Parent: 1, Name: "shard", Start: 110, End: 150},
		{ID: 3, Parent: 1, Name: "shard", Start: 130, End: 170},
		// A child that started before and ends after its parent counts
		// only inside the parent.
		{ID: 4, Parent: 5, Name: "late", Start: 0, End: 1000},
		{ID: 5, Name: "short", Start: 400, End: 450},
		// A child wholly outside its parent covers nothing.
		{ID: 6, Parent: 1, Name: "outside", Start: 300, End: 350},
	}
	got := selfTimes(spans)
	if got[1] != 40 { // 100 − union[110,170]
		t.Errorf("self(gather) = %v, want 40", got[1])
	}
	if got[5] != 0 {
		t.Errorf("self(short) = %v, want 0", got[5])
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(epoch)
	root := tr.reserve()
	child := tr.record(root, 7, "child", epoch.Add(2), epoch.Add(5))
	tr.finish(root, 0, 7, "root", epoch, epoch.Add(10))
	spans := tr.snapshot()
	if len(spans) != 2 || child == root {
		t.Fatalf("spans = %+v", spans)
	}
	if st := selfTimes(spans); st[root] != 7 {
		t.Errorf("self(root) = %v, want 7", st[root])
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"name":"root"`) {
		t.Errorf("trace file = %q", b)
	}
	var nilTracer *tracer
	if id := nilTracer.record(0, 0, "x", epoch, epoch); id != 0 || nilTracer.snapshot() != nil {
		t.Error("nil tracer must be a no-op")
	}
}
