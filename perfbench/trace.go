package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Start and End are nanoseconds
// since the run began; Parent is the ID of the span that caused this one
// (0 for a root); every span of one request shares ReqID.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	ReqID  int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured paths carry no
// branches beyond one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// record stores a finished span and returns its ID.
func (t *tracer) record(parent, req int64, name string, start, end time.Time) int64 {
	id := t.reserve()
	t.finish(id, parent, req, name, start, end)
	return id
}

// reserve allocates a span ID before the span ends, so children can name
// their parent while it is still open; finish records it under that ID.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) finish(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, ReqID: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write dumps the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (the
// concurrent per-shard calls of a scatter-gather) count once, and a
// child's time outside its parent's interval is ignored.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// durationsByName collects the durations of every span with the given
// name, in the unit given (e.g. time.Millisecond).
func durationsByName(spans []Span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/float64(unit))
		}
	}
	return out
}
