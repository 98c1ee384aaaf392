package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// tuning session (or one service round trip) share a trace id; parent
// is the id of the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the repository module a span's time is charged to: the
// span name up to the first dot ("gp.surrogate" → "gp").
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends, so recording costs one clock read and one append.
// Safe for concurrent use (the service workload records from client
// and server goroutines at once).
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, trace, parent int64) int64 {
	now := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// rename relabels span id once the call it times has shown which
// layer did the work (the Observe that completes the selection sweep
// is forest training, not stepper bookkeeping).
func (r *recorder) rename(id int64, name string) {
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes the spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// layerTimes is the outcome of a span analysis: self time per layer,
// span counts per name and the summed duration of the root spans.
type layerTimes struct {
	self  map[string]time.Duration
	count map[string]int
	roots time.Duration
}

// analyze computes each span's self time — its duration minus the
// part of it that its children cover — and sums it per layer. Every
// nanosecond inside a root span is charged to exactly one layer, so
// the self times add up to the roots' total.
func analyze(spans []span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, count: map[string]int{}}
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		lt.count[s.Name]++
		dur := time.Duration(s.End - s.Start)
		if s.Parent == 0 {
			lt.roots += dur
		}
		lt.self[s.layer()] += dur - covered(s, children[s.ID])
	}
	return lt
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = start, end
			continue
		}
		hi = max(hi, end)
	}
	if hi > lo {
		total += hi - lo
	}
	return time.Duration(total)
}
