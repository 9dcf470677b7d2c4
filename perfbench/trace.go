package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans around the calls this benchmark makes
// into each layer's public functions. Nothing inside the program is
// instrumented: a span's duration is the cost of one call as its caller
// sees it. Spans live in memory and are written out when the run ends.

// epoch is the shared process clock every span and timestamp reads.
var epoch = time.Now()

// now returns nanoseconds on the shared process clock.
func now() int64 { return int64(time.Since(epoch)) }

// Span is one recorded call: Parent is the ID of the span that caused
// it (0 for a root), and spans of one request share Req.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept for the dump; durations keep
// accumulating into the per-name samples beyond it.
const maxSpans = 200000

// Tracer keeps spans and per-name duration samples. A nil *Tracer is
// the untraced run: every method is a no-op.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	dropped int
	samples map[string][]float64 // span durations in ns, by name
	every   map[string]int       // 1-in-N sampling factor, by name
	nextID  atomic.Uint64
}

func newTracer() *Tracer {
	return &Tracer{samples: map[string][]float64{}, every: map[string]int{}}
}

// NewID returns a fresh span or request ID.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Record stores one finished span.
func (t *Tracer) Record(name string, parent, req uint64, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.samples[name] = append(t.samples[name], float64(end-start))
	t.mu.Unlock()
	return id
}

// Sampled declares that spans named name are recorded on 1 call in n.
func (t *Tracer) Sampled(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.every[name] = n
	t.mu.Unlock()
}

// Durations returns the recorded durations of spans named name, in ns.
func (t *Tracer) Durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// MedianNs is the median duration of spans named name, or 0 if none.
func (t *Tracer) MedianNs(name string) float64 {
	d := t.Durations(name)
	if len(d) == 0 {
		return 0
	}
	return Median(d)
}

// Dump writes the provenance header, the sampling factors and every kept
// span as JSON lines.
func (t *Tracer) Dump(path string, prov Provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	names := make([]string, 0, len(t.samples))
	for n := range t.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	counts := map[string]int{}
	for _, n := range names {
		counts[n] = len(t.samples[n])
	}
	err = enc.Encode(map[string]any{
		"provenance": prov, "sampled_1_in": t.every, "span_counts": counts,
		"kept": len(t.spans), "dropped": t.dropped,
	})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}
