package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans are
// recorded only by this package, around its calls into each layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Name   string `json:"name"`
	Req    int64  `json:"req"` // serve request id, -1 outside serve
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	return t.startAt(name, parent, req, time.Now())
}

// startAt opens a span that began at at.
func (t *tracer) startAt(name string, parent int, req int64, at time.Time) int {
	if t == nil {
		return 0
	}
	now := at.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func(id int)) {
	id := t.start(name, parent, -1)
	f(id)
	t.end(id)
}

// spanStats summarises every closed span of one name.
type spanStats struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	// MedianMs is the median duration of one span.
	MedianMs float64 `json:"median_ms"`
	durs     []float64
}

// stats aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		st.Count++
		st.TotalS += d
		st.SelfS += d - covered(children[s.ID], s.Start, s.End)
		st.durs = append(st.durs, d*1e3)
	}
	for _, st := range out {
		st.MedianMs = median(st.durs)
	}
	return out
}

// covered returns the seconds of [lo, hi) that the union of the spans'
// intervals covers.
func covered(spans []span, lo, hi int64) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return float64(total) / 1e9
}

// dump writes every span and the per-name summary to
// <dir>/trace-<workload>-seed<seed>.json.
func (t *tracer) dump(o opts) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	st := t.stats()
	t.mu.Lock()
	body, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     uint64                `json:"seed"`
		Summary  map[string]*spanStats `json:"summary"`
		Spans    []span                `json:"spans"`
	}{o.workload, o.seed, st, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(path, body, 0o644)
}
