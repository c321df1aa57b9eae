package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one proposal, release or
// job share a Trace; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. One tracer is written by one goroutine;
// concurrent chains or clients each get their own and merge at the end.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

// now returns the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, trace, id, parent uint64, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: start, End: end})
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName returns the self times of the spans called name, in
// microseconds.
func selfByName(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e3)
		}
	}
	return out
}

// durByName returns the durations of the spans called name, in
// microseconds.
func durByName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimeSummary renders total self time per span name, largest first.
func selfTimeSummary(spans []span) string {
	self := selfTimes(spans)
	type row struct {
		name  string
		n     int
		total int64
	}
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += self[s.ID]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		return list[i].total > list[j].total || list[i].total == list[j].total && list[i].name < list[j].name
	})
	parts := make([]string, len(list))
	for i, r := range list {
		parts[i] = fmt.Sprintf("%s n=%d self=%.1fms", r.name, r.n, float64(r.total)/1e6)
	}
	return strings.Join(parts, "; ")
}

// writeSpans writes the spans as JSON lines, after a header line naming
// the machine and run, and returns the file's path.
func writeSpans(p params, spans []span) (string, error) {
	dir := filepath.Join(p.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", p.workload, p.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := map[string]any{"machine": machine(), "workload": p.workload, "seed": p.seed, "seconds": p.seconds}
	if err := enc.Encode(header); err != nil {
		return "", err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
