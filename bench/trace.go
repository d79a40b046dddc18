package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was created; Parent is the ID of the span that caused this
// one (-1 for a root); spans of one query share Query.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the recorder switched off: every method is a no-op, so the timed runs
// carry no tracing cost.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a finished span and returns its ID (-1 when off).
func (r *Recorder) Add(name string, parent, query int, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	s := start.Sub(r.epoch).Nanoseconds()
	r.spans = append(r.spans, Span{ID: id, Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Query: query})
	return id
}

// End moves a recorded span's end to t, for a parent recorded before its
// children ran.
func (r *Recorder) End(id int, t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t.Sub(r.epoch).Nanoseconds()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (S1 and S2 run side by side), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the trace table: all spans of one name.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
	MeanMs  float64
}

// traceTable aggregates spans by name: call count, total and self time.
func traceTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var order []string
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			byName[s.Name] = row
			order = append(order, s.Name)
		}
		row.Count++
		row.TotalMs += float64(s.End-s.Start) / 1e6
		row.SelfMs += float64(self[s.ID]) / 1e6
	}
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		row := byName[name]
		row.MeanMs = row.TotalMs / float64(row.Count)
		rows = append(rows, *row)
	}
	return rows
}
