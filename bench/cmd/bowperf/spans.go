package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Spans of one point share a trace ID.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine only.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(traceID, name string, parent int) int {
	l.spans = append(l.spans, span{
		Trace: traceID, ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(l.epoch).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(l.epoch).Nanoseconds() }

// selfUS returns, per span name, each span's self time in microseconds:
// its duration minus the part its children cover. Children of one
// parent run one after another, so their durations simply add.
func (l *spanLog) selfUS() map[string][]float64 {
	child := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e3)
	}
	return out
}

// write stores the spans as NDJSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
