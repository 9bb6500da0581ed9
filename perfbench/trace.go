package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer by
// the benchmark. The spans of one request share Req; Parent is the index of
// the enclosing span in the written list, -1 for a root.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Where  string `json:"where,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog holds a traced pass's spans in memory until the run ends. A nil
// *spanLog records nothing.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<14)} }

// add records a span that ran from start to end.
func (l *spanLog) add(req int, name, where string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{Req: req, Name: name, Where: where, Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base)), Parent: -1}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// byReq groups the spans by request, keeping recording order.
func (l *spanLog) byReq() map[int][]int {
	out := make(map[int][]int)
	for i, s := range l.spans {
		out[s.Req] = append(out[s.Req], i)
	}
	return out
}

// link sets each span's parent to the span of the same request named by
// parentOf, choosing the one that encloses it in time.
func (l *spanLog) link(parentOf map[string]string) {
	for _, idx := range l.byReq() {
		for _, i := range idx {
			want, ok := parentOf[l.spans[i].Name]
			if !ok {
				continue
			}
			for _, j := range idx {
				p := l.spans[j]
				if p.Name == want && p.Start <= l.spans[i].Start && p.End >= l.spans[i].End {
					l.spans[i].Parent = j
					break
				}
			}
		}
	}
}

// selfTimes returns, for every span name, the span's duration minus the
// part of it its child spans cover, in milliseconds.
func (l *spanLog) selfTimes() map[string][]float64 {
	covered := make([]int64, len(l.spans))
	children := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for p, cs := range children {
		covered[p] = unionLength(cs)
	}
	out := make(map[string][]float64)
	for i, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[i])/1e6)
	}
	return out
}

// unionLength is the total length covered by the intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := int64(math.MinInt64)
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = max(end, x[1])
	}
	return total
}

// writeSpans writes the passes' spans as one JSON file.
func writeSpans(path string, passes map[string]*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out := make(map[string][]span, len(passes))
	for name, l := range passes {
		out[name] = l.spans
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
