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

// span is one timed call into a layer: name, interval, the span that
// caused it, and the request it belongs to. Times are offsets from the
// recorder's epoch so the file is independent of the wall clock.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 for a root span
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the measured code paths
// are the same in both modes apart from the recording itself.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a completed span and returns its id (0 when untraced).
func (r *recorder) add(name string, parent, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// begin opens a span whose children are recorded before it ends and
// returns its id; end closes it.
func (r *recorder) begin(name string, parent, req int64) int64 {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now.Sub(r.epoch)
}

// all returns a snapshot of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span id to its self time: the span's duration minus
// the part of its interval that its child spans cover. Overlapping
// children (parallel work) are merged first, so covered time is never
// counted twice, and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	byID := make(map[int64]span, len(spans))
	kids := map[int64][]iv{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered time.Duration
		var cur iv
		for i, c := range cs {
			switch {
			case i == 0:
				cur = c
			case c.lo <= cur.hi:
				if c.hi > cur.hi {
					cur.hi = c.hi
				}
			default:
				covered += cur.hi - cur.lo
				cur = c
			}
		}
		if len(cs) > 0 {
			covered += cur.hi - cur.lo
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// spanStats summarizes the recorded spans by name: durations and self
// times, for the per-layer metrics.
type spanStats struct {
	dur  map[string][]float64 // µs
	self map[string][]float64 // µs
}

func summarize(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], us(s.dur()))
		st.self[s.Name] = append(st.self[s.Name], us(self[s.ID]))
	}
	return st
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
