package harness

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer during the traced replay. Parent is
// the ID of the span that caused it (0 for a root); spans of one replayed
// request share Req. Start and End are nanoseconds since the recorder was
// created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the benchmark ends. A nil
// *Recorder records nothing, which is how the untimed replay runs the
// same code without tracing.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// NewRecorder starts a recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its ID (0 from a nil recorder).
func (r *Recorder) Begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req})
	// The clock is read last so the append is outside the span.
	r.spans[id-1].Start = int64(time.Since(r.t0))
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// Spans returns the recorded spans, in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its child spans cover. Overlapping children
// are counted once, and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int][]iv{}
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.Start
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// TraceFile is the on-disk form of a workload's replay trace.
type TraceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// WriteTrace writes the spans to path as JSON.
func WriteTrace(path string, tf TraceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
