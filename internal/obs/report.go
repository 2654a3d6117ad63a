package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Report is one run's serialized observability record. These types are the
// schema: JSON marshals them, and the package doc shows the layout.
// testdata/report_golden.json pins the bytes.
type Report struct {
	Schema  string       `json:"schema"`
	Design  string       `json:"design"`
	Engine  string       `json:"engine"`
	Seed    int64        `json:"seed"`
	Workers int          `json:"workers"`
	Levels  []LevelQoR   `json:"levels"`
	Totals  Totals       `json:"totals"`
	Cache   *CacheJSON   `json:"cache,omitempty"`
	Metrics []MetricJSON `json:"metrics"`
	Span    *SpanJSON    `json:"span"`
}

// JSON renders the report as canonical indented JSON with a trailing
// newline. The encoding is deterministic: the report holds no maps, metrics
// are pre-sorted by name, and span children are ordered by call order then
// task index.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteTrace renders the span tree as an indented text profile, one line
// per span with its duration in milliseconds and share of the parent.
func (r *Report) WriteTrace(w io.Writer) error {
	if r.Span == nil {
		_, err := fmt.Fprintln(w, "(no spans)")
		return err
	}
	var werr error
	parentDur := []int64{r.Span.DurNs}
	r.Span.Walk(func(depth int, s *SpanJSON) {
		if werr != nil {
			return
		}
		for len(parentDur) <= depth+1 {
			parentDur = append(parentDur, 0)
		}
		parentDur[depth+1] = s.DurNs
		name := s.Name
		if s.Task >= 0 {
			name = fmt.Sprintf("%s[%d]", s.Name, s.Task)
		}
		line := fmt.Sprintf("%s%-*s %10.3fms", strings.Repeat("  ", depth), 28-2*depth, name,
			float64(s.DurNs)/1e6)
		if depth > 0 && parentDur[depth] > 0 {
			line += fmt.Sprintf(" %5.1f%%", 100*float64(s.DurNs)/float64(parentDur[depth]))
		}
		_, werr = fmt.Fprintln(w, line)
	})
	return werr
}

// StageNs sums the durations of top-level stage spans by name (a stage
// appearing once per level accumulates across levels). Nil-safe.
func (r *Report) StageNs() map[string]int64 { // unit: ns
	out := make(map[string]int64)
	if r == nil || r.Span == nil {
		return out
	}
	var rec func(s *SpanJSON)
	rec = func(s *SpanJSON) {
		for _, c := range s.Children {
			out[c.Name] += c.DurNs
			rec(c)
		}
	}
	rec(r.Span)
	return out
}
