package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Report is one run's serialized observability record. See the package doc
// for the schema contract; ValidateReport checks a serialized instance
// against it.
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

// ValidateReport checks that data is a schema-conforming run report:
// correct schema tag, all required top-level fields with the right JSON
// types, well-formed level records, metric entries and span tree. It is the
// hand-rolled counterpart of the schema in the package doc — no external
// JSON-schema machinery.
func ValidateReport(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("report: not a JSON object: %w", err)
	}
	var schema string
	if err := need(raw, "schema", &schema); err != nil {
		return err
	}
	if schema != SchemaVersion {
		return fmt.Errorf("report: schema %q, want %q", schema, SchemaVersion)
	}
	var s string
	var n float64
	for _, key := range []string{"design", "engine"} {
		if err := need(raw, key, &s); err != nil {
			return err
		}
	}
	for _, key := range []string{"seed", "workers"} {
		if err := need(raw, key, &n); err != nil {
			return err
		}
	}
	var levels []map[string]json.RawMessage
	if err := need(raw, "levels", &levels); err != nil {
		return err
	}
	for i, lv := range levels {
		for _, key := range []string{"level", "nodes", "clusters", "wl_um", "skew_ps",
			"max_latency_ps", "max_cluster_cap_ff", "buffers", "buf_area_um2",
			"kmeans_iters", "kmeans_restarts", "sa_proposed", "sa_accepted",
			"sa_accept_rate", "grid_queries", "grid_ring_steps", "grid_hit_rate"} {
			if err := need(lv, key, &n); err != nil {
				return fmt.Errorf("levels[%d]: %w", i, err)
			}
		}
		if err := need(lv, "assign_method", &s); err != nil {
			return fmt.Errorf("levels[%d]: %w", i, err)
		}
	}
	var totals map[string]json.RawMessage
	if err := need(raw, "totals", &totals); err != nil {
		return err
	}
	for _, key := range []string{"wl_um", "skew_ps", "max_latency_ps", "buffers",
		"buf_area_um2", "clock_cap_ff", "max_stage_cap_ff", "max_slew_ps"} {
		if err := need(totals, key, &n); err != nil {
			return fmt.Errorf("totals: %w", err)
		}
	}
	if cacheRaw, ok := raw["cache"]; ok {
		if err := validateCache(cacheRaw); err != nil {
			return err
		}
	}
	var metrics []map[string]json.RawMessage
	if err := need(raw, "metrics", &metrics); err != nil {
		return err
	}
	prev := ""
	for i, m := range metrics {
		var name, kind, unit string
		if err := need(m, "name", &name); err != nil {
			return fmt.Errorf("metrics[%d]: %w", i, err)
		}
		if err := need(m, "kind", &kind); err != nil {
			return fmt.Errorf("metrics[%d]: %w", i, err)
		}
		if err := need(m, "unit", &unit); err != nil {
			return fmt.Errorf("metrics[%d]: %w", i, err)
		}
		if kind != "counter" && kind != "dist" {
			return fmt.Errorf("metrics[%d] %s: bad kind %q", i, name, kind)
		}
		if name < prev {
			return fmt.Errorf("metrics[%d] %s: not sorted by name (after %s)", i, name, prev)
		}
		prev = name
	}
	var span json.RawMessage
	if err := need(raw, "span", &span); err != nil {
		return err
	}
	return validateSpan(span, 0)
}

// validateCache checks the optional v1.1 "cache" section: total counters plus
// per-stage records sorted by stage name.
func validateCache(data json.RawMessage) error {
	var c map[string]json.RawMessage
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	var n float64
	for _, key := range []string{"hits", "misses", "puts", "hit_rate",
		"bytes_read", "bytes_written", "evictions", "disk_errors"} {
		if err := need(c, key, &n); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	var stages []map[string]json.RawMessage
	if err := need(c, "stages", &stages); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	prev := ""
	for i, st := range stages {
		var name string
		if err := need(st, "stage", &name); err != nil {
			return fmt.Errorf("cache.stages[%d]: %w", i, err)
		}
		for _, key := range []string{"hits", "misses", "puts", "hit_rate",
			"bytes_read", "bytes_written"} {
			if err := need(st, key, &n); err != nil {
				return fmt.Errorf("cache.stages[%d] %s: %w", i, name, err)
			}
		}
		if name < prev {
			return fmt.Errorf("cache.stages[%d] %s: not sorted by stage (after %s)", i, name, prev)
		}
		prev = name
	}
	return nil
}

func validateSpan(data json.RawMessage, depth int) error {
	if depth > 64 {
		return fmt.Errorf("span: nesting deeper than 64")
	}
	var sp map[string]json.RawMessage
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("span: %w", err)
	}
	var name string
	if err := need(sp, "name", &name); err != nil {
		return fmt.Errorf("span: %w", err)
	}
	var n float64
	for _, key := range []string{"task", "start_ns", "dur_ns"} {
		if err := need(sp, key, &n); err != nil {
			return fmt.Errorf("span %s: %w", name, err)
		}
	}
	if children, ok := sp["children"]; ok {
		var cs []json.RawMessage
		if err := json.Unmarshal(children, &cs); err != nil {
			return fmt.Errorf("span %s: children: %w", name, err)
		}
		for _, c := range cs {
			if err := validateSpan(c, depth+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// need unmarshals raw[key] into dst, failing when the key is absent or the
// JSON type does not match.
func need(raw map[string]json.RawMessage, key string, dst any) error {
	v, ok := raw[key]
	if !ok {
		return fmt.Errorf("missing field %q", key)
	}
	if err := json.Unmarshal(v, dst); err != nil {
		return fmt.Errorf("field %q: %w", key, err)
	}
	return nil
}
