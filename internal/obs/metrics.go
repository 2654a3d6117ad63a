package obs

import (
	"math"
	"sync/atomic"
)

// Metric units share the unitflow analyzer's vocabulary; registration uses
// these constants so report units and `// unit:` annotations cannot drift.
// These are unit *names* (the strings carry no dimension themselves, so
// they take no `// unit:` directive — the directives go on the quantities
// registered under them).
const (
	UnitNone = "1" // dimensionless counts and ratios
	UnitPs   = "ps"
	UnitUm   = "um"
)

// Dist is a fixed-bucket distribution: bucket i counts observations v with
// v <= Bounds[i]; one overflow bucket counts the rest. Bucket counts, the
// observation count and the min/max are all order-independent (atomic int
// adds and monotone CAS loops), so parallel observers produce identical
// snapshots for every schedule. The deliberately omitted running sum is the
// one aggregate float addition order could perturb.
type Dist struct {
	name    string
	unit    string
	bounds  []float64 // ascending, fixed at registration
	buckets []atomic.Int64
	count   atomic.Int64
	min     atomic.Uint64 // float64 bits; initialized to +Inf
	max     atomic.Uint64 // float64 bits; initialized to -Inf
}

func newDist(name, unit string, bounds []float64) *Dist {
	d := &Dist{name: name, unit: unit, bounds: append([]float64(nil), bounds...)}
	d.buckets = make([]atomic.Int64, len(d.bounds)+1)
	d.min.Store(math.Float64bits(math.Inf(1)))
	d.max.Store(math.Float64bits(math.Inf(-1)))
	return d
}

// Observe records one value. No-op on nil.
func (d *Dist) Observe(v float64) {
	if d == nil {
		return
	}
	i := 0
	for i < len(d.bounds) && v > d.bounds[i] {
		i++
	}
	d.buckets[i].Add(1)
	d.count.Add(1)
	for {
		old := d.min.Load()
		if v >= math.Float64frombits(old) || d.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := d.max.Load()
		if v <= math.Float64frombits(old) || d.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (d *Dist) Count() int64 {
	if d == nil {
		return 0
	}
	return d.count.Load()
}

// MetricJSON is one serialized metric (see the package doc's schema).
type MetricJSON struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"` // "counter" | "dist"
	Unit    string    `json:"unit"`
	Value   float64   `json:"value,omitempty"`
	Count   int64     `json:"count,omitempty"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

func (d *Dist) snapshot() MetricJSON {
	m := MetricJSON{Name: d.name, Kind: "dist", Unit: d.unit, Count: d.count.Load(),
		Bounds: append([]float64(nil), d.bounds...)}
	if m.Count > 0 {
		m.Min = math.Float64frombits(d.min.Load())
		m.Max = math.Float64frombits(d.max.Load())
	}
	m.Buckets = make([]int64, len(d.buckets))
	for i := range d.buckets {
		m.Buckets[i] = d.buckets[i].Load()
	}
	return m
}
