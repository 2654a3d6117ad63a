package cts

import (
	"fmt"
	"sort"

	"sllt/internal/cache"
	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// Stage-value codecs: canonical byte encodings of each cached stage's
// output, exact enough that a decoded replay is byte-identical to a fresh
// build — the DEF exporter and tree.Fingerprint read every field encoded
// here (kind, name, location, edge length, pin cap, buffer cell, sink
// index, child order), so all of them round-trip bit-for-bit. Floats travel
// as IEEE-754 bit patterns (cache.Enc.F64); child order is preserved, not
// sorted: the deterministic flow makes structural order canonical already.

// minNodeBytes is the smallest encoding of one node (7 fixed u64 fields +
// two empty strings + child count); used to bound the child-count a decoder
// will trust before allocating.
const minNodeBytes = 8 * 8

// encodeNode writes n's record then recurses over its children, preserving
// child order. Every byte lands in the encoder's growing buffer; the warm
// path re-encodes whole level trees per run, so the walk itself stays
// allocation-free.
func encodeNode(e *cache.Enc, n *tree.Node) {
	e.Int(int(n.Kind))
	e.Str(n.Name)
	e.F64(n.Loc.X)
	e.F64(n.Loc.Y)
	e.F64(n.EdgeLen)
	e.F64(n.PinCap)
	e.Str(n.BufCell)
	e.Int(n.SinkIdx)
	e.Int(len(n.Children))
	for _, c := range n.Children {
		encodeNode(e, c)
	}
}

func decodeNode(d *cache.Dec, remaining int) (*tree.Node, error) {
	if remaining <= 0 {
		return nil, fmt.Errorf("cts: cache entry: node nesting too deep")
	}
	n := &tree.Node{}
	n.Kind = tree.Kind(d.Int())
	n.Name = d.Str()
	x := d.F64()
	y := d.F64()
	n.Loc = geom.Pt(x, y)
	n.EdgeLen = d.F64()
	n.PinCap = d.F64()
	n.BufCell = d.Str()
	n.SinkIdx = d.Int()
	kids := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if kids < 0 || kids > remaining {
		return nil, fmt.Errorf("cts: cache entry: implausible child count %d", kids)
	}
	if kids > 0 {
		n.Children = make([]*tree.Node, 0, kids)
		for i := 0; i < kids; i++ {
			c, err := decodeNode(d, remaining-1)
			if err != nil {
				return nil, err
			}
			c.Parent = n
			n.Children = append(n.Children, c)
		}
	}
	return n, nil
}

// maxTreeDepth bounds decoder recursion; the flow never builds trees
// remotely this deep, so the limit only rejects corrupt entries.
const maxTreeDepth = 10000

// partitionValue is the partition stage's output record.
type partitionValue struct {
	k      int
	method string
	assign []int
}

func encodePartitionValue(v partitionValue) []byte {
	e := cache.NewEnc(8*len(v.assign) + 64)
	e.Int(v.k)
	e.Str(v.method)
	e.Int(len(v.assign))
	for _, a := range v.assign {
		e.Int(a)
	}
	return e.Bytes()
}

func decodePartitionValue(data []byte, wantNodes int) (partitionValue, error) {
	d := cache.NewDec(data)
	var v partitionValue
	v.k = d.Int()
	v.method = d.Str()
	n := d.Int()
	if err := d.Err(); err != nil {
		return v, err
	}
	if n != wantNodes {
		return v, fmt.Errorf("cts: cache entry: partition over %d nodes, want %d", n, wantNodes)
	}
	v.assign = make([]int, n)
	for i := range v.assign {
		v.assign[i] = d.Int()
		if a := v.assign[i]; d.Err() == nil && (a < 0 || a >= v.k) {
			return v, fmt.Errorf("cts: cache entry: assignment %d out of range [0,%d)", a, v.k)
		}
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return v, err
		}
		return v, fmt.Errorf("cts: cache entry: trailing bytes after partition value")
	}
	return v, nil
}

// clusterValue is one cluster build's output record: the detached driver
// subtree that becomes the next level's balancing point, its annotation, and
// the net's own QoR (measured before grafting, needed so warm runs report
// the same per-level resources as cold ones).
type clusterValue struct {
	driver *tree.Node
	loc    geom.Point
	cap    float64 // unit: fF
	delay  float64 // unit: ps
	qor    obs.NetQoR
}

func encodeClusterValue(v clusterValue) []byte {
	e := cache.NewEnc(1024)
	e.F64(v.loc.X)
	e.F64(v.loc.Y)
	e.F64(v.cap)
	e.F64(v.delay)
	e.F64(v.qor.WL)
	e.Int(v.qor.Buffers)
	e.F64(v.qor.BufArea)
	encodeNode(e, v.driver)
	return e.Bytes()
}

func decodeClusterValue(data []byte) (clusterValue, error) {
	d := cache.NewDec(data)
	var v clusterValue
	x := d.F64()
	y := d.F64()
	v.loc = geom.Pt(x, y)
	v.cap = d.F64()
	v.delay = d.F64()
	v.qor.WL = d.F64()
	v.qor.Buffers = d.Int()
	v.qor.BufArea = d.F64()
	n, err := decodeNode(d, maxTreeDepth)
	if err != nil {
		return v, err
	}
	if !d.Done() {
		return v, fmt.Errorf("cts: cache entry: trailing bytes after cluster value")
	}
	v.driver = n
	return v, nil
}

// topNetValue is the top-net stage's output: the finished tree (lower
// levels grafted in) plus the net's own QoR.
type topNetValue struct {
	root *tree.Node
	qor  obs.NetQoR
}

func encodeTopNetValue(v topNetValue) []byte {
	e := cache.NewEnc(4096)
	e.F64(v.qor.WL)
	e.Int(v.qor.Buffers)
	e.F64(v.qor.BufArea)
	encodeNode(e, v.root)
	return e.Bytes()
}

func decodeTopNetValue(data []byte) (topNetValue, error) {
	d := cache.NewDec(data)
	var v topNetValue
	v.qor.WL = d.F64()
	v.qor.Buffers = d.Int()
	v.qor.BufArea = d.F64()
	n, err := decodeNode(d, maxTreeDepth)
	if err != nil {
		return v, err
	}
	if !d.Done() {
		return v, fmt.Errorf("cts: cache entry: trailing bytes after top net value")
	}
	v.root = n
	return v, nil
}

func encodeTimingReport(r *timing.Report) []byte {
	e := cache.NewEnc(512 + 16*len(r.SinkLatency))
	e.F64(r.MaxLatency)
	e.F64(r.MinLatency)
	e.F64(r.Skew)
	e.F64(r.MaxSlew)
	e.Int(r.Buffers)
	e.F64(r.BufArea)
	e.F64(r.ClockCap)
	e.F64(r.WL)
	e.F64(r.MaxStgCap)
	idxs := make([]int, 0, len(r.SinkLatency))
	for i := range r.SinkLatency {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	e.Int(len(idxs))
	for _, i := range idxs {
		e.Int(i)
		e.F64(r.SinkLatency[i])
	}
	return e.Bytes()
}

func decodeTimingReport(data []byte) (*timing.Report, error) {
	d := cache.NewDec(data)
	r := &timing.Report{}
	r.MaxLatency = d.F64()
	r.MinLatency = d.F64()
	r.Skew = d.F64()
	r.MaxSlew = d.F64()
	r.Buffers = d.Int()
	r.BufArea = d.F64()
	r.ClockCap = d.F64()
	r.WL = d.F64()
	r.MaxStgCap = d.F64()
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > len(data) {
		return nil, fmt.Errorf("cts: cache entry: implausible sink count %d", n)
	}
	r.SinkLatency = make(map[int]float64, n)
	for i := 0; i < n; i++ {
		idx := d.Int()
		r.SinkLatency[idx] = d.F64()
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("cts: cache entry: trailing bytes after timing report")
	}
	return r, nil
}
