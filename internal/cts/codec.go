package cts

import (
	"fmt"

	"sllt/internal/cache"
	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// The run-entry codec: a canonical byte encoding of a completed run, exact
// enough that a decoded replay is byte-identical to a fresh build — the DEF
// exporter, timing.Analyze and tree.Fingerprint read every node field
// encoded here (kind, name, location, edge length, pin cap, buffer cell,
// sink index, child order), so all of them round-trip bit-for-bit. Floats
// travel as IEEE-754 bit patterns (cache.Enc.F64); child order is
// preserved, not sorted: the deterministic flow makes structural order
// canonical already.

// encodeNode writes n's record then recurses over its children, preserving
// child order. Every byte lands in the encoder's growing buffer, so the
// walk itself stays allocation-free.
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

// encodeRunEntry writes a completed run: its level records, bottom-up and
// ending with the top net's, then the finished tree. A record keeps the
// fields that follow from the run's inputs; the kernel counters and SA
// statistics describe work a replay does not do, so they are left out.
func encodeRunEntry(levels []obs.LevelQoR, root *tree.Node) []byte {
	e := cache.NewEnc(4096)
	e.Int(len(levels))
	for _, q := range levels {
		e.Int(q.Nodes)
		e.Int(q.Clusters)
		e.F64(q.WL)
		e.F64(q.Skew)
		e.F64(q.MaxLatency)
		e.F64(q.MaxClusterCap)
		e.Int(q.Buffers)
		e.F64(q.BufArea)
		e.Int(q.KMeansRestarts)
		e.Str(q.AssignMethod)
	}
	encodeNode(e, root)
	return e.Bytes()
}

// minLevelBytes is the smallest encoding of one level record (nine fixed
// fields and the method's length prefix); it bounds the level count a
// decoder trusts before allocating.
const minLevelBytes = 10 * 8

func decodeRunEntry(data []byte) ([]obs.LevelQoR, *tree.Node, error) {
	d := cache.NewDec(data)
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if n < 1 || n > len(data)/minLevelBytes {
		return nil, nil, fmt.Errorf("cts: cache entry: implausible level count %d", n)
	}
	levels := make([]obs.LevelQoR, n)
	for i := range levels {
		q := &levels[i]
		q.Level = i
		q.Nodes = d.Int()
		q.Clusters = d.Int()
		q.WL = d.F64()
		q.Skew = d.F64()
		q.MaxLatency = d.F64()
		q.MaxClusterCap = d.F64()
		q.Buffers = d.Int()
		q.BufArea = d.F64()
		q.KMeansRestarts = d.Int()
		q.AssignMethod = d.Str()
	}
	root, err := decodeNode(d, maxTreeDepth)
	if err != nil {
		return nil, nil, err
	}
	if !d.Done() {
		return nil, nil, fmt.Errorf("cts: cache entry: trailing bytes after run entry")
	}
	return levels, root, nil
}
