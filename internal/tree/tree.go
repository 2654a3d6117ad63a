// Package tree defines the rooted rectilinear clock-tree data structure used
// throughout the repository, together with the SLLT quality metrics from the
// paper: shallowness α, lightness β and skewness γ (Definitions 2.1/2.2).
//
// A Tree is rooted at the clock source. Every non-root node carries the
// length of the wire connecting it to its parent; the length is at least the
// Manhattan distance between the endpoints and may exceed it when deferred
// merge embedding snakes wire to balance delays.
package tree

import (
	"fmt"
	"math"

	"sllt/internal/geom"
)

// Kind classifies tree nodes.
type Kind int

// Node kinds.
const (
	Source  Kind = iota // the clock root
	Sink                // a load pin (flip-flop clock pin); must be a leaf
	Steiner             // a routing branch point
	Buffer              // an inserted clock buffer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Source:
		return "source"
	case Sink:
		return "sink"
	case Steiner:
		return "steiner"
	case Buffer:
		return "buffer"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is a single clock-tree vertex.
type Node struct {
	Kind     Kind
	Name     string
	Loc      geom.Point
	Parent   *Node
	Children []*Node

	// EdgeLen is the routed wirelength from Parent to this node, in the same
	// units as coordinates. Zero for the root. Always >= Manhattan distance
	// to the parent (wire snaking makes it longer).
	EdgeLen float64

	// PinCap is the input pin capacitance in fF (sinks and buffers).
	PinCap float64

	// BufCell names the library cell when Kind == Buffer.
	BufCell string

	// SinkIdx is the index of this sink in the originating Net (-1 otherwise).
	SinkIdx int
}

// NewNode returns a node of the given kind at loc with SinkIdx -1.
func NewNode(k Kind, loc geom.Point) *Node {
	return &Node{Kind: k, Loc: loc, SinkIdx: -1}
}

// AddChild links c under n, setting c.Parent and a default EdgeLen equal to
// the Manhattan distance. Callers that snake wire overwrite EdgeLen after.
func (n *Node) AddChild(c *Node) {
	c.Parent = n
	c.EdgeLen = n.Loc.Dist(c.Loc)
	n.Children = append(n.Children, c)
}

// Detach unlinks n from its parent. No-op for the root.
func (n *Node) Detach() {
	p := n.Parent
	if p == nil {
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
	n.EdgeLen = 0
}

// Tree is a rooted clock tree.
type Tree struct {
	Root *Node
}

// New returns a tree rooted at a source node at loc.
func New(loc geom.Point) *Tree {
	return &Tree{Root: NewNode(Source, loc)}
}

// Walk visits every node in preorder. Returning false from fn prunes the
// subtree below the node.
func (t *Tree) Walk(fn func(*Node) bool) {
	if t == nil || t.Root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// Nodes returns all nodes in preorder.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// Sinks returns all sink nodes in preorder.
func (t *Tree) Sinks() []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool {
		if n.Kind == Sink {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Buffers returns all buffer nodes in preorder.
func (t *Tree) Buffers() []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool {
		if n.Kind == Buffer {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t == nil || t.Root == nil {
		return nil
	}
	var rec func(*Node) *Node
	rec = func(n *Node) *Node {
		cp := *n
		cp.Parent = nil
		cp.Children = nil
		for _, c := range n.Children {
			cc := rec(c)
			cc.Parent = &cp
			cp.Children = append(cp.Children, cc)
		}
		return &cp
	}
	return &Tree{Root: rec(t.Root)}
}

// Wirelength returns the total routed wirelength of the tree.
func (t *Tree) Wirelength() float64 {
	var wl float64
	t.Walk(func(n *Node) bool {
		wl += n.EdgeLen
		return true
	})
	return wl
}

// PathLength returns the routed path length from the root to n.
func PathLength(n *Node) float64 {
	var pl float64
	for v := n; v.Parent != nil; v = v.Parent {
		pl += v.EdgeLen
	}
	return pl
}

// Validate verifies the structural invariants every clock tree in this
// repository must satisfy:
//
//   - the tree and its root are non-nil, and the root has no parent and a
//     zero incoming edge;
//   - the node graph is acyclic and nodes are not shared between branches;
//   - parent/child pointers are symmetric in both directions (each child's
//     Parent is its parent, and each node's Parent lists it as a child);
//   - sinks are leaves;
//   - every edge length is finite, non-negative and at least the Manhattan
//     distance between its endpoints (wire may snake, never tunnel);
//   - coordinates are finite and pin capacitances are finite and
//     non-negative.
//
// It returns the first violation found, or nil.
func (t *Tree) Validate() error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("tree: nil tree")
	}
	if t.Root.Parent != nil {
		return fmt.Errorf("tree: root has a parent")
	}
	//slltlint:ignore floatcmp the root edge must be exactly zero, not merely small
	if t.Root.EdgeLen != 0 {
		return fmt.Errorf("tree: root has incoming edge length %g", t.Root.EdgeLen)
	}
	seen := make(map[*Node]bool)
	var err error
	var rec func(n *Node) bool
	rec = func(n *Node) bool {
		if seen[n] {
			err = fmt.Errorf("tree: cycle or shared node %q at %v", n.Name, n.Loc)
			return false
		}
		seen[n] = true
		if err = checkNodeScalars(n); err != nil {
			return false
		}
		if n.Kind == Sink && len(n.Children) > 0 {
			err = fmt.Errorf("tree: sink %q at %v has %d children", n.Name, n.Loc, len(n.Children))
			return false
		}
		for _, c := range n.Children {
			if c == nil {
				err = fmt.Errorf("tree: node at %v has a nil child", n.Loc)
				return false
			}
			if c.Parent != n {
				err = fmt.Errorf("tree: child %q at %v points at the wrong parent", c.Name, c.Loc)
				return false
			}
			// Scalars first: a non-finite child location would poison the
			// Manhattan-distance comparison below.
			if err = checkNodeScalars(c); err != nil {
				return false
			}
			if md := n.Loc.Dist(c.Loc); c.EdgeLen < md-geom.Eps {
				err = fmt.Errorf("tree: edge %v→%v length %g below Manhattan distance %g",
					n.Loc, c.Loc, c.EdgeLen, md)
				return false
			}
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(t.Root)
	return err
}

func checkNodeScalars(n *Node) error {
	if math.IsNaN(n.Loc.X) || math.IsInf(n.Loc.X, 0) ||
		math.IsNaN(n.Loc.Y) || math.IsInf(n.Loc.Y, 0) {
		return fmt.Errorf("tree: node %q has non-finite location %v", n.Name, n.Loc)
	}
	if math.IsNaN(n.EdgeLen) || math.IsInf(n.EdgeLen, 0) || n.EdgeLen < 0 {
		return fmt.Errorf("tree: node %q at %v has bad edge length %g", n.Name, n.Loc, n.EdgeLen)
	}
	if math.IsNaN(n.PinCap) || math.IsInf(n.PinCap, 0) || n.PinCap < 0 {
		return fmt.Errorf("tree: node %q at %v has bad pin cap %g", n.Name, n.Loc, n.PinCap)
	}
	return nil
}

// BBox returns the bounding box of all node locations.
func (t *Tree) BBox() geom.Rect {
	r := geom.EmptyRect()
	t.Walk(func(n *Node) bool { r = r.Grow(n.Loc); return true })
	return r
}

// CountKind returns the number of nodes of kind k.
func (t *Tree) CountKind(k Kind) int {
	var c int
	t.Walk(func(n *Node) bool {
		if n.Kind == k {
			c++
		}
		return true
	})
	return c
}

// MaxDepth returns the maximum number of edges on any root-to-leaf path.
func (t *Tree) MaxDepth() int {
	var rec func(*Node) int
	rec = func(n *Node) int {
		best := 0
		for _, c := range n.Children {
			if d := rec(c) + 1; d > best {
				best = d
			}
		}
		return best
	}
	if t == nil || t.Root == nil {
		return 0
	}
	return rec(t.Root)
}

// TotalLoad returns the total load capacitance of the tree seen from the
// root: sum of sink and buffer input pin caps plus wire capacitance at
// capPerUnit (fF per coordinate unit). This matches the paper's
// load = Σ Cap_pin(s_i) + c·WL(T).
func (t *Tree) TotalLoad(capPerUnit float64) float64 {
	var load float64
	t.Walk(func(n *Node) bool {
		load += n.EdgeLen * capPerUnit
		if n.Kind == Sink || n.Kind == Buffer {
			load += n.PinCap
		}
		return true
	})
	return load
}
