// Package stream is the one-pass streaming executor for streamable
// guards (see internal/plan): it renders a composed target straight
// from Dewey-ordered node scans to a writer, holding only a bounded set
// of forward cursors — one per down- or up-axis join — plus the current
// ancestor chain of in-flight nodes. It never materializes type
// sequences, closest.Grouped join graphs, or a result tree, so peak
// memory is independent of document size and the first output byte
// leaves before the first type sequence has been fully read.
//
// The invariant that makes one pass suffice: every rendered node's
// parent instances arrive in document order with pairwise-disjoint
// subtrees (they share one type, hence one depth), so each join
// cursor's probe positions only ever move forward — down-axis partner
// runs are consumed in order, and up-axis ancestor lookups advance to
// a non-decreasing Dewey prefix. RESTRICT probes park on their witness
// so a repeated probe of the same vertex re-answers consistently
// without rereading.
//
// The byte output equals Render(...).XML(false) for every target the
// planner marks streamable; the golden corpus in testdata pins that
// oracle.
package stream

import (
	"errors"
	"fmt"
	"io"

	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/semantics"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// ErrNotStreamable reports an Execute call on a target the planner
// classified store-backed; callers should fall back to render.Stream.
var ErrNotStreamable = errors.New("stream: target is not streamable")

// Cursor is a forward-only scan over one type's node sequence in Dewey
// order. Dewey and Value may alias buffers reused across Next calls.
type Cursor interface {
	Next() bool
	Dewey() xmltree.Dewey
	Value() []byte
	Err() error
	Close()
}

// Source opens Dewey-ordered scans of type sequences. Scans of types
// the source does not hold must yield an empty cursor.
type Source interface {
	ScanType(t string) Cursor
}

// FromDoc adapts a shredded store document to a streaming Source: each
// scan decodes nodes straight from the kvstore iterator.
func FromDoc(d *store.Doc) Source { return docSource{d} }

type docSource struct{ d *store.Doc }

func (s docSource) ScanType(t string) Cursor { return s.d.ScanType(t) }

// NodeSource supplies materialized type sequences (render.Source's
// shape); FromNodes adapts it for tests and in-memory documents.
type NodeSource interface {
	NodesOfType(t string) []*xmltree.Node
}

// FromNodes adapts a materialized source (e.g. *xmltree.Document) to a
// streaming Source. Values are copied into a per-cursor reused buffer
// to honor the Cursor aliasing contract.
func FromNodes(doc NodeSource) Source { return nodeSource{doc} }

type nodeSource struct{ doc NodeSource }

func (s nodeSource) ScanType(t string) Cursor {
	return &nodeCursor{nodes: s.doc.NodesOfType(t), idx: -1}
}

type nodeCursor struct {
	nodes []*xmltree.Node
	idx   int
	val   []byte
}

func (c *nodeCursor) Next() bool {
	c.idx++
	if c.idx >= len(c.nodes) {
		return false
	}
	c.val = append(c.val[:0], c.nodes[c.idx].Value...)
	return true
}
func (c *nodeCursor) Dewey() xmltree.Dewey { return c.nodes[c.idx].Dewey }
func (c *nodeCursor) Value() []byte        { return c.val }
func (c *nodeCursor) Err() error           { return nil }
func (c *nodeCursor) Close()               {}

// Execute streams the composed target from src to w in one pass,
// returning the number of elements and attributes written. It fails
// with ErrNotStreamable when the planner rejects the target. When sp is
// non-nil it records nodes, bytes, and cursor count; a nil span is
// free. Write and storage errors — including the final buffered flush —
// are surfaced on the returned error.
func Execute(src Source, tgt *semantics.Target, w io.Writer, sp *obs.Span) (int, error) {
	if d := plan.Classify(tgt); !d.Streamable {
		return 0, fmt.Errorf("%w: %s", ErrNotStreamable, d.Reason)
	}
	e := &exec{src: src, w: xmltree.NewWriter(w)}
	// The execution tree mirrors the target structure with one node per
	// occurrence: a TNode shared between two points of the target (label
	// resolution and CLONE reuse subtrees) joins along a different axis
	// in each, so each occurrence carries its own cursor.
	roots := make([]*xnode, len(tgt.Roots))
	for i, root := range tgt.Roots {
		roots[i] = e.prep(root, "")
	}
	defer func() {
		for _, cu := range e.cursors {
			cu.c.Close()
		}
	}()
	e.run(roots)
	err := e.w.Flush()
	if err == nil {
		for _, cu := range e.cursors {
			if cerr := cu.c.Err(); cerr != nil {
				err = fmt.Errorf("stream: scan: %w", cerr)
				break
			}
		}
	}
	if sp != nil {
		sp.Set("nodes-out", int64(e.w.Nodes()))
		sp.Set("bytes-out", e.w.Bytes())
		sp.Set("scans", int64(len(e.cursors)))
	}
	return e.w.Nodes(), err
}

// cursor wraps a Cursor with its primed/valid state.
type cursor struct {
	c     Cursor
	valid bool
}

func (cu *cursor) advance()         { cu.valid = cu.c.Next() }
func (cu *cursor) d() xmltree.Dewey { return cu.c.Dewey() }
func (cu *cursor) v() []byte        { return cu.c.Value() }

// xnode is one occurrence of a target node in the execution tree: its
// join axis, its scan cursor (nil for self-axis joins, which reuse the
// parent's current vertex), and statically derived rendering facts.
type xnode struct {
	tn      *semantics.TNode
	sourced bool
	axis    plan.Axis
	cur     *cursor
	// attrLeaf marks a childless node of an attribute type: inside an
	// open element it renders as an attribute (the type's Attr-ness is
	// static, so the whole partner run is homogeneous).
	attrLeaf bool
	// kids are the rendered children, in target order; for a wrapper the
	// anchor child is carried in first instead and excluded here.
	kids []*xnode
	// reqs are the RESTRICT requirement probes.
	reqs []*xnode
	// first is a wrapper's anchor child (nil for a static fill subtree).
	first *xnode
}

type exec struct {
	src     Source
	w       *xmltree.Writer
	cursors []*cursor
}

// prep builds the execution tree: one xnode per target-node occurrence,
// opening (and priming) a cursor wherever the axis needs its own scan.
func (e *exec) prep(tn *semantics.TNode, join string) *xnode {
	if tn.Source == "" {
		x := &xnode{tn: tn}
		ftn := tn.FirstSourced()
		if ftn == nil {
			return x // static fill: rendered from the TNode alone
		}
		x.first = e.prep(ftn, join)
		for _, kid := range tn.Kids {
			if kid != ftn {
				x.kids = append(x.kids, e.prep(kid, ftn.Source))
			}
		}
		return x
	}
	x := &xnode{
		tn:       tn,
		sourced:  true,
		axis:     plan.AxisOf(join, tn.Source),
		attrLeaf: tn.AttrLeaf(),
	}
	if x.axis != plan.AxisSelf {
		x.cur = e.open(tn.Source)
	}
	for _, req := range tn.Require {
		x.reqs = append(x.reqs, e.prepRequire(req, tn.Source))
	}
	for _, kid := range tn.Kids {
		x.kids = append(x.kids, e.prep(kid, tn.Source))
	}
	return x
}

func (e *exec) prepRequire(req *semantics.TNode, join string) *xnode {
	if req.Source == "" {
		return &xnode{tn: req} // vacuous probe
	}
	x := &xnode{tn: req, sourced: true, axis: plan.AxisOf(join, req.Source)}
	if x.axis != plan.AxisSelf {
		x.cur = e.open(req.Source)
	}
	for _, kid := range req.Kids {
		x.kids = append(x.kids, e.prepRequire(kid, req.Source))
	}
	return x
}

func (e *exec) open(t string) *cursor {
	cu := &cursor{c: e.src.ScanType(t)}
	cu.advance()
	e.cursors = append(e.cursors, cu)
	return cu
}

// cmpPrefix compares d's first len(p) components against p: the result
// orders d's position relative to p's subtree (-1 before, 0 inside or
// at p, +1 past). d must be at least as deep as p.
func cmpPrefix(d, p xmltree.Dewey) int {
	for i, pc := range p {
		if dc := d[i]; dc != pc {
			if dc < pc {
				return -1
			}
			return 1
		}
	}
	return 0
}

// --- emission ---

func (e *exec) run(roots []*xnode) {
	for _, root := range roots {
		a := root
		if !root.sourced {
			a = root.first
		}
		if a == nil {
			e.fill(root.tn)
			continue
		}
		for cu := a.cur; cu.valid && e.w.Err() == nil; cu.advance() {
			if e.satisfies(a, cu.d()) {
				e.element(root, cu.d(), cu.v())
			}
		}
	}
}

// element writes one element of x rendered from vertex (vd, vv): a
// sourced type's own element, or a wrapper instance around its anchor
// x.first at that vertex. Attribute kids go first, then the text, then
// the element kids, the anchor leading.
func (e *exec) element(x *xnode, vd xmltree.Dewey, vv []byte) {
	e.w.Open(x.tn.Name, nil)
	first := x.first
	if first != nil && first.attrLeaf {
		e.w.AttributeBytes(first.tn.Name, vv)
	}
	for _, kid := range x.kids {
		if kid.attrLeaf {
			e.attrKid(kid, vd, vv)
		}
	}
	if x.sourced {
		e.w.CharDataBytes(vv)
	}
	if first != nil && !first.attrLeaf {
		e.element(first, vd, vv)
	}
	for _, kid := range x.kids {
		if !kid.attrLeaf {
			e.emit(kid, vd, vv)
		}
	}
	e.w.Close(x.tn.Name)
}

// attrKid drains an attribute-leaf kid's partners into the open tag.
func (e *exec) attrKid(kid *xnode, vd xmltree.Dewey, vv []byte) {
	switch kid.axis {
	case plan.AxisSelf:
		if e.satisfies(kid, vd) {
			e.w.AttributeBytes(kid.tn.Name, vv)
		}
	case plan.AxisDown:
		cu := kid.cur
		for cu.valid && cmpPrefix(cu.d(), vd) < 0 {
			cu.advance()
		}
		for cu.valid && cmpPrefix(cu.d(), vd) == 0 {
			if e.satisfies(kid, cu.d()) {
				e.w.AttributeBytes(kid.tn.Name, cu.v())
			}
			cu.advance()
		}
	}
}

// emit writes an element-rendering kid x of an element rendered from
// (vd, vv): one element per partner of x's anchor — x itself when
// sourced, a wrapper's first sourced kid — or one static fill subtree for
// a wrapper without one.
func (e *exec) emit(x *xnode, vd xmltree.Dewey, vv []byte) {
	a := x
	if !x.sourced {
		a = x.first
	}
	if a == nil {
		e.fill(x.tn)
		return
	}
	switch a.axis {
	case plan.AxisSelf:
		if e.satisfies(a, vd) {
			e.element(x, vd, vv)
		}
	case plan.AxisUp:
		// The unique partner is the ancestor at the kid type's depth:
		// the vertex whose Dewey number prefixes vd. It always exists
		// (type paths are rooted); the cursor advances monotonically
		// because parent vertices ascend. The planner guarantees up-axis
		// kids have no children.
		cu := a.cur
		for cu.valid && cmpPrefix(vd, cu.d()) > 0 {
			cu.advance()
		}
		if cu.valid && cmpPrefix(vd, cu.d()) == 0 && e.satisfies(a, cu.d()) {
			e.element(x, cu.d(), cu.v())
		}
	case plan.AxisDown:
		cu := a.cur
		for cu.valid && cmpPrefix(cu.d(), vd) < 0 {
			cu.advance()
		}
		for cu.valid && cmpPrefix(cu.d(), vd) == 0 {
			if e.satisfies(a, cu.d()) {
				e.element(x, cu.d(), cu.v())
			}
			cu.advance()
		}
	}
}

// fill writes a static manufactured subtree: manufactured kids only, as
// the renderer does.
func (e *exec) fill(tn *semantics.TNode) {
	e.w.Open(tn.Name, nil)
	for _, kid := range tn.Kids {
		if kid.Source == "" {
			e.fill(kid)
		}
	}
	e.w.Close(tn.Name)
}

// satisfies checks x's RESTRICT requirements against the candidate
// vertex at vd.
func (e *exec) satisfies(x *xnode, vd xmltree.Dewey) bool {
	for _, req := range x.reqs {
		if !e.require(req, vd) {
			return false
		}
	}
	return true
}

// require probes one requirement against the candidate at vd. Probe
// positions are globally non-decreasing per requirement occurrence, and
// the cursor parks on its witness (or the ancestor), so a repeated
// probe of the same vertex re-answers without rereading.
func (e *exec) require(req *xnode, vd xmltree.Dewey) bool {
	if !req.sourced {
		return true // vacuous, as in the renderer
	}
	switch req.axis {
	case plan.AxisSelf:
		return e.requireKids(req, vd)
	case plan.AxisUp:
		cu := req.cur
		for cu.valid && cmpPrefix(vd, cu.d()) > 0 {
			cu.advance()
		}
		if !cu.valid || cmpPrefix(vd, cu.d()) != 0 {
			return false
		}
		return e.requireKids(req, cu.d())
	case plan.AxisDown:
		cu := req.cur
		for cu.valid && cmpPrefix(cu.d(), vd) < 0 {
			cu.advance()
		}
		for cu.valid && cmpPrefix(cu.d(), vd) == 0 {
			if e.requireKids(req, cu.d()) {
				return true // park on the witness
			}
			cu.advance()
		}
		return false
	}
	return false
}

func (e *exec) requireKids(req *xnode, wd xmltree.Dewey) bool {
	for _, kid := range req.kids {
		if !e.require(kid, wd) {
			return false
		}
	}
	return true
}
