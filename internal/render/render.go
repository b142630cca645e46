// Package render implements the Render algorithm of Section VII: given a
// target shape and a source document, it builds the output forest by
// recursively descending the target and pairing closest nodes with
// sort-merge closest joins over Dewey numbers.
//
// The read cost is linear in the size of the source type sequences touched
// (each closest join is a single merge); the write cost is bounded by the
// size of the output, which may be quadratic in the source when the target
// duplicates snippets (as the paper notes).
package render

import (
	"fmt"

	"xmorph/internal/closest"
	"xmorph/internal/obs"
	"xmorph/internal/semantics"
	"xmorph/internal/xmltree"
)

// Source supplies document-ordered type sequences — the TypeToSequence
// table of Section VIII. *xmltree.Document satisfies it (in memory), as
// does *store.Doc (lazily reading sequences from the shredded store, so
// the renderer touches only the types the target mentions).
type Source interface {
	NodesOfType(t string) []*xmltree.Node
}

// Render transforms doc into the arrangement described by tgt, preserving
// closest relationships (Definition 4). Every output element and attribute
// carries Src provenance to the source vertex it was rendered from;
// manufactured (NEW / TYPE-FILL) elements have no provenance. Each
// element's children list its attributes first, as parsing lists them.
//
// When sp is non-nil, Render records the closest-join statistics (joins,
// candidate nodes scanned, closest pairs kept) and the output node count
// on it. The span's lifetime belongs to the caller (Render neither
// creates children nor ends it); a nil sp adds no allocations.
func Render(doc Source, tgt *semantics.Target, sp *obs.Span) (*xmltree.Document, error) {
	return newRenderer(doc, sp).tree(tgt, sp, nil)
}

// RenderAnnotated is Render plus a provenance map from every output node
// (wrappers and fill elements included) to the target type that emitted
// it. The view layer uses the annotation to patch a materialized output
// in place when the source changes.
func RenderAnnotated(doc Source, tgt *semantics.Target, sp *obs.Span) (*xmltree.Document, map[*xmltree.Node]*semantics.TNode, error) {
	prov := map[*xmltree.Node]*semantics.TNode{}
	out, err := newRenderer(doc, sp).tree(tgt, sp, prov)
	return out, prov, err
}

// Unit renders one emission of target type tn from source vertex v as a
// detached subtree, for patching a materialized output in place: a
// sourced type's element (or, inElem, the attribute an attribute-typed
// leaf becomes inside an element), or one instance of a wrapper anchored
// on v. It joins through partners instead of sort-merge joins over whole
// type sequences, and records every node it builds in prov.
func Unit(tn *semantics.TNode, v *xmltree.Node, inElem bool, partners func(v *xmltree.Node, t string) []*xmltree.Node, prov map[*xmltree.Node]*semantics.TNode) *xmltree.Node {
	b := xmltree.NewBuilder()
	r := &renderer{b: b, join: partners, prov: prov}
	holder := b.Open("", nil) // stands in for the unit's parent
	if inElem && tn.AttrLeaf() {
		r.attr(tn, v)
	} else {
		r.element(tn, anchor(tn), v)
	}
	unit := holder.Children[0]
	unit.Parent = nil
	return unit
}

// tree runs the walk into a new document, recording each node's target
// type in prov when it is non-nil.
func (r *renderer) tree(tgt *semantics.Target, sp *obs.Span, prov map[*xmltree.Node]*semantics.TNode) (*xmltree.Document, error) {
	b := xmltree.NewBuilder()
	r.b, r.prov = b, prov
	r.walk(tgt)
	if b.Last() == nil {
		// Legal: the target types may simply have no instances.
		annotateJoins(sp, r.rec, 0)
		return &xmltree.Document{}, nil
	}
	out, err := b.Document()
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	annotateJoins(sp, r.rec, out.Size())
	return out, nil
}

// annotateJoins writes the join statistics and output size onto sp.
func annotateJoins(sp *obs.Span, rec *closest.Recorder, nodesOut int) {
	if sp == nil {
		return
	}
	joins, candidates, pairs := rec.Snapshot()
	sp.Set("joins", joins)
	sp.Set("candidates", candidates)
	sp.Set("closest-pairs", pairs)
	sp.Set("nodes-out", int64(nodesOut))
}

type joinKey struct{ parent, child string }

// emitter receives the walk's output in document order. *xmltree.Builder
// builds the output tree; *xmltree.Writer streams it as XML.
type emitter interface {
	Open(name string, src *xmltree.Node) *xmltree.Node
	Attribute(name, value string, src *xmltree.Node) *xmltree.Node
	CharData(s string)
	Close(name string)
}

// renderer is one render traversal of a composed target: the walk below
// pairs closest nodes through join and drives the emitter b.
type renderer struct {
	doc Source
	b   emitter
	// join returns the closest partners of type t for vertex v, in
	// document order: closestOf, or a caller's local computation (Unit).
	join func(v *xmltree.Node, t string) []*xmltree.Node
	// joins caches the grouped closest join for each (parent type, child
	// type) pair in closest.Grouped's CSR layout: one contiguous partner
	// slice plus offsets indexed by the parent's Ord — no per-parent map
	// entries, and a cached lookup allocates nothing.
	joins map[joinKey]*closest.Grouped
	// rec accumulates join statistics for tracing; nil when untraced.
	rec *closest.Recorder
	// prov, when non-nil, records the target type behind each emitted
	// node (RenderAnnotated, Unit).
	prov map[*xmltree.Node]*semantics.TNode
}

// newRenderer returns a renderer joining over doc's type sequences with
// an empty join cache; it records join statistics when sp is non-nil.
func newRenderer(doc Source, sp *obs.Span) *renderer {
	r := &renderer{doc: doc, joins: map[joinKey]*closest.Grouped{}}
	if sp != nil {
		r.rec = &closest.Recorder{}
	}
	r.join = r.closestOf
	return r
}

// closestOf returns the child-type nodes closest to v, from the cached
// sort-merge join of the two full type sequences.
func (r *renderer) closestOf(v *xmltree.Node, childType string) []*xmltree.Node {
	key := joinKey{v.Type, childType}
	g, ok := r.joins[key]
	if !ok {
		g = closest.GroupJoin(r.doc.NodesOfType(v.Type), r.doc.NodesOfType(childType), r.rec)
		r.joins[key] = g
	}
	return g.Of(v)
}

// satisfies checks RESTRICT requirements: v must have a closest partner
// chain for every requirement subtree.
func (r *renderer) satisfies(v *xmltree.Node, reqs []*semantics.TNode) bool {
	for _, req := range reqs {
		if req.Source == "" {
			continue
		}
		found := false
		for _, w := range r.join(v, req.Source) {
			if r.satisfies(w, req.Kids) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// walk renders the target's roots in order.
func (r *renderer) walk(tgt *semantics.Target) {
	for _, root := range tgt.Roots {
		r.emit(root, nil)
	}
}

// emit renders target type tn once per instance of its anchor that
// meets the anchor's RESTRICT requirements: the anchor's closest partners
// of v, the vertex the enclosing element was rendered from, or all its
// instances at the top level (v nil). A manufactured type without a
// sourced kid renders once, as a fill.
func (r *renderer) emit(tn *semantics.TNode, v *xmltree.Node) {
	a := anchor(tn)
	if a == nil {
		r.fill(tn)
		return
	}
	var ws []*xmltree.Node
	if v == nil {
		ws = r.doc.NodesOfType(a.Source)
	} else {
		ws = r.join(v, a.Source)
	}
	for _, w := range ws {
		if r.satisfies(w, a.Require) {
			r.element(tn, a, w)
		}
	}
}

// element renders one element of type tn from instance v of its anchor
// a: for a sourced type (a == tn) its own element, carrying v's text and
// provenance; for a wrapper one instance around kid a rendered from v.
// Kids join from v. Attribute kids come first, then the text, then the
// element kids in target order, save that a wrapper's anchor leads.
func (r *renderer) element(tn, a *semantics.TNode, v *xmltree.Node) {
	src, text := v, v.Value
	if a != tn {
		src, text = nil, ""
	}
	r.open(tn, src)
	for _, kid := range tn.Kids {
		switch {
		case !kid.AttrLeaf():
		case kid == a:
			r.attr(kid, v)
		default:
			for _, w := range r.join(v, kid.Source) {
				if r.satisfies(w, kid.Require) {
					r.attr(kid, w)
				}
			}
		}
	}
	if text != "" {
		r.b.CharData(text)
	}
	if a != tn && !a.AttrLeaf() {
		r.element(a, a, v)
	}
	for _, kid := range tn.Kids {
		if kid != a && !kid.AttrLeaf() {
			r.emit(kid, v)
		}
	}
	r.b.Close(tn.Name)
}

// fill renders a manufactured type that has no sourced kid, with its
// manufactured kids; sourced types below it have nothing to render from.
func (r *renderer) fill(tn *semantics.TNode) {
	r.open(tn, nil)
	for _, kid := range tn.Kids {
		if kid.Source == "" {
			r.fill(kid)
		}
	}
	r.b.Close(tn.Name)
}

func (r *renderer) open(tn *semantics.TNode, src *xmltree.Node) {
	r.mark(r.b.Open(tn.Name, src), tn)
}

// attr renders attribute-typed leaf tn from attribute vertex v; the
// attribute carries the target name (visible under TRANSLATE).
func (r *renderer) attr(tn *semantics.TNode, v *xmltree.Node) {
	r.mark(r.b.Attribute(tn.Name, v.Value, v), tn)
}

func (r *renderer) mark(n *xmltree.Node, tn *semantics.TNode) {
	if r.prov != nil {
		r.prov[n] = tn
	}
}

// anchor returns the type whose instances drive tn's emissions: tn itself
// when sourced, a wrapper's first sourced kid, nil for a fill.
func anchor(tn *semantics.TNode) *semantics.TNode {
	if tn.Source != "" {
		return tn
	}
	return tn.FirstSourced()
}
