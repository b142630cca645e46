// Package view maintains a materialized transformation — the mitigation
// Section VIII sketches for the cost of physical transformation:
// "materializing the transformation and mapping XUpdate operations to
// updates of the transformation".
//
// A View pairs a source document with the rendered output of a guard and
// an index from each source vertex to its output copies (built from the
// renderer's provenance links). Value updates propagate in O(copies).
// Structural updates (insert/delete) are mapped to in-place patches of
// the output: the closest relation is structural and symmetric — two
// vertices are closest exactly when they share the ancestor at their
// types' common-prefix depth — so inserting or deleting a source subtree
// only creates or destroys closest pairs involving the edited vertices,
// never re-pairs surviving ones. The view exploits that locality to
// splice just the affected emissions, falling back to a full lazy
// re-render only when the edit changes what the guard compiles to (or
// the guard uses RESTRICT, whose existence probes a local patch cannot
// re-evaluate).
package view

import (
	"fmt"

	"xmorph/internal/closest"
	"xmorph/internal/core"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// View is a materialized guard output kept consistent with its source.
type View struct {
	guard   string
	source  *xmltree.Document
	checked *core.Checked
	// target is the composed target the current output was rendered
	// from; prov, rank and gens index into this exact tree.
	target *semantics.Target
	output *xmltree.Document
	// copies maps each source vertex to its rendered copies.
	copies map[*xmltree.Node][]*xmltree.Node
	// prov maps each output node to the target type that emitted it
	// (the renderer's annotation, maintained across patches).
	prov map[*xmltree.Node]*semantics.TNode
	// anchors maps a source vertex to the wrapper instances anchored on
	// it (a manufactured element materializes once per instance of its
	// first sourced child).
	anchors map[*xmltree.Node][]*xmltree.Node
	// rank is each target type's emission slot among its parent's
	// children (roots: the slot in the output root list), in the
	// renderer's order: attribute kids, then a wrapper's anchor, then the
	// other element kids.
	rank map[*semantics.TNode]int
	// gens lists, per source type, the target types that materialize a
	// new emission when an instance of that type appears.
	gens map[string][]*semantics.TNode
	// incOK reports the target is patchable: no RESTRICT requirements.
	incOK bool
	// nonlocal is set when partnersOf meets a join it cannot localize;
	// patchInsert then leaves the view to go stale.
	nonlocal bool
	stale    bool
	// renders counts full (re-)renders; patches counts structural
	// updates absorbed in place. Both are exposed for tests/monitoring.
	renders int
	patches int
}

// Materialize compiles the guard against the source and renders the
// initial output.
func Materialize(guardSrc string, source *xmltree.Document) (*View, error) {
	checked, err := core.Check(guardSrc, shape.FromDocument(source), nil)
	if err != nil {
		return nil, err
	}
	v := &View{guard: guardSrc, source: source, checked: checked}
	if err := v.render(); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *View) render() error {
	v.target = v.checked.Plan.ComposedTarget()
	out, prov, err := render.RenderAnnotated(v.source, v.target, nil)
	if err != nil {
		return err
	}
	v.output = out
	v.prov = prov
	v.scanTarget()
	v.reindexOutput()
	v.stale = false
	v.renders++
	return nil
}

// reindexOutput renumbers the (possibly just patched) output and
// rebuilds the copies and anchors indexes from provenance.
func (v *View) reindexOutput() {
	v.output.Reindex()
	v.copies = map[*xmltree.Node][]*xmltree.Node{}
	v.anchors = map[*xmltree.Node][]*xmltree.Node{}
	for _, n := range v.output.Nodes() {
		if n.Src != nil {
			src := n.Src.Origin()
			v.copies[src] = append(v.copies[src], n)
		}
		if w := v.anchorOf(n); w != nil {
			v.anchors[w] = append(v.anchors[w], n)
		}
	}
}

// scanTarget indexes the composed target for incremental patching:
// emission slots, the generator list per driving source type, and
// whether the target is patchable at all.
func (v *View) scanTarget() {
	v.rank = map[*semantics.TNode]int{}
	v.gens = map[string][]*semantics.TNode{}
	v.incOK = true
	for i, r := range v.target.Roots {
		v.rank[r] = i
		v.scanNode(r, true)
	}
}

// scanNode indexes tn's subtree. live reports whether the renderer
// emits instances below this point: sourced types inside a fill-only
// wrapper subtree are dropped, so they must not register as generators.
func (v *View) scanNode(tn *semantics.TNode, live bool) {
	if len(tn.Require) > 0 {
		// RESTRICT probes the existence of other emissions; a local
		// patch cannot re-evaluate which old emissions it flips.
		v.incOK = false
	}
	if tn.Source != "" {
		// A wrapper's first sourced child is emitted as part of each
		// wrapper instance; every other live sourced type generates
		// emissions of its own.
		p := tn.Parent()
		anchor := p != nil && p.Source == "" && p.FirstSourced() == tn
		if live && !anchor {
			v.gens[tn.Source] = append(v.gens[tn.Source], tn)
		}
		v.scanKids(tn, nil, live)
		return
	}
	first := tn.FirstSourced()
	if first == nil || !live {
		// Fill wrapper (or any wrapper under one): a static subtree of
		// manufactured elements; sourced descendants never render.
		v.scanKids(tn, nil, false)
		return
	}
	v.gens[first.Source] = append(v.gens[first.Source], tn)
	v.scanKids(tn, first, true)
}

// scanKids ranks tn's kids in emission order — attribute kids (in
// target order, below -1), then a wrapper's element anchor (-1), then
// the other element kids (their target index) — and indexes each.
func (v *View) scanKids(tn, first *semantics.TNode, live bool) {
	for i, k := range tn.Kids {
		switch {
		case k.AttrLeaf():
			v.rank[k] = i - len(tn.Kids) - 1
		case k == first:
			v.rank[k] = -1
		default:
			v.rank[k] = i
		}
		v.scanNode(k, live)
	}
}

// Output returns the materialized document, re-rendering first if a
// structural update staled the view.
func (v *View) Output() (*xmltree.Document, error) {
	if v.stale {
		// Structural changes may alter the shape; recompile so the guard
		// is re-type-checked against the new shape.
		checked, err := core.Check(v.guard, shape.FromDocument(v.source), nil)
		if err != nil {
			return nil, err
		}
		v.checked = checked
		if err := v.render(); err != nil {
			return nil, err
		}
	}
	return v.output, nil
}

// Renders reports how many full renders the view has performed.
func (v *View) Renders() int { return v.renders }

// Patches reports how many structural updates were absorbed by in-place
// patches instead of re-renders.
func (v *View) Patches() int { return v.patches }

// Stale reports whether a structural update invalidated the
// materialization.
func (v *View) Stale() bool { return v.stale }

// UpdateValue changes a source vertex's text value and propagates it to
// every rendered copy without re-rendering (the XUpdate "update text"
// case). The vertex is addressed by its Dewey number in the source.
func (v *View) UpdateValue(at xmltree.Dewey, newValue string) error {
	n := v.source.NodeAt(at)
	if n == nil {
		return fmt.Errorf("view: no source vertex at %s", at)
	}
	n.Value = newValue
	if v.stale {
		return nil // the next Output re-renders anyway
	}
	for _, c := range v.copies[n] {
		c.Value = newValue
	}
	return nil
}

// InsertSubtree appends a parsed fragment below the source vertex at the
// given Dewey number. When the guard still compiles to the identical
// target over the updated source, the new emissions are spliced into the
// output in place; otherwise the view goes stale and re-renders lazily.
func (v *View) InsertSubtree(at xmltree.Dewey, fragment string) error {
	parent := v.source.NodeAt(at)
	if parent == nil {
		return fmt.Errorf("view: no source vertex at %s", at)
	}
	if parent.Attr {
		return fmt.Errorf("view: cannot insert below an attribute")
	}
	frag, err := xmltree.ParseString(fragment)
	if err != nil {
		return err
	}
	eligible := !v.stale && v.incOK
	node, err := v.source.Graft(parent, frag.Root())
	if err != nil {
		return err
	}
	if !eligible || !v.recheck() {
		v.stale = true
		return nil
	}
	if v.patchInsert(node) {
		v.patches++
	} else {
		v.stale = true
	}
	return nil
}

// DeleteSubtree removes the source vertex at the given Dewey number
// (with its subtree), detaching its emissions from the output in place
// when the guard's compilation is unaffected; otherwise the view goes
// stale.
func (v *View) DeleteSubtree(at xmltree.Dewey) error {
	n := v.source.NodeAt(at)
	if n == nil {
		return fmt.Errorf("view: no source vertex at %s", at)
	}
	if n.Parent == nil {
		return fmt.Errorf("view: cannot delete the document root")
	}
	eligible := !v.stale && v.incOK
	gone := map[*xmltree.Node]bool{}
	n.Walk(func(m *xmltree.Node) bool { gone[m] = true; return true })
	if err := v.source.Remove(n); err != nil {
		return err
	}
	if !eligible || !v.recheck() {
		v.stale = true
		return nil
	}
	v.patchDelete(gone)
	v.patches++
	return nil
}

// Source returns the (possibly updated) source document.
func (v *View) Source() *xmltree.Document { return v.source }

// recheck recompiles the guard against the mutated source's shape. The
// incremental patch is sound only when compilation still produces the
// identical composed target: label resolution, TYPE-FILL and loss
// verdicts all depend on the shape, and any difference means the
// arrangement itself must change.
func (v *View) recheck() bool {
	checked, err := core.Check(v.guard, shape.FromDocument(v.source), nil)
	if err != nil {
		return false
	}
	return sameTarget(v.target, checked.Plan.ComposedTarget())
}

// sameTarget reports whether two composed targets describe the same
// arrangement (adornments aside — cardinalities do not change what the
// renderer emits).
func sameTarget(a, b *semantics.Target) bool {
	if len(a.Roots) != len(b.Roots) {
		return false
	}
	for i := range a.Roots {
		if !sameTNode(a.Roots[i], b.Roots[i]) {
			return false
		}
	}
	return true
}

func sameTNode(a, b *semantics.TNode) bool {
	if a.Name != b.Name || a.Source != b.Source ||
		len(a.Kids) != len(b.Kids) || len(a.Require) != len(b.Require) {
		return false
	}
	for i := range a.Kids {
		if !sameTNode(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	for i := range a.Require {
		if !sameTNode(a.Require[i], b.Require[i]) {
			return false
		}
	}
	return true
}

// partnersOf returns the closest partners of type T for vertex x, in
// document order: the T-instances sharing x's ancestor at the Dewey
// depth of the two types' common label prefix (exactly the pairs the
// renderer's sort-merge closest join produces, computed locally). The
// relation is symmetric, so this also enumerates the context vertices
// whose emissions x newly joins. Types with no common prefix are
// joined over whole sequences, which no local patch can do: partnersOf
// then sets v.nonlocal and returns nothing.
func (v *View) partnersOf(x *xmltree.Node, T string) []*xmltree.Node {
	l := closest.TypeLCP(x.Type, T)
	if l == 0 {
		v.nonlocal = true
		return nil
	}
	a := x
	for len(a.Dewey) > l {
		a = a.Parent
	}
	var out []*xmltree.Node
	a.Walk(func(n *xmltree.Node) bool {
		if n.Type == T {
			out = append(out, n)
			return false // same-type vertices never nest
		}
		return true
	})
	return out
}

// patchInsert splices the emissions generated by the grafted subtree s
// into the output. It reports false (leaving the view to go stale) when
// it meets a join it cannot localize.
func (v *View) patchInsert(s *xmltree.Node) bool {
	inS := map[*xmltree.Node]bool{}
	s.Walk(func(n *xmltree.Node) bool { inS[n] = true; return true })
	v.nonlocal = false
	s.Walk(func(x *xmltree.Node) bool {
		for _, g := range v.gens[x.Type] {
			v.insertEmissions(g, x, inS)
		}
		return !v.nonlocal
	})
	if v.nonlocal {
		return false
	}
	v.reindexOutput()
	return true
}

// insertEmissions materializes generator g's new emission driven by
// source vertex x, splicing one unit into every existing host. The
// render walk builds each unit, joining through the local partnersOf.
// Emissions whose context vertex lies inside the grafted subtree are
// skipped: the unit built for the enclosing new emission renders them
// itself.
func (v *View) insertEmissions(g *semantics.TNode, x *xmltree.Node, inS map[*xmltree.Node]bool) {
	p := g.Parent()
	if p == nil {
		idx := v.spliceIndex(v.output.Roots, g, x)
		v.output.Roots = insertAt(v.output.Roots, idx, render.Unit(g, x, false, v.partnersOf, v.prov))
		return
	}
	ctxType := p.Source
	if ctxType == "" {
		f := p.FirstSourced()
		if f == nil {
			return // static fill wrapper: no dynamic emissions below
		}
		ctxType = f.Source
	}
	for _, ctx := range v.partnersOf(x, ctxType) {
		if inS[ctx] {
			continue
		}
		for _, h := range v.hostsOf(p, ctx) {
			unit := render.Unit(g, x, true, v.partnersOf, v.prov)
			idx := v.spliceIndex(h.Children, g, x)
			h.Children = insertAt(h.Children, idx, unit)
			unit.Parent = h
		}
	}
}

// hostsOf returns the output nodes that are emissions of target type p
// driven by source vertex ctx (copies for sourced types, anchored
// instances for wrappers).
func (v *View) hostsOf(p *semantics.TNode, ctx *xmltree.Node) []*xmltree.Node {
	var hosts []*xmltree.Node
	if p.Source != "" {
		for _, c := range v.copies[ctx] {
			if v.prov[c] == p {
				hosts = append(hosts, c)
			}
		}
		return hosts
	}
	for _, c := range v.anchors[ctx] {
		if v.prov[c] == p {
			hosts = append(hosts, c)
		}
	}
	return hosts
}

// spliceIndex finds the insertion point for a new emission of g driven
// by x within an output child (or root) list: after every slot that
// renders earlier, and after same-slot emissions with earlier drivers.
func (v *View) spliceIndex(list []*xmltree.Node, g *semantics.TNode, x *xmltree.Node) int {
	gr := v.rank[g]
	idx := 0
	for _, c := range list {
		tn, known := v.prov[c]
		if !known {
			idx++ // foreign node: keep it where it is
			continue
		}
		r := v.rank[tn]
		d := v.driverOf(c)
		if r < gr || (r == gr && d != nil && d.Dewey.Compare(x.Dewey) < 0) {
			idx++
			continue
		}
		break
	}
	return idx
}

// driverOf returns the source vertex whose existence an output node's
// emission is tied to: its provenance for sourced emissions, the anchor
// for wrapper instances, nil for static fill elements.
func (v *View) driverOf(c *xmltree.Node) *xmltree.Node {
	if c.Src != nil {
		return c.Src.Origin()
	}
	return v.anchorOf(c)
}

// anchorOf returns the source vertex wrapper instance c is anchored on —
// the provenance of its first sourced kid's emission, which need not be
// c's first child, as attributes come first — or nil when c is no
// wrapper instance.
func (v *View) anchorOf(c *xmltree.Node) *xmltree.Node {
	tn := v.prov[c]
	if tn == nil || tn.Source != "" {
		return nil
	}
	first := tn.FirstSourced()
	if first == nil {
		return nil
	}
	for _, k := range c.Children {
		if v.prov[k] == first {
			return k.Src.Origin()
		}
	}
	return nil
}

func insertAt(list []*xmltree.Node, i int, n *xmltree.Node) []*xmltree.Node {
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

// patchDelete detaches every emission whose driver vertex was deleted.
// Because closest pairs are structural, deleting a source subtree can
// only destroy emissions driven by its vertices (and whatever was
// rendered inside them) — surviving emissions never re-pair.
func (v *View) patchDelete(gone map[*xmltree.Node]bool) {
	var tops []*xmltree.Node
	for _, c := range v.output.Nodes() {
		d := v.driverOf(c)
		if d == nil || !gone[d] {
			continue
		}
		buried := false
		for a := c.Parent; a != nil; a = a.Parent {
			if ad := v.driverOf(a); ad != nil && gone[ad] {
				buried = true
				break
			}
		}
		if !buried {
			tops = append(tops, c)
		}
	}
	for _, c := range tops {
		v.detach(c)
	}
	v.reindexOutput()
}

// detach removes output node c (with its subtree) from the output tree
// and drops its provenance entries.
func (v *View) detach(c *xmltree.Node) {
	if c.Parent == nil {
		for i, r := range v.output.Roots {
			if r == c {
				v.output.Roots = append(v.output.Roots[:i:i], v.output.Roots[i+1:]...)
				break
			}
		}
	} else {
		p := c.Parent
		for i, k := range p.Children {
			if k == c {
				p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
				break
			}
		}
		c.Parent = nil
	}
	c.Walk(func(n *xmltree.Node) bool {
		delete(v.prov, n)
		return true
	})
}
