// Package semantics implements the denotational semantics ξ of Section VI:
// the meaning of a guard is a function from shapes to shapes. Compiling a
// guard against the adorned shape of the source data yields a Plan whose
// stages each carry a Target — the transformed arrangement of source types
// — plus the label-to-type resolution report of Section VIII.
package semantics

import (
	"fmt"
	"sort"
	"strings"

	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// TNode is one type in a target shape. Target types are distinct even when
// they render with the same element name (CLONE manufactures "a copy which
// is a distinct type").
type TNode struct {
	// Name is the element name the type renders as.
	Name string
	// Source is the source type path whose vertices populate this type;
	// empty for manufactured types (NEW and TYPE-FILL).
	Source string
	// Clone marks types minted by CLONE: same source data, fresh type
	// identity.
	Clone bool
	// Fill marks types manufactured by TYPE-FILL for unmatched labels.
	Fill bool
	// Kids are the child types, rendered in order.
	Kids []*TNode
	// Require holds RESTRICT patterns: a source vertex is rendered for
	// this type only if it has a closest partner chain matching every
	// requirement. Requirements are not rendered.
	Require []*TNode
	// parent links the node into its target tree (nil at roots).
	parent *TNode
}

// Target is a transformed shape: a forest of target types over the input
// shape's types.
type Target struct {
	Roots []*TNode
}

// NewLeaf returns a sourced leaf target type named after the source type.
func NewLeaf(source string) *TNode {
	return &TNode{Name: xmltree.TypeLocalName(source), Source: source}
}

// Attach appends kid below n, maintaining parent links.
func (n *TNode) Attach(kid *TNode) {
	kid.parent = n
	n.Kids = append(n.Kids, kid)
}

// Detach removes n from its parent (a no-op at roots) and returns the old
// parent.
func (n *TNode) Detach() *TNode {
	p := n.parent
	if p == nil {
		return nil
	}
	for i, k := range p.Kids {
		if k == n {
			p.Kids = append(p.Kids[:i:i], p.Kids[i+1:]...)
			break
		}
	}
	n.parent = nil
	return p
}

// Parent returns the node's parent target type, nil at roots.
func (n *TNode) Parent() *TNode { return n.parent }

// Copy deep-copies the subtree (requirements included).
func (n *TNode) Copy() *TNode {
	c := &TNode{Name: n.Name, Source: n.Source, Clone: n.Clone, Fill: n.Fill}
	for _, k := range n.Kids {
		c.Attach(k.Copy())
	}
	for _, r := range n.Require {
		rc := r.Copy()
		rc.parent = c
		c.Require = append(c.Require, rc)
	}
	return c
}

// Walk visits the subtree in preorder (requirements excluded).
func (n *TNode) Walk(fn func(*TNode)) {
	fn(n)
	for _, k := range n.Kids {
		k.Walk(fn)
	}
}

// Walk visits every target type in preorder across all roots.
func (t *Target) Walk(fn func(*TNode)) {
	for _, r := range t.Roots {
		r.Walk(fn)
	}
}

// isAncestor reports whether n is a proper ancestor of m in the target.
func (n *TNode) isAncestor(m *TNode) bool {
	for p := m.parent; p != nil; p = p.parent {
		if p == n {
			return true
		}
	}
	return false
}

// Reparent moves node u (and subtree) below node t, splicing t out to u's
// old parent first when t sits inside u's subtree (the MUTATE rule of
// DESIGN.md).
func (t *Target) Reparent(dst, u *TNode) error {
	if dst == u {
		return fmt.Errorf("semantics: cannot move %s below itself", u.Name)
	}
	if u.isAncestor(dst) {
		old := u.parent
		wasRoot := old == nil
		t.detachNode(dst)
		if wasRoot {
			t.Roots = append(t.Roots, dst)
		} else {
			old.Attach(dst)
		}
	}
	t.detachNode(u)
	dst.Attach(u)
	return nil
}

// detachNode removes n from its parent or from the root list.
func (t *Target) detachNode(n *TNode) {
	if n.parent != nil {
		n.Detach()
		return
	}
	for i, r := range t.Roots {
		if r == n {
			t.Roots = append(t.Roots[:i:i], t.Roots[i+1:]...)
			return
		}
	}
}

// Remove deletes n from the target, splicing its children up to n's parent
// (or to the root list when n is a root). RESTRICT requirements of n are
// discarded with it.
func (t *Target) Remove(n *TNode) {
	kids := append([]*TNode(nil), n.Kids...)
	if n.parent != nil {
		p := n.Detach()
		for _, k := range kids {
			k.parent = nil
			p.Attach(k)
		}
		n.Kids = nil
		return
	}
	t.detachNode(n)
	for _, k := range kids {
		k.parent = nil
		t.Roots = append(t.Roots, k)
	}
	n.Kids = nil
}

// String renders the target forest as indented "name <- source" lines.
func (t *Target) String() string {
	var b strings.Builder
	var walk func(n *TNode, depth int)
	walk = func(n *TNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		switch {
		case n.Source == "" && n.Fill:
			b.WriteString(" (filled)")
		case n.Source == "":
			b.WriteString(" (new)")
		case n.Clone:
			b.WriteString(" <= clone of ")
			b.WriteString(n.Source)
		default:
			b.WriteString(" <- ")
			b.WriteString(n.Source)
		}
		if len(n.Require) > 0 {
			b.WriteString(" requiring [")
			for i, r := range n.Require {
				if i > 0 {
					b.WriteString(" ")
				}
				b.WriteString(r.Source)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
		for _, k := range n.Kids {
			walk(k, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return b.String()
}

// EdgeCard predicts the cardinality of the target edge into n (Definition
// 7): how many n-instances each parent instance will have after rendering.
// Roots get 1..1. Edges into manufactured nodes and out of them follow the
// wrapper semantics documented in DESIGN.md: a NEW node materializes once
// per instance of its first sourced child (1..1 for childless wrappers).
func (n *TNode) EdgeCard(src *shape.Shape) shape.Card {
	p := n.parent
	if p == nil {
		return shape.One
	}
	pSrc := p.nearestSource()
	switch {
	case n.Source == "":
		// Manufactured node: one per instance of its first sourced child.
		f := n.FirstSourced()
		if f == nil || pSrc == "" {
			return shape.One
		}
		if c, ok := src.PathCard(pSrc, f.Source); ok {
			return c
		}
		return shape.One
	case p.Source == "":
		// Child of a manufactured wrapper: the wrapper's first sourced
		// child appears exactly once; siblings attach by closeness to it.
		f := p.FirstSourced()
		if f == n {
			return shape.One
		}
		if f != nil {
			if c, ok := src.PathCard(f.Source, n.Source); ok {
				return c
			}
		}
		return shape.One
	default:
		if c, ok := src.PathCard(p.Source, n.Source); ok {
			return c
		}
		// Disconnected in the source: nothing will join.
		return shape.Card{Min: 0, Max: 0}
	}
}

func (n *TNode) nearestSource() string {
	for m := n; m != nil; m = m.parent {
		if m.Source != "" {
			return m.Source
		}
	}
	return ""
}

// FirstSourced returns n's first sourced kid: for a manufactured (NEW or
// TYPE-FILL) type, the anchor it renders once per instance of. It is nil
// when every kid is manufactured.
func (n *TNode) FirstSourced() *TNode {
	for _, k := range n.Kids {
		if k.Source != "" {
			return k
		}
	}
	return nil
}

// AttrLeaf reports whether n renders as an attribute wherever it sits
// inside an element: a childless type sourced from attributes. At the
// top level such a type renders as an element.
func (n *TNode) AttrLeaf() bool {
	return n.Source != "" && len(n.Kids) == 0 && xmltree.TypeIsAttr(n.Source)
}

// OutputShape derives the adorned shape of the rendered output: types are
// the output name paths, cardinalities are the predicted edge cards. When
// two sibling target types render to the same path (CLONE next to its
// original) their cardinalities add. The result seeds the next stage of a
// composition.
func (t *Target) OutputShape(src *shape.Shape) *shape.Shape {
	out := shape.New()
	var walk func(n *TNode, parentPath string)
	walk = func(n *TNode, parentPath string) {
		path := n.Name
		if parentPath != "" {
			path = parentPath + xmltree.TypeSep + n.Name
		}
		out.AddType(path)
		if parentPath != "" {
			c := n.EdgeCard(src)
			if prev, ok := out.Card(parentPath, path); ok {
				c = shape.Card{Min: prev.Min + c.Min, Max: prev.Max + c.Max}
			}
			// setEdge semantics via AddEdge: replace cardinality.
			if err := out.AddEdge(parentPath, path, c); err != nil {
				// Same path under two different parents: keep the first
				// arrangement (collision between distinct compositions).
				return
			}
		}
		for _, k := range n.Kids {
			walk(k, path)
		}
	}
	// Sort roots for deterministic shapes.
	roots := append([]*TNode(nil), t.Roots...)
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Name < roots[j].Name })
	for _, r := range roots {
		walk(r, "")
	}
	return out
}
