// Package plan classifies compiled guards for execution strategy: a
// target shape is either streamable — renderable in one Dewey-ordered
// pass over the source type sequences with constant memory — or
// store-backed, needing the materialized sort-merge closest joins of
// internal/render.
//
// The classification rests on the axis of every closest join the target
// asks for. For a join from parent source type J to node source type S
// (both rooted type paths), TypeLCP(J, S) makes the closest partners of
// a J-vertex v one of four shapes:
//
//   - self (J == S): the single partner is v itself.
//   - down (J a proper path prefix of S): partners are exactly the
//     S-vertices inside v's subtree — a contiguous run of the S
//     sequence, consumable by a forward cursor because consecutive
//     parents of one type have disjoint, document-ordered subtrees.
//   - up (S a proper path prefix of J): the single partner is v's
//     ancestor at depth |S|, i.e. the S-vertex whose Dewey number is
//     v's prefix — an ancestor-stack lookup, no join at all. Rooted
//     type paths guarantee it exists.
//   - cross (neither prefixes the other): partners share a Dewey prefix
//     shorter than both types' depths; enumerating them needs the
//     sort-merge over both whole sequences, and a group of a parents ×
//     t partners re-reads the same partners per parent — not possible
//     in one pass with constant memory.
//
// A target streams iff every rendered join is self/down (or up into a
// leaf), and every RESTRICT requirement chain avoids cross joins.
// Requirement probes are existence checks, so up-axis requirements may
// recurse: their cursors park on the found witness and re-answer
// consistently for repeated probes of the same ancestor.
package plan

import (
	"fmt"
	"strings"

	"xmorph/internal/semantics"
	"xmorph/internal/xmltree"
)

// Axis is the shape of one closest join, derived from the two rooted
// type paths.
type Axis uint8

const (
	// AxisSelf joins a type to itself: the partner is the vertex itself.
	AxisSelf Axis = iota
	// AxisDown joins to a descendant type: partners are the contiguous
	// subtree run of the child sequence.
	AxisDown
	// AxisUp joins to an ancestor type: the partner is the unique
	// ancestor whose Dewey number prefixes the vertex's.
	AxisUp
	// AxisCross joins sibling branches: needs the sort-merge join.
	AxisCross
)

func (a Axis) String() string {
	switch a {
	case AxisSelf:
		return "self"
	case AxisDown:
		return "down"
	case AxisUp:
		return "up"
	default:
		return "cross"
	}
}

// AxisOf classifies the closest join from parent source type join to
// node source type src. An empty join is the root scan: every vertex of
// src is a partner, which behaves like a down-axis run over the whole
// sequence.
func AxisOf(join, src string) Axis {
	if join == src {
		return AxisSelf
	}
	if isPathPrefix(join, src) {
		return AxisDown
	}
	if isPathPrefix(src, join) {
		return AxisUp
	}
	return AxisCross
}

// isPathPrefix reports whether p is a proper component-wise prefix of c.
// The empty path prefixes everything (the root scan).
func isPathPrefix(p, c string) bool {
	if p == "" {
		return c != ""
	}
	return len(c) > len(p) && strings.HasPrefix(c, p) && c[len(p)] == xmltree.TypeSep[0]
}

// Decision is the streamability verdict for one compiled target.
type Decision struct {
	// Streamable reports the target renders in one Dewey-ordered pass.
	Streamable bool
	// Reason names the first blocking join when not streamable.
	Reason string
	// Scans counts the forward cursors a streaming run opens (one per
	// down- or up-axis join, including requirement probes).
	Scans int
}

// String renders the verdict for explain output.
func (d Decision) String() string {
	if d.Streamable {
		return fmt.Sprintf("streamable (%d scans)", d.Scans)
	}
	return "store-backed: " + d.Reason
}

// Classify derives the streamability verdict of a composed target. The
// rules mirror the renderer exactly:
//
//   - A sourced rendered node must join self or down from its parent's
//     source, or up as a childless leaf (rendering an ancestor's
//     children would re-emit one subtree under many parents).
//   - A manufactured wrapper with no sourced child renders a static
//     fill subtree (always streamable); otherwise its first sourced
//     child must join self or down, and siblings join from that child.
//   - RESTRICT requirements recurse over self/down/up joins (existence
//     probes only); sourceless requirements are vacuous, as in the
//     renderer.
//   - Any cross-axis join anywhere makes the target store-backed.
func Classify(tgt *semantics.Target) Decision {
	c := &classifier{}
	for _, root := range tgt.Roots {
		if root.Source == "" {
			c.wrapper(root, "")
		} else {
			c.sourced(root, "")
		}
	}
	return Decision{Streamable: c.reason == "", Reason: c.reason, Scans: c.scans}
}

type classifier struct {
	scans  int
	reason string
}

func (c *classifier) fail(format string, args ...any) {
	if c.reason == "" {
		c.reason = fmt.Sprintf(format, args...)
	}
}

// sourced classifies a rendered node populated from tn.Source, joined
// from the parent source type join.
func (c *classifier) sourced(tn *semantics.TNode, join string) {
	switch AxisOf(join, tn.Source) {
	case AxisSelf:
	case AxisDown:
		c.scans++
	case AxisUp:
		c.scans++
		if len(tn.Kids) > 0 {
			c.fail("ancestor-axis type %q <- %s cannot stream children: the ancestor's subtree spans many %s parents", tn.Name, tn.Source, join)
			return
		}
		c.requires(tn)
		return
	case AxisCross:
		c.fail("cross-axis closest join %s -> %s needs a sort-merge over both sequences", join, tn.Source)
		return
	}
	c.requires(tn)
	for _, kid := range tn.Kids {
		if kid.Source == "" {
			c.wrapper(kid, tn.Source)
		} else {
			c.sourced(kid, tn.Source)
		}
	}
}

// wrapper classifies a manufactured (NEW / TYPE-FILL) node. The
// renderer emits one wrapper per instance of its first sourced child;
// with none, a single static fill subtree. Requirements on manufactured
// nodes are never checked by the renderer, so they do not constrain
// streamability either.
func (c *classifier) wrapper(tn *semantics.TNode, join string) {
	first := tn.FirstSourced()
	if first == nil {
		return // static fill subtree: manufactured kids only
	}
	switch AxisOf(join, first.Source) {
	case AxisSelf:
	case AxisDown:
		c.scans++
	default:
		c.fail("wrapper %q anchors on %s joined %s-axis from %s; streaming needs a self or descendant anchor", tn.Name, first.Source, AxisOf(join, first.Source), join)
		return
	}
	c.requires(first)
	for _, kid := range first.Kids {
		if kid.Source == "" {
			c.wrapper(kid, first.Source)
		} else {
			c.sourced(kid, first.Source)
		}
	}
	for _, kid := range tn.Kids {
		if kid == first {
			continue
		}
		if kid.Source == "" {
			c.wrapper(kid, first.Source)
		} else {
			c.sourced(kid, first.Source)
		}
	}
}

// requires classifies tn's RESTRICT requirement chains, which join from
// tn.Source.
func (c *classifier) requires(tn *semantics.TNode) {
	for _, req := range tn.Require {
		c.require(req, tn.Source)
	}
}

func (c *classifier) require(req *semantics.TNode, join string) {
	if req.Source == "" {
		return // vacuous, mirroring the renderer's satisfies
	}
	switch AxisOf(join, req.Source) {
	case AxisSelf:
	case AxisDown, AxisUp:
		c.scans++
	case AxisCross:
		c.fail("cross-axis RESTRICT probe %s -> %s needs a sort-merge over both sequences", join, req.Source)
		return
	}
	for _, kid := range req.Kids {
		c.require(kid, req.Source)
	}
}
