package render

import (
	"io"

	"xmorph/internal/obs"
	"xmorph/internal/semantics"
	"xmorph/internal/xmltree"
)

// Stream renders the transformation directly to w without materializing
// the output tree — Section VII's observation that "a transformation can
// immediately produce output, and stream the output node by node (in
// document order)". It is Render's walk driving an xmltree.Writer instead
// of a Builder. Closest joins still run over whole type sequences
// (sort-merge needs both sides), but output memory stays constant: nothing
// of the result is retained. (internal/stream goes further for targets the
// planner marks streamable, dropping the joins too.)
//
// The byte output equals Render(...).XML(false). Stream returns the number
// of elements and attributes written. Write errors — including those the
// final buffered flush surfaces — are returned after the count of nodes
// written before the failure.
//
// When sp is non-nil it records join statistics, nodes emitted, and bytes
// written on sp. The span's lifetime belongs to the caller; a nil sp
// changes nothing.
func Stream(doc Source, tgt *semantics.Target, w io.Writer, sp *obs.Span) (int, error) {
	r := newRenderer(doc, sp)
	xw := xmltree.NewWriter(w)
	r.b = xw
	r.walk(tgt)
	err := xw.Flush()
	if sp != nil {
		annotateJoins(sp, r.rec, xw.Nodes())
		sp.Set("bytes-out", xw.Bytes())
	}
	return xw.Nodes(), err
}
