package render

import (
	"runtime"
	"sync"

	"xmorph/internal/closest"
	"xmorph/internal/obs"
	"xmorph/internal/semantics"
	"xmorph/internal/xmltree"
)

// RenderParallel is Render with the closest joins precomputed
// concurrently: every (parent type, child type) pair the target will join
// is known from the target shape alone, and the joins are independent, so
// a worker pool computes them before the (sequential, document-ordered)
// output pass begins. Output equals Render exactly. Span annotations
// match Render's; the recorder is shared across the prefetch workers.
func RenderParallel(doc Source, tgt *semantics.Target, sp *obs.Span) (*xmltree.Document, error) {
	r := newRenderer(doc, sp)
	r.joins = prefetchJoins(doc, tgt, runtime.GOMAXPROCS(0), r.rec)
	return r.tree(tgt, sp, nil)
}

// joinEdges collects every (parent source type, child source type) pair
// the render walk will join for the target, following its recursion.
// Missing a pair is harmless — the walk computes it lazily — but the
// collector aims to cover them all.
func joinEdges(tgt *semantics.Target) [][2]string {
	seen := map[joinKey]bool{}
	var out [][2]string
	add := func(p, c string) {
		if p == "" || c == "" {
			return
		}
		k := joinKey{p, c}
		if !seen[k] {
			seen[k] = true
			out = append(out, [2]string{p, c})
		}
	}
	var reqs func(owner string, rs []*semantics.TNode)
	reqs = func(owner string, rs []*semantics.TNode) {
		for _, r := range rs {
			if r.Source == "" {
				continue
			}
			add(owner, r.Source)
			reqs(r.Source, r.Kids)
		}
	}
	var walk func(n *semantics.TNode, parentSrc string)
	walk = func(n *semantics.TNode, parentSrc string) {
		if n.Source == "" {
			// Wrapper: joins anchor on the first sourced child, then its
			// siblings join from that child's instances.
			first := n.FirstSourced()
			if first != nil {
				add(parentSrc, first.Source)
				reqs(first.Source, first.Require)
				for _, kid := range n.Kids {
					if kid == first {
						walk(first, parentSrc)
						continue
					}
					walk(kid, first.Source)
				}
			} else {
				for _, kid := range n.Kids {
					walk(kid, parentSrc)
				}
			}
			return
		}
		add(parentSrc, n.Source)
		reqs(n.Source, n.Require)
		for _, kid := range n.Kids {
			walk(kid, n.Source)
		}
	}
	for _, root := range tgt.Roots {
		walk(root, "")
	}
	return out
}

// prefetchJoins computes the grouped closest joins for all target edges
// with a bounded worker pool. Each join lands in closest.Grouped's CSR
// layout, so the sequential output pass that follows reads contiguous
// partner groups instead of probing per-edge maps.
func prefetchJoins(doc Source, tgt *semantics.Target, workers int, rec *closest.Recorder) map[joinKey]*closest.Grouped {
	edges := joinEdges(tgt)
	if workers < 1 {
		workers = 1
	}
	results := make(map[joinKey]*closest.Grouped, len(edges))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	work := make(chan [2]string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range work {
				g := closest.GroupJoin(doc.NodesOfType(e[0]), doc.NodesOfType(e[1]), rec)
				mu.Lock()
				results[joinKey{e[0], e[1]}] = g
				mu.Unlock()
			}
		}()
	}
	for _, e := range edges {
		work <- e
	}
	close(work)
	wg.Wait()
	return results
}
