package view

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmorph/internal/core"
	"xmorph/internal/xmltree"
)

// transformed renders guard over doc from scratch — the oracle every
// incremental patch must match byte for byte.
func transformed(t *testing.T, guard string, doc *xmltree.Document) string {
	t.Helper()
	res, err := core.Transform(guard, doc, nil)
	if err != nil {
		t.Fatalf("oracle transform: %v", err)
	}
	return res.Output.XML(false)
}

// checkPatched asserts the view absorbed the edit in place (no stale, no
// extra render) and its output equals a fresh transformation.
func checkPatched(t *testing.T, v *View, guard string, wantPatches int) {
	t.Helper()
	if v.Stale() {
		t.Fatalf("view went stale; want in-place patch")
	}
	out, err := v.Output()
	if err != nil {
		t.Fatal(err)
	}
	if v.Renders() != 1 || v.Patches() != wantPatches {
		t.Errorf("renders = %d, patches = %d, want 1 render and %d patches",
			v.Renders(), v.Patches(), wantPatches)
	}
	if got, want := out.XML(false), transformed(t, guard, v.Source()); got != want {
		t.Errorf("patched output diverged:\nview:  %s\nfresh: %s", got, want)
	}
	assertParsesBack(t, out)
}

// assertParsesBack checks that out's nodes, in Nodes() order, match those
// of parsing out's own serialization — name, attribute flag, value and
// Dewey number — so patches keep each element's attributes first, as
// the parser lists them. A forest parses under a stand-in root.
func assertParsesBack(t *testing.T, out *xmltree.Document) {
	t.Helper()
	parsed := xmltree.MustParse("<forest>" + out.XML(false) + "</forest>").Nodes()[1:]
	got := out.Nodes()
	if len(got) != len(parsed) {
		t.Fatalf("output has %d nodes, parsed back %d", len(got), len(parsed))
	}
	for i, n := range got {
		p := parsed[i]
		if n.Name != p.Name || n.Attr != p.Attr || n.Value != p.Value || !n.Dewey.Equal(p.Dewey[1:]) {
			t.Errorf("node %d: output %s=%q at %s, parsed %s=%q at %s",
				i, n.Name, n.Value, n.Dewey, p.Name, p.Value, p.Dewey[1:])
		}
	}
}

// TestIncrementalInsertIntoExistingEmission: a new source vertex whose
// emission lands inside an already-rendered host is spliced at the
// correct slot and document-order position.
func TestIncrementalInsertIntoExistingEmission(t *testing.T) {
	guard := "MORPH book [ title author [ name ] ]"
	v := mustView(t, guard)
	// A second title into the first book (1.1): the emission joins the
	// existing book emission before the author slot.
	if err := v.InsertSubtree(dw(t, "1.1"), "<title>X2</title>"); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 1)
	out, _ := v.Output()
	if !strings.Contains(out.XML(false), "<title>X</title><title>X2</title><author>") {
		t.Errorf("spliced title out of order: %s", out.XML(false))
	}
}

// TestIncrementalDeleteInnerVertex: deleting a mid-tree vertex detaches
// exactly its emissions, leaving siblings in place.
func TestIncrementalDeleteInnerVertex(t *testing.T) {
	guard := "MORPH book [ title author [ name ] ]"
	v := mustView(t, guard)
	// Grow first, so the later delete is shape-preserving.
	if err := v.InsertSubtree(dw(t, "1.1"), "<author><name>V2</name></author>"); err != nil {
		t.Fatal(err)
	}
	// Delete the first book's original author (1.1.2).
	if err := v.DeleteSubtree(dw(t, "1.1.2")); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 2)
	out, _ := v.Output()
	if strings.Contains(out.XML(false), "<name>V</name>") || !strings.Contains(out.XML(false), "<name>V2</name>") {
		t.Errorf("wrong author emission removed: %s", out.XML(false))
	}
}

// TestIncrementalWrapperInstances: NEW manufactures a wrapper per
// instance of its first sourced child; inserts create instances in
// place and deletes retire them, anchor and all.
func TestIncrementalWrapperInstances(t *testing.T) {
	guard := "CAST-WIDENING MUTATE (NEW scribe) [ author ]"
	v := mustView(t, guard)
	if err := v.InsertSubtree(dw(t, "1.2"), "<author><name>S</name></author>"); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 1)
	out, _ := v.Output()
	if strings.Count(out.XML(false), "<scribe>") != 3 {
		t.Errorf("want 3 scribe wrappers after insert: %s", out.XML(false))
	}
	// Deleting the second book's first author retires its wrapper.
	if err := v.DeleteSubtree(dw(t, "1.2.2")); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 2)
	out, _ = v.Output()
	if strings.Count(out.XML(false), "<scribe>") != 2 {
		t.Errorf("want 2 scribe wrappers after delete: %s", out.XML(false))
	}
}

// TestIncrementalAttributeEmissions: attribute vertices render as
// attributes inside patched emissions exactly as in a full render.
func TestIncrementalAttributeEmissions(t *testing.T) {
	const attrSrc = `<data><book id="1"><title>X</title></book><book id="2"><title>Y</title></book></data>`
	guard := "MORPH book [ id title ]"
	v, err := Materialize(guard, xmltree.MustParse(attrSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.InsertSubtree(dw(t, "1"), `<book id="3"><title>Z</title></book>`); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 1)
	out, _ := v.Output()
	if !strings.Contains(out.XML(false), `<book id="3">`) {
		t.Errorf("attribute missing from patched emission: %s", out.XML(false))
	}

	// An element kid named before an attribute kid: the book emission's
	// children start with the attribute, and a second title must splice
	// in after both the attribute and the first title.
	guard = "MORPH book [ title id ]"
	v, err = Materialize(guard, xmltree.MustParse(attrSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.InsertSubtree(dw(t, "1.1"), `<title>X2</title>`); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 1)
	out, _ = v.Output()
	if !strings.Contains(out.XML(false), `<book id="1"><title>X</title><title>X2</title></book>`) {
		t.Errorf("title spliced out of order: %s", out.XML(false))
	}
}

// TestIncrementalWrapperAnchorBehindAttribute: a wrapper instance lists
// its attribute kids before its anchor's element, so a splice must find
// each instance's anchor by type, not by position.
func TestIncrementalWrapperAnchorBehindAttribute(t *testing.T) {
	const attrSrc = `<data id="d"><book><title>X</title></book><book><title>Y</title></book></data>`
	guard := "CAST-WIDENING MORPH (NEW entry) [ title id ]"
	v, err := Materialize(guard, xmltree.MustParse(attrSrc))
	if err != nil {
		t.Fatal(err)
	}
	// A second title in the first book: its instance goes between the
	// first book's and the second book's.
	if err := v.InsertSubtree(dw(t, "1.2"), `<title>X2</title>`); err != nil {
		t.Fatal(err)
	}
	checkPatched(t, v, guard, 1)
}

// TestIncrementalFallsBackWhenTargetChanges: when an edit changes what
// the guard compiles to (here a TYPE-FILL label gaining real instances),
// the view falls back to the lazy re-render path.
func TestIncrementalFallsBackWhenTargetChanges(t *testing.T) {
	guard := "TYPE-FILL CAST MORPH book [ title note ]"
	v := mustView(t, guard)
	if err := v.InsertSubtree(dw(t, "1.1"), "<note>n</note>"); err != nil {
		t.Fatal(err)
	}
	if !v.Stale() {
		t.Fatal("resolution-changing insert must stale the view")
	}
	out, err := v.Output()
	if err != nil {
		t.Fatal(err)
	}
	if v.Renders() != 2 || v.Patches() != 0 {
		t.Errorf("renders = %d, patches = %d, want fallback re-render", v.Renders(), v.Patches())
	}
	if got, want := out.XML(false), transformed(t, guard, v.Source()); got != want {
		t.Errorf("fallback output diverged:\nview:  %s\nfresh: %s", got, want)
	}
}

// TestIncrementalRandomizedDifferential drives a deterministic random
// edit script against materializations of several guards, comparing the
// view's output to a from-scratch transformation after every step —
// whichever path (patch or fallback re-render) the view chose.
func TestIncrementalRandomizedDifferential(t *testing.T) {
	guards := []string{
		"MORPH author [ name title ]",
		"MORPH book [ title author [ name ] ]",
		"CAST-WIDENING MUTATE (NEW scribe) [ author ]",
		"MORPH title",
	}
	for _, guard := range guards {
		t.Run(guard, func(t *testing.T) {
			const seedSrc = `<data>` +
				`<book><title>T1</title><note>n1</note><author><name>A1</name></author></book>` +
				`<book><title>T2</title><author><name>A2</name><name>A2b</name></author></book>` +
				`<book><title>T3</title><author><name>A3</name></author><author><name>A3b</name></author></book>` +
				`</data>`
			v, err := Materialize(guard, xmltree.MustParse(seedSrc))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			uid := 0
			fresh := func(kind string) string {
				uid++
				return fmt.Sprintf("%s%d", kind, uid)
			}
			// pick returns a random node of the given type, or nil.
			pick := func(typ string) *xmltree.Node {
				ns := v.Source().NodesOfType(typ)
				if len(ns) == 0 {
					return nil
				}
				return ns[rng.Intn(len(ns))]
			}
			for step := 0; step < 60; step++ {
				switch rng.Intn(8) {
				case 0: // new book with full structure
					err = v.InsertSubtree(dw(t, "1"), fmt.Sprintf(
						"<book><title>%s</title><author><name>%s</name></author></book>",
						fresh("T"), fresh("A")))
				case 1: // new author under a random book
					if b := pick("data.book"); b != nil {
						err = v.InsertSubtree(b.Dewey, fmt.Sprintf("<author><name>%s</name></author>", fresh("A")))
					}
				case 2: // new name under a random author
					if a := pick("data.book.author"); a != nil {
						err = v.InsertSubtree(a.Dewey, fmt.Sprintf("<name>%s</name>", fresh("A")))
					}
				case 3: // new note under a random book
					if b := pick("data.book"); b != nil {
						err = v.InsertSubtree(b.Dewey, fmt.Sprintf("<note>%s</note>", fresh("n")))
					}
				case 4: // delete a note, if any survive without it
					if n := pick("data.book.note"); n != nil && len(v.Source().NodesOfType("data.book.note")) >= 2 {
						err = v.DeleteSubtree(n.Dewey)
					}
				case 5: // delete an author only if its book keeps another
					if a := pick("data.book.author"); a != nil {
						siblings := 0
						for _, c := range a.Parent.Children {
							if c.Name == "author" {
								siblings++
							}
						}
						if siblings >= 2 {
							err = v.DeleteSubtree(a.Dewey)
						}
					}
				case 6: // delete a surplus name
					if n := pick("data.book.author.name"); n != nil && len(n.Parent.Children) >= 2 {
						err = v.DeleteSubtree(n.Dewey)
					}
				case 7: // value update on a random title
					if ti := pick("data.book.title"); ti != nil {
						err = v.UpdateValue(ti.Dewey, fresh("T"))
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				out, err := v.Output()
				if err != nil {
					t.Fatalf("step %d: output: %v", step, err)
				}
				if got, want := out.XML(false), transformed(t, guard, v.Source()); got != want {
					t.Fatalf("step %d: view diverged from fresh transform:\nview:  %s\nfresh: %s",
						step, got, want)
				}
			}
			if v.Patches() == 0 {
				t.Errorf("sweep never exercised the incremental path (renders = %d)", v.Renders())
			}
			t.Logf("guard %q: %d renders, %d patches", guard, v.Renders(), v.Patches())
		})
	}
}
