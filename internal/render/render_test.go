package render

import (
	"strings"
	"testing"

	"xmorph/internal/closest"
	"xmorph/internal/guard"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

const fig1a = `<data>
  <book>
    <title>X</title>
    <author><name>V</name></author>
    <publisher><name>W</name></publisher>
  </book>
  <book>
    <title>Y</title>
    <author><name>V</name></author>
    <publisher><name>W</name></publisher>
  </book>
</data>`

const fig1b = `<data>
  <publisher>
    <name>W</name>
    <book>
      <title>X</title>
      <author><name>V</name></author>
    </book>
    <book>
      <title>Y</title>
      <author><name>V</name></author>
    </book>
  </publisher>
</data>`

const fig1c = `<data>
  <author>
    <name>V</name>
    <book>
      <title>X</title>
      <publisher><name>W</name></publisher>
    </book>
    <book>
      <title>Y</title>
      <publisher><name>W</name></publisher>
    </book>
  </author>
</data>`

// run compiles and renders a guard over an XML literal.
func run(t *testing.T, guardSrc, xmlSrc string) *xmltree.Document {
	t.Helper()
	doc := xmltree.MustParse(xmlSrc)
	plan, err := semantics.Compile(guard.MustParse(guardSrc), shape.FromDocument(doc))
	if err != nil {
		t.Fatalf("compile %q: %v", guardSrc, err)
	}
	cur := doc
	for _, sp := range plan.Stages {
		out, err := Render(cur, sp.Target, nil)
		if err != nil {
			t.Fatalf("render %q: %v", guardSrc, err)
		}
		cur = out
	}
	return cur
}

// TestRenderFig2 reproduces Figure 2: the guard applied to instances (a)
// and (b) yields the same XML; instance (c) differs only in grouping.
func TestRenderFig2(t *testing.T) {
	const g = "MORPH author [ name book [ title ] ]"
	outA := run(t, g, fig1a).XML(false)
	outB := run(t, g, fig1b).XML(false)

	wantAB := `<author><name>V</name><book><title>X</title></book></author>` + "\n" +
		`<author><name>V</name><book><title>Y</title></book></author>`
	if outA != wantAB {
		t.Errorf("instance (a):\ngot  %s\nwant %s", outA, wantAB)
	}
	if outB != wantAB {
		t.Errorf("instance (b):\ngot  %s\nwant %s", outB, wantAB)
	}

	// Instance (c): one author element grouping both books (the grouping
	// is in the source data).
	outC := run(t, g, fig1c).XML(false)
	wantC := `<author><name>V</name><book><title>X</title></book><book><title>Y</title></book></author>`
	if outC != wantC {
		t.Errorf("instance (c):\ngot  %s\nwant %s", outC, wantC)
	}
}

// TestRenderFig3 reproduces Figure 3 on instance (c): both titles end up
// closest to the publisher (the widening example).
func TestRenderFig3(t *testing.T) {
	out := run(t, "MORPH author [ title name publisher [ name ] ]", fig1c)
	s := out.XML(false)
	want := `<author><title>X</title><title>Y</title><name>V</name>` +
		`<publisher><name>W</name></publisher><publisher><name>W</name></publisher></author>`
	if s != want {
		t.Errorf("fig3 render:\ngot  %s\nwant %s", s, want)
	}
}

// TestRenderFig6 reproduces Figure 6: rearranging instance (a) into the
// shape of (c).
func TestRenderFig6(t *testing.T) {
	out := run(t, "MORPH data [ author [ name book [ title publisher [ name ] ] ] ]", fig1a)
	s := out.XML(false)
	want := `<data>` +
		`<author><name>V</name><book><title>X</title><publisher><name>W</name></publisher></book></author>` +
		`<author><name>V</name><book><title>Y</title><publisher><name>W</name></publisher></book></author>` +
		`</data>`
	if s != want {
		t.Errorf("fig6 render:\ngot  %s\nwant %s", s, want)
	}
}

// TestRenderMutateIdentity: MUTATE <root> reproduces the document.
func TestRenderMutateIdentity(t *testing.T) {
	for _, src := range []string{fig1a, fig1b, fig1c} {
		in := xmltree.MustParse(src)
		out := run(t, "MUTATE data", src)
		if in.XML(false) != out.XML(false) {
			t.Errorf("identity mutate:\nin  %s\nout %s", in.XML(false), out.XML(false))
		}
	}
}

// TestRenderIdentityReversible checks the empirical counterpart of the
// static verdict: an identity transform's closest graph equals the
// source's.
func TestRenderIdentityReversible(t *testing.T) {
	in := xmltree.MustParse(fig1a)
	plan, err := semantics.Compile(guard.MustParse("MUTATE data"), shape.FromDocument(in))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Render(in, plan.Final().Target, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := closest.Compare(closest.Build(in), closest.Build(out))
	if !res.Reversible() {
		t.Errorf("identity should be reversible: %+v", res)
	}
}

// TestRenderNonInclusiveDropsAuthors: the Section V-B example rendered —
// authors without names disappear.
func TestRenderNonInclusiveDropsAuthors(t *testing.T) {
	const src = `<data>
	  <book><author><title>A</title></author></book>
	  <book><author><name>V</name><title>B</title></author></book>
	</data>`
	out := run(t, "CAST MUTATE name [ author ]", src)
	authors := 0
	for _, n := range out.Nodes() {
		if n.Name == "author" {
			authors++
		}
	}
	if authors != 1 {
		t.Errorf("authors in output = %d, want 1 (nameless author dropped):\n%s", authors, out.XML(true))
	}
}

func TestRenderMutateMove(t *testing.T) {
	// Figure 1(b) -> (a)-like: publisher below book.
	out := run(t, "MUTATE book [ publisher [ name ] ]", fig1b)
	s := out.XML(false)
	// Each book must now contain a publisher with name W.
	if strings.Count(s, "<publisher><name>W</name></publisher>") != 2 {
		t.Errorf("publisher not duplicated under each book:\n%s", out.XML(true))
	}
	// data root survives with books beneath.
	if !strings.HasPrefix(s, "<data>") {
		t.Errorf("root lost: %s", s)
	}
}

func TestRenderClone(t *testing.T) {
	out := run(t, "MUTATE author [ CLONE title ]", fig1a)
	s := out.XML(false)
	// titles appear twice: originals under book, clones under author.
	if strings.Count(s, "<title>X</title>") != 2 {
		t.Errorf("clone of X missing:\n%s", out.XML(true))
	}
}

func TestRenderNewWrapsAuthors(t *testing.T) {
	out := run(t, "CAST-WIDENING MUTATE (NEW scribe) [ author ]", fig1a)
	s := out.XML(false)
	if strings.Count(s, "<scribe><author>") != 2 {
		t.Errorf("each author should be wrapped in scribe:\n%s", out.XML(true))
	}
	// Scribe nodes are manufactured: no provenance.
	for _, n := range out.Nodes() {
		if n.Name == "scribe" && n.Src != nil {
			t.Error("manufactured node has provenance")
		}
		if n.Name == "author" && n.Src == nil {
			t.Error("rendered node lacks provenance")
		}
	}
}

func TestRenderRestrictFilters(t *testing.T) {
	const src = `<data>
	  <book><author><title>A</title></author></book>
	  <book><author><name>V</name><title>B</title></author></book>
	</data>`
	// Only authors with a closest name are kept.
	out := run(t, "CAST MORPH (RESTRICT author [ name ]) [ title ]", src)
	s := out.XML(false)
	if strings.Contains(s, "A") || !strings.Contains(s, "B") {
		t.Errorf("restrict filtered wrong authors:\n%s", s)
	}
	// The requirement (name) itself is not rendered.
	if strings.Contains(s, "<name>") {
		t.Errorf("requirement leaked into output:\n%s", s)
	}
}

func TestRenderTranslate(t *testing.T) {
	out := run(t, "MORPH author [ name ] | TRANSLATE author -> writer", fig1a)
	s := out.XML(false)
	if !strings.Contains(s, "<writer>") || strings.Contains(s, "<author>") {
		t.Errorf("translate failed:\n%s", s)
	}
	// Values survive the composed stages.
	if !strings.Contains(s, "<name>V</name>") {
		t.Errorf("values lost in composition:\n%s", s)
	}
}

func TestRenderComposeDrop(t *testing.T) {
	out := run(t, "CAST MORPH author [ name ] | MUTATE (DROP name)", fig1a)
	s := out.XML(false)
	if strings.Contains(s, "name") {
		t.Errorf("dropped type still present:\n%s", s)
	}
	if strings.Count(s, "<author") != 2 {
		t.Errorf("authors lost:\n%s", s)
	}
}

// TestRenderAttributesRoundTrip: attributes survive rendering, and the
// rendered tree is the one parsing its own bytes gives — node for node,
// so each element lists its attributes first, as the parser does, even
// where the target names an element kid before an attribute kid.
func TestRenderAttributesRoundTrip(t *testing.T) {
	for _, tc := range []struct{ guard, src string }{
		{"MUTATE site", `<site><item id="i1"><name>bicycle</name></item><item id="i2"><name>car</name></item></site>`},
		{"MORPH item [ name id ]", `<item id="i1"><name>bicycle</name></item>`},
	} {
		out := run(t, tc.guard, tc.src)
		if out.XML(false) != xmltree.MustParse(tc.src).XML(false) {
			t.Errorf("%s: attribute identity failed:\n%s", tc.guard, out.XML(false))
		}
		assertParsesBack(t, out)
	}
}

// assertParsesBack checks that out's nodes, in Nodes() order, match those
// of parsing out's own serialization: name, attribute flag, value and
// Dewey number. A forest parses under a stand-in root.
func assertParsesBack(t *testing.T, out *xmltree.Document) {
	t.Helper()
	parsed := xmltree.MustParse("<forest>" + out.XML(false) + "</forest>").Nodes()[1:]
	got := out.Nodes()
	if len(got) != len(parsed) {
		t.Fatalf("rendered %d nodes, parsed back %d", len(got), len(parsed))
	}
	for i, n := range got {
		p := parsed[i]
		if n.Name != p.Name || n.Attr != p.Attr || n.Value != p.Value || !n.Dewey.Equal(p.Dewey[1:]) {
			t.Errorf("node %d: rendered %s=%q at %s, parsed %s=%q at %s",
				i, n.Name, n.Value, n.Dewey, p.Name, p.Value, p.Dewey[1:])
		}
	}
}

func TestRenderAttributePromotedToElement(t *testing.T) {
	// An attribute type morphed to a root renders as an element.
	const src = `<site><item id="i1"/></site>`
	out := run(t, "MORPH id", src)
	if got := out.XML(false); got != "<id>i1</id>" {
		t.Errorf("attribute promotion = %s", got)
	}
}

func TestRenderEmptyResult(t *testing.T) {
	// A RESTRICT that filters everything renders an empty document.
	const src = `<data><book><author><title>A</title></author></book></data>`
	doc := xmltree.MustParse(src)
	plan, err := semantics.Compile(guard.MustParse("CAST MORPH (RESTRICT author [ name ])"), shape.FromDocument(doc))
	if err == nil {
		out, rerr := Render(doc, plan.Final().Target, nil)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if out.Size() != 0 {
			t.Errorf("expected empty output, got %s", out.XML(false))
		}
		return
	}
	// name resolves to no type at all here -> a type error is also a
	// legitimate outcome for this guard.
	if _, ok := err.(*semantics.TypeError); !ok {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRenderValuesAndProvenance(t *testing.T) {
	out := run(t, "MORPH title", fig1a)
	titles := out.NodesOfType("title")
	if len(titles) != 2 || titles[0].Value != "X" || titles[1].Value != "Y" {
		t.Fatalf("title values wrong: %+v", titles)
	}
	for _, n := range titles {
		if n.Src == nil || n.Src.Value != n.Value {
			t.Errorf("provenance missing or wrong: %+v", n.Src)
		}
	}
}

// TestRenderDuplication: transforming (a) into (b)'s shape groups books
// under the single publisher type; publisher W appears once per source
// publisher vertex.
func TestRenderPublisherGrouping(t *testing.T) {
	out := run(t, "CAST MORPH publisher [ name book [ title ] ]", fig1a)
	s := out.XML(false)
	// Two publisher vertices in (a): each gets its closest book.
	if strings.Count(s, "<publisher>") != 2 {
		t.Errorf("publisher count wrong:\n%s", s)
	}
	if !strings.Contains(s, "<book><title>X</title></book>") {
		t.Errorf("book not grouped under publisher:\n%s", s)
	}
}
