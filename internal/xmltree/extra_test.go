package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

func TestWalkPrune(t *testing.T) {
	d := MustParse(`<a><b><c/></b><d/></a>`)
	var visited []string
	d.Root().Walk(func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "b" // prune below b
	})
	if strings.Join(visited, ",") != "a,b,d" {
		t.Errorf("pruned walk = %v", visited)
	}
}

func TestOriginChains(t *testing.T) {
	a := &Node{Name: "a"}
	b := &Node{Name: "b", Src: a}
	c := &Node{Name: "c", Src: b}
	if c.Origin() != a {
		t.Error("Origin should follow the chain to the root")
	}
	if a.Origin() != a {
		t.Error("Origin of an original is itself")
	}
}

func TestIndentedSerialization(t *testing.T) {
	d := MustParse(`<a><b>x</b><c/></a>`)
	out := d.XML(true)
	want := "<a>\n  <b>x</b>\n  <c/>\n</a>\n"
	if out != want {
		t.Errorf("indented = %q, want %q", out, want)
	}
}

// TestWriterEscaping: text escapes "&", "<" and ">"; attribute values
// escape '"' as well — the escape set of Document.WriteXML.
func TestWriterEscaping(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Open("r", nil)
	w.Attribute("k", `a"b<c`, nil)
	w.CharDataBytes([]byte(`1 < 2 & "q"`))
	w.Close("r")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := `<r k="a&quot;b&lt;c">1 &lt; 2 &amp; "q"</r>`; b.String() != want {
		t.Errorf("escaped = %q, want %q", b.String(), want)
	}
}

// TestWriterMatchesSerializer: the Writer and a Builder fed the same
// events give the same bytes — self-closing, nesting and the forest
// separator included.
func TestWriterMatchesSerializer(t *testing.T) {
	feed := func(e interface {
		Open(string, *Node) *Node
		Attribute(string, string, *Node) *Node
		CharData(string)
		Close(string)
	}) {
		e.Open("a", nil)
		e.Attribute("id", "1", nil)
		e.Open("b", nil)
		e.Close("b")
		e.Open("c", nil)
		e.CharData("x&y")
		e.Close("c")
		e.Close("a")
		e.Open("a", nil)
		e.Attribute("id", "2", nil)
		e.Close("a")
		e.Open("d", nil)
		e.CharData("")
		e.Close("d")
	}
	b := NewBuilder()
	feed(b)
	var sb strings.Builder
	w := NewWriter(&sb)
	feed(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := b.MustDocument()
	if sb.String() != want.XML(false) {
		t.Errorf("writer = %q, serializer = %q", sb.String(), want.XML(false))
	}
	if w.Nodes() != want.Size() || w.Bytes() != int64(sb.Len()) {
		t.Errorf("writer counts %d nodes %d bytes, want %d and %d", w.Nodes(), w.Bytes(), want.Size(), sb.Len())
	}
}

func TestAttrText(t *testing.T) {
	d := MustParse(`<a k="v"/>`)
	attr := d.NodesOfType("a.@k")[0]
	if attr.Text() != "v" {
		t.Errorf("attr Text = %q", attr.Text())
	}
}

// TestParseNeverPanics feeds random byte soup to the parser: errors are
// fine, panics are not.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []byte(`<>/="ab &;!-`)
	for i := 0; i < 3000; i++ {
		n := rng.Intn(40)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", buf, r)
				}
			}()
			_, _ = ParseString(string(buf))
		}()
	}
}

func TestSerializeParseFixpoint(t *testing.T) {
	// After one round trip the serialized form is a fixpoint.
	srcs := []string{
		`<a x="1"><b>t</b><c/></a>`,
		`<r><p>one</p><p a="b">two</p></r>`,
	}
	for _, src := range srcs {
		once := MustParse(src).XML(false)
		twice := MustParse(once).XML(false)
		if once != twice {
			t.Errorf("not a fixpoint: %q -> %q", once, twice)
		}
	}
}
