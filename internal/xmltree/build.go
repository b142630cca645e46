package xmltree

import "fmt"

// Builder constructs documents programmatically in document order. It is
// used by the renderer (Section VII) to assemble output forests and by the
// dataset generators.
//
// Open/Attribute/CharData/Close take a SAX-style event stream, the same
// calls a Writer serializes; Elem/Attr/Text/End are their chaining forms.
type Builder struct {
	doc   *Document
	stack []*Node
	last  *Node
	err   error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{doc: &Document{}}
}

// Open starts element name under the current element, with src as its
// provenance, makes it current and returns it. At the top level each
// element starts a new root tree: builders may produce forests (rendered
// transformations are forests).
func (b *Builder) Open(name string, src *Node) *Node {
	if b.err != nil {
		return nil
	}
	n := &Node{Name: name, Src: src}
	if len(b.stack) == 0 {
		b.doc.Roots = append(b.doc.Roots, n)
		n.Dewey = Dewey{len(b.doc.Roots)}
		n.Type = name
	} else {
		attach(b.stack[len(b.stack)-1], n)
	}
	b.last = n
	b.stack = append(b.stack, n)
	return n
}

// Attribute adds attribute name to the current element, with src as its
// provenance, and returns it.
func (b *Builder) Attribute(name, value string, src *Node) *Node {
	if b.err != nil {
		return nil
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: builder: attribute %q outside any element", name)
		return nil
	}
	n := &Node{Name: "@" + name, Value: value, Attr: true, Src: src}
	attach(b.stack[len(b.stack)-1], n)
	b.last = n
	return n
}

// CharData appends character data to the current element's value.
func (b *Builder) CharData(s string) {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: builder: text outside any element")
		return
	}
	b.stack[len(b.stack)-1].Value += s
}

// Close ends the current element (name is not checked).
func (b *Builder) Close(string) {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: builder: End without open element")
		return
	}
	b.stack = b.stack[:len(b.stack)-1]
}

// Last returns the node most recently created by Open or Attribute; it
// is nil before the first element.
func (b *Builder) Last() *Node { return b.last }

// Elem is Open without provenance, for chaining.
func (b *Builder) Elem(name string) *Builder { b.Open(name, nil); return b }

// Attr is Attribute without provenance, for chaining.
func (b *Builder) Attr(name, value string) *Builder { b.Attribute(name, value, nil); return b }

// Text is CharData, for chaining.
func (b *Builder) Text(s string) *Builder { b.CharData(s); return b }

// End is Close, for chaining.
func (b *Builder) End() *Builder { b.Close(""); return b }

// Leaf writes Elem(name), Text(value), End() in one call.
func (b *Builder) Leaf(name, value string) *Builder {
	return b.Elem(name).Text(value).End()
}

// Document finishes the build, indexing and returning the document.
func (b *Builder) Document() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.doc.Roots) == 0 {
		return nil, fmt.Errorf("xmltree: builder: empty document")
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: builder: %d unclosed element(s)", len(b.stack))
	}
	b.doc.index()
	return b.doc, nil
}

// MustDocument is Document that panics on error, for tests and generators.
func (b *Builder) MustDocument() *Document {
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}
