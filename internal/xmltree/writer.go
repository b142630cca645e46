package xmltree

import (
	"bufio"
	"io"
)

// Writer serializes a document from the same event stream a Builder
// takes — Open, the element's attributes, its text, its children, Close —
// as compact XML, without building the tree. The bytes equal
// Document.XML(false) of the tree a Builder makes from the same calls: an
// element with no text and no element children self-closes, and root
// trees are separated by "\n". Attributes must come before the element's
// text and children.
//
// Output is buffered until Flush. The first write error sticks: later
// calls write nothing, and Err and Flush report it.
type Writer struct {
	w  *bufio.Writer
	cw countingWriter
	// tag is set while the last start tag still lacks its ">": the
	// element self-closes if nothing is written into it.
	tag   bool
	depth int
	nodes int
	err   error
}

// NewWriter returns a Writer that buffers its output to w.
func NewWriter(w io.Writer) *Writer {
	x := &Writer{cw: countingWriter{w: w}}
	x.w = bufio.NewWriter(&x.cw)
	return x
}

// Open starts element name. The source vertex is ignored; Open returns
// nil, as a Writer builds no nodes.
func (x *Writer) Open(name string, _ *Node) *Node {
	if x.depth == 0 && x.nodes > 0 {
		x.put("\n")
	}
	x.endTag()
	x.put("<")
	x.put(name)
	x.tag = true
	x.depth++
	x.nodes++
	return nil
}

// Attribute writes an attribute into the start tag just opened. The
// source vertex is ignored; it returns nil.
func (x *Writer) Attribute(name, value string, _ *Node) *Node {
	writeAttr(x, name, value)
	return nil
}

// AttributeBytes is Attribute for a value held in a byte slice.
func (x *Writer) AttributeBytes(name string, value []byte) { writeAttr(x, name, value) }

// CharData writes the current element's text.
func (x *Writer) CharData(s string) { writeText(x, s) }

// CharDataBytes is CharData for text held in a byte slice.
func (x *Writer) CharDataBytes(b []byte) { writeText(x, b) }

// Close ends element name, self-closing it when nothing was written
// into it.
func (x *Writer) Close(name string) {
	x.depth--
	if x.tag {
		x.tag = false
		x.put("/>")
		return
	}
	x.put("</")
	x.put(name)
	x.put(">")
}

// Flush writes the buffered output to the sink and returns the first
// write error, if any.
func (x *Writer) Flush() error {
	if err := x.w.Flush(); x.err == nil {
		x.err = err
	}
	return x.err
}

// Err returns the first write error, if any.
func (x *Writer) Err() error { return x.err }

// Nodes returns the number of elements and attributes written.
func (x *Writer) Nodes() int { return x.nodes }

// Bytes returns the number of bytes flushed to the sink so far.
func (x *Writer) Bytes() int64 { return x.cw.n }

// endTag finishes a pending start tag with ">".
func (x *Writer) endTag() {
	if x.tag {
		x.tag = false
		x.put(">")
	}
}

func (x *Writer) put(s string) {
	if x.err == nil {
		_, x.err = x.w.WriteString(s)
	}
}

func writeAttr[T string | []byte](x *Writer, name string, value T) {
	x.nodes++
	x.put(" ")
	x.put(name)
	x.put(`="`)
	escape(x, value, true)
	x.put(`"`)
}

func writeText[T string | []byte](x *Writer, s T) {
	if len(s) == 0 {
		return
	}
	x.endTag()
	escape(x, s, false)
}

// escape writes s with "&", "<" and ">" escaped, and '"' too inAttr —
// the escape set of Document.WriteXML.
func escape[T string | []byte](x *Writer, s T, inAttr bool) {
	start := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			if !inAttr {
				continue
			}
			rep = "&quot;"
		default:
			continue
		}
		raw(x, s[start:i])
		x.put(rep)
		start = i + 1
	}
	raw(x, s[start:])
}

// raw writes s unescaped, copying it straight into the buffer whether it
// is a string or a byte slice, a bufferful at a time.
func raw[T string | []byte](x *Writer, s T) {
	for len(s) > 0 && x.err == nil {
		n := min(len(s), x.w.Available())
		if n == 0 {
			x.err = x.w.Flush()
			continue
		}
		_, x.err = x.w.Write(append(x.w.AvailableBuffer(), s[:n]...))
		s = s[n:]
	}
}

// countingWriter counts the bytes that reach the sink.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
