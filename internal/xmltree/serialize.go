package xmltree

import (
	"io"
	"strings"
)

// WriteXML serializes the document as XML to w. If indent is true the
// output is pretty-printed with two-space indentation; otherwise it is
// compact. Attribute nodes become XML attributes on their parent element.
// Forests serialize as a sequence of sibling trees (an XML fragment).
func (d *Document) WriteXML(w io.Writer, indent bool) error {
	sw := &errWriter{w: w}
	for i, r := range d.Roots {
		if i > 0 {
			sw.writeString("\n")
		}
		writeNode(sw, r, 0, indent)
	}
	if indent && len(d.Roots) > 0 {
		sw.writeString("\n")
	}
	return sw.err
}

// XML returns the document serialized as a string.
func (d *Document) XML(indent bool) string {
	var b strings.Builder
	_ = d.WriteXML(&b, indent)
	return b.String()
}

func writeNode(w *errWriter, n *Node, depth int, indent bool) {
	if indent && depth > 0 {
		w.writeString("\n")
		w.writeString(strings.Repeat("  ", depth))
	}
	w.writeString("<")
	w.writeString(n.Name)
	childElems := 0
	for _, c := range n.Children {
		if c.Attr {
			w.writeString(" ")
			w.writeString(c.LocalName())
			w.writeString(`="`)
			writeEscaped(w, c.Value, true)
			w.writeString(`"`)
		} else {
			childElems++
		}
	}
	if childElems == 0 && n.Value == "" {
		w.writeString("/>")
		return
	}
	w.writeString(">")
	writeEscaped(w, n.Value, false)
	for _, c := range n.Children {
		if !c.Attr {
			writeNode(w, c, depth+1, indent)
		}
	}
	if indent && childElems > 0 {
		w.writeString("\n")
		w.writeString(strings.Repeat("  ", depth))
	}
	w.writeString("</")
	w.writeString(n.Name)
	w.writeString(">")
}

func writeEscaped(w *errWriter, s string, inAttr bool) {
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
		w.writeString(s[start:i])
		w.writeString(rep)
		start = i + 1
	}
	w.writeString(s[start:])
}

// errWriter sticks at the first write error so serialization code can stay
// un-cluttered.
type errWriter struct {
	w   io.Writer
	err error
}

func (w *errWriter) writeString(s string) {
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}
