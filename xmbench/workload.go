package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"xmorph/internal/gen/xmark"
)

// Input sizes. The resident document is what the read classes query in
// query-hot and query-cold; side documents are the small write traffic
// of those two workloads; ingest documents are the ~1 MB documents the
// ingest workload cycles through whole lifecycles.
const (
	residentFactor = 0.05  // ~2.1 MB of XML, ~77k nodes, ~1.1k store pages
	sideFactor     = 0.002 // ~85 KB
	ingestFactor   = 0.025 // ~1.05 MB
	sideDocs       = 4     // distinct side documents, cycled
	ingestDocs     = 3     // distinct ingest documents, cycled

	// residentSeed fixes the resident document, so every run queries
	// the same store layout; the workload seed drives everything sent
	// after setup. How many pages a later shred writes depends on the
	// resident document's last leaves (see README.md); with this seed,
	// as with most, a side document writes ~80 pages, not ~60.
	residentSeed = 2

	// Buffer pools, in 4 KiB pages. The hot pool holds the whole store
	// several times over; the cold pool is far below the ~176 pages the
	// read mix touches on the resident document.
	hotPoolPages  = 8192
	coldPoolPages = 32
)

// The read classes' guards. Each names the code path it exercises.
const (
	morphGuard      = "CAST MORPH bidder [ open_auction [ initial ] ]" // materialized render + xmltree
	joinStreamGuard = "CAST MORPH initial [ increase ]"                // join-backed render.Stream
	streamGuard     = "CAST MORPH person [ name emailaddress ]"        // one-pass stream executor
	xqueryGuard     = "MORPH person [ name ]"                          // logical + xq
)

func xqueryText(doc string) string {
	return fmt.Sprintf(`for $p in doc(%q)//person return string($p/name)`, doc)
}

type class int

const (
	cMorph class = iota
	cJoinStream
	cStream
	cXQuery
	cAdhoc
	cPatch
	cShred
	cDrop
	nClasses
)

var classNames = [nClasses]string{"morph", "joinstream", "stream", "xquery", "adhoc", "patch", "shred", "drop"}

func (c class) String() string { return classNames[c] }

func (c class) isRead() bool { return c <= cAdhoc }

// op is one request of the sequence and what its response must show.
type op struct {
	class class
	doc   string
	guard string  // read classes
	query string  // xquery
	want  *expect // read classes: the document state the answer reflects

	xml       []byte // shred: the document
	wantNodes int    // shred: nodes the store must report

	ed        edit        // patch
	wantPatch patchResult // patch

	inBytes int // XML bytes shredded or inserted, for write amplification
}

// lifecycle is one generated document with everything precomputed that
// its shred, patches and reads must answer.
type lifecycle struct {
	xml     []byte
	nodes   int
	before  expect // read answers right after the shred
	edits   []edit
	results []patchResult
	after   expect // read answers once every edit has landed
}

// newLifecycle generates an XMark document and runs the edit family over
// the benchmark's own model of it.
func newLifecycle(factor float64, seed int64, edits func(*rand.Rand, int64) []edit) (*lifecycle, error) {
	var buf bytes.Buffer
	if err := xmark.Generate(xmark.Config{Factor: factor, Seed: seed}).WriteXML(&buf, false); err != nil {
		return nil, err
	}
	root, err := parseTree(buf.Bytes())
	if err != nil {
		return nil, err
	}
	lc := &lifecycle{xml: buf.Bytes(), nodes: root.count(), before: expectOf(root)}
	if edits != nil {
		lc.edits = edits(rand.New(rand.NewSource(seed)), seed)
	}
	for _, ed := range lc.edits {
		r, err := ed.apply(root)
		if err != nil {
			return nil, err
		}
		lc.results = append(lc.results, r)
	}
	lc.after = expectOf(root)
	return lc, nil
}

var regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

// sideEdits: edits that keep the shape (a leaf replaced by a leaf of the
// same type) alternating with edits that change it (the leaf replaced by
// one of a new type, then renamed back). All four replace the same leaf
// of every item of one region, so they cost about the same and the patch
// median sits inside one cluster of latencies, not in the gap between two
// kinds of edit, where host noise would move it most.
func sideEdits(rng *rand.Rand, tag int64) []edit {
	r := "site.regions." + regions[rng.Intn(len(regions))] + ".item"
	return []edit{
		{path: r + ".location",
			fragment: fmt.Sprintf("<location>Bench City %d</location>", tag), keepsShape: true},
		{path: r + ".location", fragment: fmt.Sprintf("<place>Bench Town %d</place>", tag)},
		{path: r + ".place",
			fragment: fmt.Sprintf("<place>Bench Village %d</place>", tag), keepsShape: true},
		{path: r + ".place", fragment: "<location>United States</location>"},
	}
}

// ingestEdits interleaves, with the side family's shape-keeping and
// shape-changing replacements, a new initial price for every auction and
// two inserted persons, so the reads after the patches see new data in
// every read class. Half of the eight keep the shape. Their costs fall in
// four clusters: the inserts, the three location replacements that keep
// the shape, the two that change it, and the initial prices. The two
// middle edits by cost are both location replacements, so the patch
// median sits inside that cluster, not in the gap beside it.
func ingestEdits(rng *rand.Rand, tag int64) []edit {
	eds := sideEdits(rng, tag)
	relocate := func(town string) edit {
		e := eds[0]
		e.fragment = fmt.Sprintf("<location>%s %d</location>", town, tag)
		return e
	}
	person := func(id string) edit {
		return edit{insert: true, path: "site.people",
			fragment: fmt.Sprintf(`<person id="%s"><name>Bench Person %s</name><emailaddress>mailto:%s@example.net</emailaddress></person>`, id, id, id)}
	}
	return []edit{
		eds[0], eds[1],
		{path: "site.open_auctions.open_auction.initial",
			fragment: fmt.Sprintf("<initial>%d.%02d</initial>", 1+rng.Intn(200), rng.Intn(100)), keepsShape: true},
		person(fmt.Sprintf("bench%d", tag)),
		eds[3], relocate("Bench Port"), relocate("Bench Harbour"),
		person(fmt.Sprintf("bench%db", tag)),
	}
}

// adhocLabels are the category-subtree labels the ad hoc guards draw
// from: every guard roots at category, so its output stays small (one
// element per category) and compiling it dominates the request.
var adhocLabels = []string{"name", "description", "parlist", "listitem", "text", "keyword", "emph", "bold"}

// adhocFamily lists the ad hoc guards: every ordered choice of one to
// four distinct labels under category, flat, plus every ordered triple
// without name nested two ways (a nest holding both name and text makes
// category resolve to the items' @category attribute). The order is
// shuffled by seed; each run takes guards from the front, so no guard is
// sent twice.
func adhocFamily(seed int64) []string {
	var fam []string
	n := len(adhocLabels)
	for a := 0; a < n; a++ {
		A := adhocLabels[a]
		fam = append(fam, "CAST MORPH category [ "+A+" ]")
		for b := 0; b < n; b++ {
			if b == a {
				continue
			}
			B := adhocLabels[b]
			fam = append(fam, "CAST MORPH category [ "+A+" "+B+" ]")
			for c := 0; c < n; c++ {
				if c == a || c == b {
					continue
				}
				C := adhocLabels[c]
				fam = append(fam, "CAST MORPH category [ "+A+" "+B+" "+C+" ]")
				if A != "name" && B != "name" && C != "name" {
					fam = append(fam,
						"CAST MORPH category [ "+A+" [ "+B+" ] "+C+" ]",
						"CAST MORPH category [ "+A+" [ "+B+" "+C+" ] ]")
				}
				for d := 0; d < n; d++ {
					if d == a || d == b || d == c {
						continue
					}
					fam = append(fam, "CAST MORPH category [ "+A+" "+B+" "+C+" "+adhocLabels[d]+" ]")
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(fam), func(i, j int) { fam[i], fam[j] = fam[j], fam[i] })
	return fam
}

// workload is a generated request sequence: setup inputs plus an
// endless series of rounds, each the same mix of operations.
type workload struct {
	name      string
	cold      bool // restart on a small pool after setup
	pool      int  // buffer pool pages of the measured daemon
	resident  *lifecycle
	docs      []*lifecycle // side or ingest documents, cycled
	adhoc     []string
	nextAdhoc int
}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, pool: hotPoolPages, adhoc: adhocFamily(seed)}
	var (
		factor float64
		n      int
		edits  func(*rand.Rand, int64) []edit
	)
	switch name {
	case "query-hot", "query-cold":
		factor, n, edits = sideFactor, sideDocs, sideEdits
		if name == "query-cold" {
			w.cold, w.pool = true, coldPoolPages
		}
	case "ingest":
		factor, n, edits = ingestFactor, ingestDocs, ingestEdits
	default:
		return nil, fmt.Errorf("unknown workload %q (query-hot, query-cold, ingest)", name)
	}
	var err error
	if w.resident, err = newLifecycle(residentFactor, residentSeed, nil); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		lc, err := newLifecycle(factor, seed*1000+int64(i)+1, edits)
		if err != nil {
			return nil, err
		}
		w.docs = append(w.docs, lc)
	}
	return w, nil
}

const residentName = "resident"

// read builds one read request of class c against doc in state want.
func (w *workload) read(c class, doc string, want *expect) op {
	o := op{class: c, doc: doc, want: want}
	switch c {
	case cMorph:
		o.guard = morphGuard
	case cJoinStream:
		o.guard = joinStreamGuard
	case cStream:
		o.guard = streamGuard
	case cXQuery:
		o.guard, o.query = xqueryGuard, xqueryText(doc)
	case cAdhoc:
		o.guard = w.adhoc[w.nextAdhoc%len(w.adhoc)]
		w.nextAdhoc++
	}
	return o
}

func (w *workload) writes(lc *lifecycle, doc string) (shred op, patches []op, drop op) {
	shred = op{class: cShred, doc: doc, xml: lc.xml, wantNodes: lc.nodes, inBytes: len(lc.xml)}
	for i, ed := range lc.edits {
		patches = append(patches, op{class: cPatch, doc: doc, ed: ed, wantPatch: lc.results[i],
			inBytes: lc.results[i].insertedBytes})
	}
	return shred, patches, op{class: cDrop, doc: doc}
}

// queryReads is the read pattern between two writes of a query round:
// four each of morph, joinstream, stream and xquery, three ad hoc.
var queryReads = []class{
	cMorph, cJoinStream, cStream, cXQuery, cAdhoc,
	cMorph, cJoinStream, cStream, cXQuery,
	cMorph, cJoinStream, cStream, cXQuery, cAdhoc,
	cMorph, cJoinStream, cStream, cXQuery, cAdhoc,
}

// round returns the operations of round r.
//
// query-hot and query-cold: six segments, each one write followed by 19
// reads of the resident document (95% reads). The writes are one side
// document's lifecycle: shred, four patches, drop.
//
// ingest: one document lifecycle: shred, one read of each class, eight
// patches, one read of each class, drop.
func (w *workload) round(r int) []op {
	lc := w.docs[r%len(w.docs)]
	doc := fmt.Sprintf("doc-%d", r)
	shred, patches, drop := w.writes(lc, doc)
	var ops []op
	if w.name == "ingest" {
		ops = append(ops, shred)
		for c := cMorph; c <= cAdhoc; c++ {
			ops = append(ops, w.read(c, doc, &lc.before))
		}
		ops = append(ops, patches...)
		for c := cMorph; c <= cAdhoc; c++ {
			ops = append(ops, w.read(c, doc, &lc.after))
		}
		return append(ops, drop)
	}
	for _, wr := range append(append([]op{shred}, patches...), drop) {
		ops = append(ops, wr)
		for _, c := range queryReads {
			ops = append(ops, w.read(c, residentName, &w.resident.before))
		}
	}
	return ops
}

// describe summarizes the generated inputs for the report.
func (w *workload) describe() string {
	kind := "side"
	if w.name == "ingest" {
		kind = "ingest"
	}
	s := fmt.Sprintf("resident XMark factor %g: %d nodes, %d XML bytes; measured pool %d pages; %s documents (nodes/XML bytes):",
		residentFactor, w.resident.nodes, len(w.resident.xml), w.pool, kind)
	for _, lc := range w.docs {
		s += fmt.Sprintf(" %d/%d", lc.nodes, len(lc.xml))
	}
	return s
}
