package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xmorph/internal/engine"
	"xmorph/internal/gen/xmark"
)

// handDoc is a small XMark-shaped document whose expected answers are
// written out by hand below.
const handDoc = `<site>
<regions><africa><item id="i0"><location>Here</location><quantity>1</quantity></item></africa>
<asia><item id="i1"><location>There</location><quantity>2</quantity></item><item id="i2"><location>Else</location><quantity>3</quantity></item></asia></regions>
<categories><category id="c0"><name>one</name></category><category id="c1"><name>two</name></category></categories>
<people>
<person id="p0"><name>Ada Baker</name><emailaddress>mailto:p0@x</emailaddress></person>
<person id="p1"><name>Liam Novak</name><emailaddress>mailto:p1@x</emailaddress><phone>1</phone></person>
</people>
<open_auctions>
<open_auction id="o0"><initial>10.00</initial><bidder><increase>1.00</increase></bidder><bidder><increase>2.00</increase></bidder></open_auction>
<open_auction id="o1"><initial>20.50</initial><bidder><increase>3.00</increase></bidder></open_auction>
</open_auctions>
</site>`

func TestExpectOfHandDoc(t *testing.T) {
	root, err := parseTree([]byte(handDoc))
	if err != nil {
		t.Fatal(err)
	}
	// 37 elements plus 9 attributes.
	if got := root.count(); got != 46 {
		t.Errorf("count = %d, want 46", got)
	}
	e := expectOf(root)
	if len(e.persons) != 2 || e.persons[1] != (person{"Liam Novak", "mailto:p1@x"}) {
		t.Errorf("persons = %v", e.persons)
	}
	if len(e.auctions) != 2 || e.auctions[0].initial != "10.00" ||
		strings.Join(e.auctions[0].increases, ",") != "1.00,2.00" || e.auctions[1].initial != "20.50" {
		t.Errorf("auctions = %v", e.auctions)
	}
	if e.categories != 2 {
		t.Errorf("categories = %d, want 2", e.categories)
	}

	checks := []struct {
		name      string
		err       error
		wantError bool
	}{
		{"morph", e.checkMorph([]byte(`<bidder><open_auction><initial>10.00</initial></open_auction></bidder>
<bidder><open_auction><initial>10.00</initial></open_auction></bidder>
<bidder><open_auction><initial>20.50</initial></open_auction></bidder>`)), false},
		{"morph wrong auction", e.checkMorph([]byte(`<bidder><open_auction><initial>10.00</initial></open_auction></bidder>
<bidder><open_auction><initial>20.50</initial></open_auction></bidder>
<bidder><open_auction><initial>20.50</initial></open_auction></bidder>`)), true},
		{"joinstream", e.checkJoinStream(`<initial>10.00<increase>1.00</increase><increase>2.00</increase></initial>
<initial>20.50<increase>3.00</increase></initial>`), false},
		{"joinstream missing increase", e.checkJoinStream(`<initial>10.00<increase>1.00</increase></initial>
<initial>20.50<increase>3.00</increase></initial>`), true},
		{"stream", e.checkStream([]byte(`<person><name>Ada Baker</name><emailaddress>mailto:p0@x</emailaddress></person>
<person><name>Liam Novak</name><emailaddress>mailto:p1@x</emailaddress></person>`)), false},
		{"stream swapped", e.checkStream([]byte(`<person><name>Liam Novak</name><emailaddress>mailto:p1@x</emailaddress></person>
<person><name>Ada Baker</name><emailaddress>mailto:p0@x</emailaddress></person>`)), true},
		{"xquery", e.checkXQuery("Ada Baker Liam Novak"), false},
		{"xquery short", e.checkXQuery("Ada Baker"), true},
		{"adhoc", e.checkAdhoc(`<category><name>one</name></category><category/>`), false},
		{"adhoc extra", e.checkAdhoc(`<category/><category/><category/>`), true},
	}
	for _, c := range checks {
		if (c.err != nil) != c.wantError {
			t.Errorf("%s: err = %v, want error %v", c.name, c.err, c.wantError)
		}
	}
}

func TestEditsOnHandDoc(t *testing.T) {
	root, err := parseTree([]byte(handDoc))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		ed         edit
		ins, del   int
		placements int // instances the fragment lands on
	}{
		{edit{path: "site.regions.asia.item.location", fragment: "<location>X</location>"}, 2, 2, 2},
		{edit{path: "site.regions.asia.item.location", fragment: "<place>P</place>"}, 2, 2, 2},
		{edit{path: "site.open_auctions.open_auction.initial", fragment: "<initial>5.00</initial>"}, 2, 2, 2},
		{edit{insert: true, path: "site.regions.asia", fragment: "<note>n</note>"}, 1, 0, 1},
		{edit{insert: true, path: "site.people", fragment: `<person id="b"><name>B P</name><emailaddress>mailto:b</emailaddress></person>`}, 4, 0, 1},
	}
	for _, s := range steps {
		r, err := s.ed.apply(root)
		if err != nil {
			t.Fatal(err)
		}
		if r.inserted != s.ins || r.deleted != s.del {
			t.Errorf("%s: inserted %d deleted %d, want %d %d", s.ed.script(), r.inserted, r.deleted, s.ins, s.del)
		}
		if r.insertedBytes != s.placements*len(s.ed.fragment) {
			t.Errorf("%s: inserted bytes %d", s.ed.script(), r.insertedBytes)
		}
	}
	e := expectOf(root)
	if len(e.persons) != 3 || e.persons[2] != (person{"B P", "mailto:b"}) {
		t.Errorf("persons after insert = %v", e.persons)
	}
	if e.auctions[0].initial != "5.00" || e.auctions[1].initial != "5.00" {
		t.Errorf("initials after replace = %v", e.auctions)
	}
	if got := len(root.at("site.regions.asia.item")[0].kids); got != 2 {
		t.Errorf("asia item has %d children after location replace, want 2", got)
	}
	if item := root.at("site.regions.asia.item")[1]; item.kids[0].name != "place" || item.kids[0].text != "P" {
		t.Errorf("replace did not put the place where the location was")
	}
}

// TestWorkloadAnswersInProcess runs one round of every workload through
// the engine in process and checks every answer, so a guard, edit or
// reference that disagrees with the service fails here rather than in a
// timed run.
func TestWorkloadAnswersInProcess(t *testing.T) {
	for _, name := range []string{"query-hot", "ingest"} {
		w, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.OpenMemory()
		ctx := context.Background()
		if _, err := eng.Shred(ctx, residentName, bytes.NewReader(w.resident.xml), nil); err != nil {
			t.Fatal(err)
		}
		srv := engine.NewServer(eng, engine.ServerConfig{TraceSample: -1}).Handler()
		s := &serverPhase{untraced: srv}
		for _, o := range w.round(0) {
			method, path, ctype, body, okStatus := request(o)
			status, resp, _ := s.do(method, path, ctype, body)
			if status != okStatus {
				t.Fatalf("%s %s: status %d: %s", name, o.class, status, resp)
			}
			if err := checkResponse(o, resp); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		eng.Close()
	}
}

// TestAdhocFamilyAnswersOneCategoryEach compiles every ad hoc guard on
// a small XMark document and checks each answers one element per
// source category.
func TestAdhocFamilyAnswersOneCategoryEach(t *testing.T) {
	var buf bytes.Buffer
	if err := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 3}).WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	root, err := parseTree(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := expectOf(root)
	eng := engine.OpenMemory(engine.WithGuardCache(0))
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Shred(ctx, "d", bytes.NewReader(buf.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, g := range adhocFamily(1) {
		var out bytes.Buffer
		if _, err := eng.Run(ctx, "d", g, engine.RunOpts{StreamTo: &out}); err != nil {
			t.Errorf("%s: %v", g, err)
			bad++
		} else if err := want.checkAdhoc(out.String()); err != nil {
			t.Errorf("%s: %v", g, err)
			bad++
		}
		if bad > 20 {
			t.Fatal("too many failures")
		}
	}
}
