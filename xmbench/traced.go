package main

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"xmorph/internal/core"
	"xmorph/internal/engine"
	"xmorph/internal/kvstore"
	"xmorph/internal/logical"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/stream"
	"xmorph/internal/update"
)

// layerShare is the part of a traced run spent replaying the sequence
// through the layers' own functions; the rest drives the in-process
// HTTP handler for the engine and observability metrics.
const layerShare = 0.6

// runTraced replays the workload's request sequence in-process on a
// store set up exactly as the daemon's, in two phases:
//
//  1. layers: each request runs as the service runs it, but through the
//     layers' public functions called from this file (store views and
//     shape loads, core.Check, render, stream, logical, update, shred,
//     drop), each call timed here, with kvstore.Stats and
//     runtime.MemStats read around the calls;
//  2. server: the same sequence through engine.NewServer's handler over
//     an engine on the same store, with the facade calls timed through a
//     Backend wrapper and the span tree the engine records fetched back
//     from the trace ring; requests alternate between a server that
//     traces every request and one that traces none.
func runTraced(w *workload, work string, length time.Duration) (*result, error) {
	path := filepath.Join(work, "traced.db")
	st, err := store.Open(path, store.WithCachePages(hotPoolPages), store.WithDurability(true))
	if err != nil {
		return nil, err
	}
	info, err := st.Shred(residentName, bytes.NewReader(w.resident.xml), nil)
	if err == nil && info.Nodes != w.resident.nodes {
		err = fmt.Errorf("shred resident: %d nodes, want %d", info.Nodes, w.resident.nodes)
	}
	if err == nil && w.cold {
		if err = st.Close(); err == nil {
			st, err = store.Open(path, store.WithCachePages(w.pool), store.WithDurability(true))
		}
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	defer st.Close()

	l := &layers{w: w, st: st, samples: map[string][]float64{}, cache: map[cacheKey]compiled{}}
	for _, c := range []class{cMorph, cJoinStream, cStream, cXQuery} {
		if err := l.do(w.read(c, residentName, &w.resident.before)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	l.samples = map[string][]float64{}
	layerTime := time.Duration(float64(length) * layerShare)
	next := l.run(layerTime)
	s := newServerPhase(w, st)
	if err := s.run(next, length-layerTime); err != nil {
		return nil, err
	}

	afterShred, afterReopen, err := probePoolTrim(filepath.Join(work, "probe.db"), w.docs[0])
	if err != nil {
		return nil, err
	}

	hostContext(l.steal)
	l.t.report()
	attempted, failed := l.t.total()
	a2, f2 := s.t.total()
	m := l.metrics()
	for k, v := range s.metrics() {
		m[k] = v
	}
	m["kvstore.probe_reads_after_shred"] = metric{float64(afterShred), "count"}
	m["kvstore.probe_reads_after_reopen"] = metric{float64(afterReopen), "count"}
	return &result{Correct: l.t.mismatches+s.t.mismatches == 0, Attempted: attempted + a2,
		Failed: failed + f2, Metrics: m}, nil
}

type cacheKey struct {
	ver   uint32
	hash  uint64
	guard string
}

type compiled struct {
	checked *core.Checked
	verdict plan.Decision
}

// layers is phase 1 of the traced run.
type layers struct {
	w       *workload
	st      *store.Store
	cache   map[cacheKey]compiled // hot guards, keyed like the engine's guard cache
	samples map[string][]float64  // per-layer call times and counts
	t       tally

	ops, writes            int
	shredBytes, shredNodes float64
	kv                     kvstore.Stats // summed over every op
	shredKV                kvstore.Stats // summed over shreds
	fsyncSeconds           float64
	mallocsShred, numGC    uint64
	gcCPU, totalCPU        float64
	steal                  int64
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layers) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	l.add(name, ms(time.Since(start)))
	return err
}

// run replays whole rounds until length has passed and returns the
// first round it did not run, where the server phase continues.
func (l *layers) run(length time.Duration) int {
	cpu0 := cpuSeconds()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steal0 := stealJiffies()
	start := time.Now()
	r := 0
	for ; r == 0 || time.Since(start) < length; r++ {
		for _, o := range l.w.round(r) {
			l.t.attempted[o.class]++
			kv0, f0 := l.st.Stats(), fsyncSeconds()
			t0 := time.Now()
			err := l.do(o)
			var wrong wrongAnswer
			switch {
			case errors.As(err, &wrong):
				l.t.mismatch(err)
			case err != nil:
				l.t.fail(o.class, err)
			}
			if err == nil || errors.As(err, &wrong) {
				l.t.durs[o.class] = append(l.t.durs[o.class], ms(time.Since(t0)))
			}
			l.ops++
			l.kv = addStats(l.kv, kv0, l.st.Stats())
			if !o.class.isRead() {
				l.writes++
				l.fsyncSeconds += fsyncSeconds() - f0
			}
		}
	}
	l.steal = stealJiffies() - steal0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	l.numGC = uint64(ms1.NumGC - ms0.NumGC)
	cpu1 := cpuSeconds()
	l.gcCPU, l.totalCPU = cpu1[0]-cpu0[0], cpu1[1]-cpu0[1]
	return r
}

// wrongAnswer marks an operation that succeeded but answered wrongly.
type wrongAnswer struct{ error }

func wrong(err error) error {
	if err == nil {
		return nil
	}
	return wrongAnswer{err}
}

// compile is the engine's compile phase: a guard-cache lookup keyed by
// (shred version, shape hash, guard), and on a miss the shape load and
// core.Check. Ad hoc guards are never cached: they are never sent twice.
func (l *layers) compile(v *store.View, o op) (compiled, error) {
	ver, ok, err := v.DocVersion(o.doc)
	if err != nil || !ok {
		return compiled{}, fmt.Errorf("doc %s: found=%v %v", o.doc, ok, err)
	}
	hash, _, err := v.ShapeHash(o.doc)
	if err != nil {
		return compiled{}, err
	}
	key := cacheKey{ver, hash, o.guard}
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	var c compiled
	var sh *shape.Shape
	if err := l.time("store.load_shape_ms", func() (err error) { sh, err = v.Shape(o.doc); return }); err != nil {
		return c, err
	}
	if err := l.time("core.check_ms", func() (err error) { c.checked, err = core.Check(o.guard, sh, nil); return }); err != nil {
		return c, err
	}
	c.verdict = plan.Classify(c.checked.Plan.ComposedTarget())
	if o.class != cAdhoc {
		l.cache[key] = c
	}
	return c, nil
}

// do runs one request through the layers and checks its answer.
func (l *layers) do(o op) error {
	switch o.class {
	case cShred:
		return l.shred(o)
	case cPatch:
		return l.patch(o)
	case cDrop:
		return l.drop(o)
	}
	v := l.st.View()
	defer v.Close()
	c, err := l.compile(v, o)
	if err != nil {
		return err
	}
	var doc *store.Doc
	if err := l.time("store.load_doc_ms", func() (err error) { doc, err = v.Doc(o.doc); return }); err != nil {
		return err
	}
	var buf bytes.Buffer
	switch o.class {
	case cMorph:
		var out *core.Result
		if err := l.time("render.render_ms", func() (err error) { out, err = c.checked.RenderOn(doc, nil); return }); err != nil {
			return err
		}
		l.add("render.output_nodes", float64(out.Output.Size()))
		if err := l.time("xmltree.write_xml_ms", func() error { return out.Output.WriteXML(&buf, false) }); err != nil {
			return err
		}
		return wrong(o.want.checkMorph(buf.Bytes()))
	case cJoinStream:
		if err := l.time("render.stream_ms", func() error { _, err := c.checked.Stream(doc, &buf, nil); return err }); err != nil {
			return err
		}
		return wrong(o.want.checkJoinStream(buf.String()))
	case cStream:
		tw := &ttfbWriter{w: &buf, start: time.Now()}
		err := l.time("stream.execute_ms", func() error {
			_, err := stream.Execute(stream.FromDoc(doc), c.checked.Plan.ComposedTarget(), tw, nil)
			return err
		})
		if err != nil {
			return err
		}
		l.add("stream.ttfb_ms", ms(tw.first))
		return wrong(o.want.checkStream(buf.Bytes()))
	case cXQuery:
		var res *logical.Result
		if err := l.time("logical.evaluate_ms", func() (err error) {
			res, err = logical.EvaluateChecked(o.query, c.checked, o.doc, doc, nil)
			return
		}); err != nil {
			return err
		}
		l.add("logical.rendered_nodes", float64(res.RenderedNodes))
		return wrong(o.want.checkXQuery(res.Answer))
	default: // cAdhoc: a JSON answer, streamed the way the engine streams it
		var err error
		if c.verdict.Streamable {
			_, err = stream.Execute(stream.FromDoc(doc), c.checked.Plan.ComposedTarget(), &buf, nil)
		} else {
			_, err = c.checked.Stream(doc, &buf, nil)
		}
		if err != nil {
			return err
		}
		return wrong(o.want.checkAdhoc(buf.String()))
	}
}

// ttfbWriter records when the first byte is written.
type ttfbWriter struct {
	w     io.Writer
	start time.Time
	first time.Duration
}

func (t *ttfbWriter) Write(p []byte) (int, error) {
	if t.first == 0 && len(p) > 0 {
		t.first = time.Since(t.start)
	}
	return t.w.Write(p)
}

func (l *layers) shred(o op) error {
	// The floor for shredding: encoding/xml alone over the same bytes.
	start := time.Now()
	dec := xml.NewDecoder(bytes.NewReader(o.xml))
	for {
		if _, err := dec.Token(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	mb := float64(len(o.xml)) / 1e6
	l.add("xml.tokenize_ms_per_mb", ms(time.Since(start))/mb)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	kv0 := l.st.Stats()
	start = time.Now()
	info, err := l.st.Shred(o.doc, bytes.NewReader(o.xml), nil)
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	l.add("store.shred_ms_per_mb", ms(d)/mb)
	l.mallocsShred += m1.Mallocs - m0.Mallocs
	l.shredKV = addStats(l.shredKV, kv0, l.st.Stats())
	l.shredBytes += float64(len(o.xml))
	l.shredNodes += float64(info.Nodes)
	if info.Nodes != o.wantNodes {
		return wrong(fmt.Errorf("shred %s: %d nodes, want %d", o.doc, info.Nodes, o.wantNodes))
	}
	return nil
}

func (l *layers) patch(o op) error {
	start := time.Now()
	ops, err := update.Parse(o.ed.script())
	l.add("update.parse_us", ms(time.Since(start))*1e3)
	if err != nil {
		return err
	}
	kv0 := l.st.Stats()
	var info *store.UpdateInfo
	if err := l.time("store.update_ms", func() (err error) { info, err = l.st.Update(o.doc, ops, nil); return }); err != nil {
		return err
	}
	l.add("store.update_pages_written", float64(l.st.Stats().BlocksWritten-kv0.BlocksWritten))
	return wrong(checkPatch(o, info.NodesInserted, info.NodesDeleted, info.Delta.Kind == update.Unchanged))
}

func (l *layers) drop(o op) error {
	kv0 := l.st.Stats()
	if err := l.time("store.drop_ms", func() error { return l.st.Drop(o.doc) }); err != nil {
		return err
	}
	kv1 := l.st.Stats()
	l.add("kvstore.epochs_per_drop", float64(kv1.Epoch-kv0.Epoch))
	l.add("kvstore.deletes_per_drop", float64(kv1.Deletes-kv0.Deletes))
	if _, ok, err := l.st.DocVersion(o.doc); err != nil || ok {
		return wrong(fmt.Errorf("drop %s: still found=%v %v", o.doc, ok, err))
	}
	return nil
}

// probePoolTrim shreds a document into a durable store whose pool is
// smaller than the document, scans every node once, reopens the store
// and scans again, and returns the pages each scan read from the file.
// A pool trimmed back to its capacity reads about the same pages both
// times; one that keeps every page the shred dirtied reads none before
// the reopen.
func probePoolTrim(path string, lc *lifecycle) (afterShred, afterReopen int64, err error) {
	open := func() (*store.Store, error) {
		return store.Open(path, store.WithCachePages(coldPoolPages), store.WithDurability(true))
	}
	scan := func(st *store.Store) (int64, error) {
		before := st.Stats().BlocksRead
		doc, err := st.Doc("probe")
		if err != nil {
			return 0, err
		}
		for _, t := range doc.Types() {
			ts := doc.ScanType(t)
			for ts.Next() {
			}
			err := ts.Err()
			ts.Close()
			if err != nil {
				return 0, err
			}
		}
		return st.Stats().BlocksRead - before, nil
	}
	st, err := open()
	if err != nil {
		return 0, 0, err
	}
	if _, err = st.Shred("probe", bytes.NewReader(lc.xml), nil); err == nil {
		afterShred, err = scan(st)
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	if st, err = open(); err != nil {
		return 0, 0, err
	}
	defer st.Close()
	afterReopen, err = scan(st)
	return afterShred, afterReopen, err
}

// addStats adds the counter deltas b→a to sum.
func addStats(sum, b, a kvstore.Stats) kvstore.Stats {
	sum.BlocksRead += a.BlocksRead - b.BlocksRead
	sum.BlocksWritten += a.BlocksWritten - b.BlocksWritten
	sum.IONanos += a.IONanos - b.IONanos
	sum.CacheHits += a.CacheHits - b.CacheHits
	sum.CacheMisses += a.CacheMisses - b.CacheMisses
	sum.Evictions += a.Evictions - b.Evictions
	sum.ReadAheads += a.ReadAheads - b.ReadAheads
	sum.WALBytes += a.WALBytes - b.WALBytes
	sum.WALFsyncs += a.WALFsyncs - b.WALFsyncs
	sum.Puts += a.Puts - b.Puts
	return sum
}

// fsyncSeconds is the time the kvstore has spent in WAL and data-file
// fsyncs, from its latency histograms.
func fsyncSeconds() float64 {
	return obs.Default.Histogram("kvstore_wal_fsync_seconds", obs.WaitBuckets).Snapshot().Sum +
		obs.Default.Histogram("kvstore_fsync_seconds", obs.WaitBuckets).Snapshot().Sum
}

// cpuSeconds returns the process's GC and total CPU seconds.
func cpuSeconds() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (l *layers) metrics() map[string]metric {
	m := map[string]metric{}
	for name, unit := range map[string]string{
		"core.check_ms": "ms", "store.load_shape_ms": "ms", "store.load_doc_ms": "ms",
		"render.render_ms": "ms", "render.output_nodes": "count", "xmltree.write_xml_ms": "ms",
		"render.stream_ms": "ms", "stream.execute_ms": "ms", "stream.ttfb_ms": "ms",
		"logical.evaluate_ms": "ms", "logical.rendered_nodes": "count",
		"xml.tokenize_ms_per_mb": "ms/MB", "store.shred_ms_per_mb": "ms/MB",
		"update.parse_us": "us", "store.update_ms": "ms", "store.update_pages_written": "count",
		"store.drop_ms": "ms", "kvstore.epochs_per_drop": "count", "kvstore.deletes_per_drop": "count",
	} {
		m[name] = metric{median(l.samples[name]), unit}
	}
	ops, kv, sk := float64(l.ops), l.kv, l.shredKV
	mb := l.shredBytes / 1e6
	m["kvstore.pages_read_per_op"] = metric{float64(kv.BlocksRead) / ops, "count"}
	m["kvstore.pool_hit_ratio"] = metric{ratio(kv.CacheHits, kv.CacheHits+kv.CacheMisses), "ratio"}
	m["kvstore.evictions_per_op"] = metric{float64(kv.Evictions) / ops, "count"}
	m["kvstore.readaheads_per_op"] = metric{float64(kv.ReadAheads) / ops, "count"}
	m["kvstore.io_ms_per_op"] = metric{float64(kv.IONanos) / 1e6 / ops, "ms"}
	m["store.shred_allocs_per_node"] = metric{float64(l.mallocsShred) / l.shredNodes, "count"}
	m["kvstore.puts_per_node"] = metric{float64(sk.Puts) / l.shredNodes, "count"}
	m["kvstore.pages_written_per_mb"] = metric{float64(sk.BlocksWritten) / mb, "pages/MB"}
	m["kvstore.wal_bytes_per_mb"] = metric{float64(sk.WALBytes) / mb, "B/MB"}
	m["kvstore.fsyncs_per_write"] = metric{float64(kv.WALFsyncs) / float64(l.writes), "count"}
	m["kvstore.fsync_ms"] = metric{l.fsyncSeconds * 1e3 / float64(l.writes), "ms"}
	m["runtime.gc_cycles_per_op"] = metric{float64(l.numGC) / ops, "count"}
	m["runtime.gc_cpu_fraction"] = metric{l.gcCPU / l.totalCPU, "ratio"}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverPhase is phase 2 of the traced run: the engine's HTTP handler in
// process, over an engine on the same store.
type serverPhase struct {
	w        *workload
	eng      *engine.Engine
	facade   *facadeTimer
	traced   http.Handler
	untraced http.Handler
	t        tally

	overhead          []float64              // traced handler time outside the facade, ms
	covered, facadeNS int64                  // span-covered vs facade time over traced requests
	perClass          [nClasses][2][]float64 // handler ms, [traced, untraced]
	hits, misses      uint64
}

func newServerPhase(w *workload, st *store.Store) *serverPhase {
	eng := engine.New(st)
	f := &facadeTimer{Backend: eng}
	return &serverPhase{
		w: w, eng: eng, facade: f,
		traced:   engine.NewServer(f, engine.ServerConfig{TraceSample: 1}).Handler(),
		untraced: engine.NewServer(f, engine.ServerConfig{TraceSample: -1}).Handler(),
	}
}

func (s *serverPhase) serve(h http.Handler, o op, id string) (status int, body []byte, dur time.Duration) {
	method, path, ctype, reqBody, _ := request(o)
	req := httptest.NewRequest(method, path, bytes.NewReader(reqBody))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// do serves an untimed, untraced request, for the checks after a drop.
func (s *serverPhase) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	s.untraced.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// run continues the sequence at round first for length. Each request
// goes to the tracing or the non-tracing server by a seeded coin flip:
// alternating by position would send whole kinds of request (the reads
// before the patches, the shape-keeping patches) to one side only.
func (s *serverPhase) run(first int, length time.Duration) error {
	for _, c := range []class{cMorph, cJoinStream, cStream, cXQuery} {
		o := s.w.read(c, residentName, &s.w.resident.before)
		if status, body, _ := s.serve(s.traced, o, ""); status != http.StatusOK {
			return fmt.Errorf("server warm-up %s: status %d: %.200s", c, status, body)
		}
	}
	h0, m0 := s.eng.CacheStats()
	coin := rand.New(rand.NewSource(int64(first)))
	start := time.Now()
	for r := first; r == first || time.Since(start) < length; r++ {
		for i, o := range s.w.round(r) {
			s.t.attempted[o.class]++
			tracedReq := coin.Intn(2) == 0
			h, id := s.untraced, ""
			if tracedReq {
				h, id = s.traced, "xmbench-"+strconv.Itoa(r)+"-"+strconv.Itoa(i)
			}
			s.facade.elapsed = 0
			_, _, _, _, okStatus := request(o)
			status, body, dur := s.serve(h, o, id)
			if status != okStatus {
				s.t.fail(o.class, fmt.Errorf("%s %s: status %d: %.200s", o.class, o.doc, status, body))
				continue
			}
			if err := checkResponse(o, body); err != nil {
				s.t.mismatch(err)
			}
			if o.class == cDrop {
				if err := checkDropped(s.do, o.doc); err != nil {
					s.t.mismatch(err)
				}
			}
			k := 1
			if tracedReq {
				k = 0
				s.overhead = append(s.overhead, ms(dur-s.facade.elapsed))
				s.facadeNS += int64(s.facade.elapsed)
				cov, err := s.spanCoverage(id)
				if err != nil {
					return err
				}
				s.covered += cov
			}
			s.perClass[o.class][k] = append(s.perClass[o.class][k], ms(dur))
		}
	}
	h1, m1 := s.eng.CacheStats()
	s.hits, s.misses = h1-h0, m1-m0
	return nil
}

// spanCoverage fetches the request's span tree from the server's trace
// ring and sums the durations of the root's children: the part of the
// facade call the engine's existing spans cover.
func (s *serverPhase) spanCoverage(id string) (int64, error) {
	req := httptest.NewRequest("GET", "/debug/traces/"+id, nil)
	rec := httptest.NewRecorder()
	s.traced.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("trace %s: status %d", id, rec.Code)
	}
	var tr struct {
		Trace struct {
			Spans []struct {
				Dur int64 `json:"dur_ns"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		return 0, err
	}
	var sum int64
	for _, sp := range tr.Trace.Spans {
		sum += sp.Dur
	}
	return sum, nil
}

func (s *serverPhase) metrics() map[string]metric {
	// Tracing overhead over the whole mix: each class's median handler
	// time, traced against untraced, weighted by the class's count.
	var tr, un float64
	for c := range s.perClass {
		n := float64(len(s.perClass[c][0]) + len(s.perClass[c][1]))
		tr += n * median(s.perClass[c][0])
		un += n * median(s.perClass[c][1])
	}
	return map[string]metric{
		"engine.server_overhead_ms":    {median(s.overhead), "ms"},
		"engine.guard_cache_hit_ratio": {ratio(int64(s.hits), int64(s.hits+s.misses)), "ratio"},
		"obs.untraced_share":           {1 - float64(s.covered)/float64(s.facadeNS), "ratio"},
		"obs.trace_overhead_pct":       {(tr/un - 1) * 100, "%"},
	}
}

// facadeTimer wraps the engine and sums the time spent inside its verbs,
// so handler time outside the facade can be told apart.
type facadeTimer struct {
	engine.Backend
	elapsed time.Duration
}

func (f *facadeTimer) timed(start time.Time) { f.elapsed += time.Since(start) }

func (f *facadeTimer) Shred(ctx context.Context, name string, r io.Reader, sp *obs.Span) (*engine.ShredInfo, error) {
	defer f.timed(time.Now())
	return f.Backend.Shred(ctx, name, r, sp)
}

func (f *facadeTimer) Docs(ctx context.Context, sp *obs.Span) ([]string, error) {
	defer f.timed(time.Now())
	return f.Backend.Docs(ctx, sp)
}

func (f *facadeTimer) Drop(ctx context.Context, name string, sp *obs.Span) error {
	defer f.timed(time.Now())
	return f.Backend.Drop(ctx, name, sp)
}

func (f *facadeTimer) Update(ctx context.Context, name, script string, sp *obs.Span) (*engine.UpdateInfo, error) {
	defer f.timed(time.Now())
	return f.Backend.Update(ctx, name, script, sp)
}

func (f *facadeTimer) Check(ctx context.Context, name, guardSrc string, sp *obs.Span) (*engine.Checked, error) {
	defer f.timed(time.Now())
	return f.Backend.Check(ctx, name, guardSrc, sp)
}

func (f *facadeTimer) Run(ctx context.Context, name, guardSrc string, opts engine.RunOpts) (*engine.RunResult, error) {
	defer f.timed(time.Now())
	return f.Backend.Run(ctx, name, guardSrc, opts)
}

func (f *facadeTimer) Query(ctx context.Context, name, guardSrc, query string, opts engine.QueryOpts) (*engine.QueryResult, error) {
	defer f.timed(time.Now())
	return f.Backend.Query(ctx, name, guardSrc, query, opts)
}
