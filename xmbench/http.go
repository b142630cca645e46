package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"xmorph/internal/kvstore"
)

const (
	// setups is how many times a run sets the daemon up; setup_s is
	// their median, so one slow start-up does not move it.
	setups = 5
	// warmUp is how long a run sends whole rounds before it measures.
	warmUp = 5 * time.Second
)

// runHTTP is the end-to-end run: set up, warm up, run whole rounds for
// the measured length, and report.
func runHTTP(w *workload, bin, work string, length time.Duration) (*result, error) {
	var setupS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		store := filepath.Join(work, fmt.Sprintf("store-%d.db", i))
		start := time.Now()
		var err error
		if d, err = setup(w, bin, store); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	res, err := measure(w, d, length)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	return res, nil
}

// setup starts a daemon on a fresh store and shreds the resident
// document; for query-cold it then restarts the daemon on the loaded
// store with the small pool. Generating the document is not part of it.
func setup(w *workload, bin, store string) (*daemon, error) {
	d, err := startDaemon(bin, store, hotPoolPages)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.close()
	o := op{class: cShred, doc: residentName, xml: w.resident.xml, wantNodes: w.resident.nodes}
	method, path, ctype, body, okStatus := request(o)
	status, resp, _, err := c.do(method, path, ctype, body)
	if err == nil && status != okStatus {
		err = fmt.Errorf("shred resident: status %d: %s", status, resp)
	}
	if err == nil {
		err = checkResponse(o, resp)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	if !w.cold {
		return d, nil
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return startDaemon(bin, store, w.pool)
}

func measure(w *workload, d *daemon, length time.Duration) (*result, error) {
	c := newClient(d.base)
	defer c.close()
	var t tally
	// send times one request and then checks its answer; ok is false for
	// a failed operation.
	send := func(o op) (dur time.Duration, ok bool) {
		method, path, ctype, body, okStatus := request(o)
		status, resp, dur, err := c.do(method, path, ctype, body)
		if err == nil && status != okStatus {
			err = fmt.Errorf("%s %s: status %d: %.200s", method, path, status, resp)
		}
		if err != nil {
			t.fail(o.class, err)
			return dur, false
		}
		t.durs[o.class] = append(t.durs[o.class], ms(dur))
		if err := checkResponse(o, resp); err != nil {
			t.mismatch(err)
		}
		if o.class == cDrop {
			if err := checkDropped(c.untimed, o.doc); err != nil {
				t.mismatch(err)
			}
		}
		return dur, true
	}

	// Warm-up: whole rounds for warmUp, so the hot guards are compiled,
	// their pages touched and the daemon's heap has grown to its steady
	// size before timing starts. These requests are checked but not
	// counted; the measured rounds continue the same sequence.
	r := 0
	for start := time.Now(); r == 0 || time.Since(start) < warmUp; r++ {
		for _, o := range w.round(r) {
			if _, ok := send(o); !ok {
				return nil, fmt.Errorf("warm-up %s failed: %v", o.class, t.firstFail)
			}
		}
	}
	t = tally{mismatches: t.mismatches}

	before, err := c.counters()
	if err != nil {
		return nil, err
	}
	steal0 := stealJiffies()
	var (
		unchecked          time.Duration // time spent checking answers, not serving
		xmlBytes, inserted int
		shredSeconds       float64
	)
	start := time.Now()
	for r0 := r; r == r0 || time.Since(start) < length; r++ {
		for _, o := range w.round(r) {
			t.attempted[o.class]++
			s := time.Now()
			dur, ok := send(o)
			unchecked += time.Since(s) - dur
			if ok {
				switch o.class {
				case cShred:
					xmlBytes += o.inBytes
					shredSeconds += dur.Seconds()
				case cPatch:
					inserted += o.inBytes
				}
			}
		}
	}
	busy := time.Since(start) - unchecked
	steal := stealJiffies() - steal0
	after, err := c.counters()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	hostContext(steal)
	t.report()
	attempted, failed := t.total()
	done := float64(attempted - failed)
	if done == 0 {
		return nil, errors.New("no operation succeeded")
	}
	m := map[string]metric{
		"ops_per_s":            {done / busy.Seconds(), "1/s"},
		"shred_mb_per_s":       {float64(xmlBytes) / 1e6 / shredSeconds, "MB/s"},
		"alloc_kb_per_op":      {(after.totalAlloc - before.totalAlloc) / 1024 / done, "KB"},
		"write_bytes_per_byte": {((after.blocksWritten-before.blocksWritten)*kvstore.PageSize + after.walBytes - before.walBytes) / float64(xmlBytes+inserted), "B/B"},
		"peak_rss_mb":          {rss, "MB"},
	}
	for _, cl := range []class{cMorph, cJoinStream, cStream, cXQuery, cAdhoc, cPatch, cDrop} {
		m[cl.String()+"_p50_ms"] = metric{median(t.durs[cl]), "ms"}
	}
	return &result{Correct: t.mismatches == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
