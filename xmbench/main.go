// Command xmbench is the xmorph latency benchmark. It starts the real
// xmorphd on a loopback port over a fresh crash-safe store, drives it
// from one closed-loop client over one keep-alive connection, checks
// every answer against values computed from the generated documents, and
// prints the end-to-end metrics. With -trace 1 it instead replays the
// same request sequence in-process and prints per-layer metrics.
//
//	xmbench -workload query-cold -seed 1 -seconds 40 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See README.md for the workloads and
// what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// buildRoot is where run.sh leaves the binaries and where runs keep
// their stores, inside the checkout.
const buildRoot = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "query-cold", "workload: query-cold, ingest, or query-hot (not in BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: generates every document, guard and edit")
	seconds := flag.Int("seconds", 40, "length of the measured loop")
	trace := flag.Int("trace", 0, "0: end-to-end run over HTTP; 1: traced in-process run with per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "xmbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, length time.Duration, traced bool) error {
	bin, err := filepath.Abs(filepath.Join(buildRoot, "bin", "xmorphd"))
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("xmorphd binary: %w (build it with run.sh)", err)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fmt.Println("inputs:", w.describe())

	var res *result
	if traced {
		res, err = runTraced(w, work, length)
	} else {
		res, err = runHTTP(w, bin, work, length)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tally collects per-class latencies and attempt/failure counts.
type tally struct {
	durs      [nClasses][]float64 // ms
	attempted [nClasses]int
	failed    [nClasses]int
	firstFail error
	// mismatches counts answers that came back but were wrong.
	mismatches int
}

func (t *tally) total() (attempted, failed int) {
	for c := range t.attempted {
		attempted += t.attempted[c]
		failed += t.failed[c]
	}
	return
}

// fail records an operation that did not succeed.
func (t *tally) fail(c class, err error) {
	t.failed[c]++
	if t.firstFail == nil {
		t.firstFail = err
		fmt.Fprintln(os.Stderr, "xmbench: failed:", err)
	}
}

// mismatch records a wrong answer; the run then reports correct=false.
func (t *tally) mismatch(err error) {
	if t.mismatches++; t.mismatches == 1 {
		fmt.Fprintln(os.Stderr, "xmbench: wrong answer:", err)
	}
}

// report prints each class's median and p99 with its sample count, and
// attempted and failed operations. The p99 is for reference only.
func (t *tally) report() {
	fmt.Printf("%-10s %8s %10s %10s %9s %6s\n", "class", "n", "p50_ms", "p99_ms", "attempted", "failed")
	for c := class(0); c < nClasses; c++ {
		fmt.Printf("%-10s %8d %10.3f %10.3f %9d %6d\n", c, len(t.durs[c]),
			quantile(t.durs[c], 0.5), quantile(t.durs[c], 0.99), t.attempted[c], t.failed[c])
	}
}

// quantile is the exact sample quantile of xs (linear interpolation
// between order statistics); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// hostContext prints what a reader needs to tell a slow host from a slow
// program: CPUs, GOMAXPROCS, the Go version, and the steal time the
// host took from this machine's CPUs during the measured loop.
func hostContext(steal int64) {
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s steal_jiffies=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
}

// stealJiffies reads the aggregate steal time from /proc/stat; -1 when
// unavailable.
func stealJiffies() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}
