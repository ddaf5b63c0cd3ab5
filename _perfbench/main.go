// Command perfbench is the repository's benchmark: it drives three
// workloads through the public entry points — abmm.Multiplier for the
// library and internal/server on loopback for the service — in the
// configuration abmmd serves, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer split (traced run).
//
//	go build -o perfbench . && ./perfbench --workload engine-square --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it carry the
// host fingerprint, per-phase op and failure counts, and every metric
// with its unit and sample count. A traced run also writes its spans,
// one JSON object per line, to .bench_build/spans-<workload>-<seed>.jsonl.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"abmm/internal/parallel"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCount is the op and failure tally of one load phase.
type phaseCount struct {
	Name   string
	Ops    int
	Failed int
}

// result is what one run reports: end-to-end metrics (untraced run) or
// per-layer metrics (traced run), per-phase counts, and detail lines
// such as sample counts and the percentile each tail was read at.
type result struct {
	metrics map[string]metric
	phases  []phaseCount
	notes   []string
	// mismatch counts ops whose non-finite outputs differ from the
	// classical product's; those ops are checked in kind only and are
	// not failures.
	mismatch int
	// errRatio is the largest measured relative error over the plan's
	// error bound among the ops checked against the bound.
	errRatio float64
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // where a traced run writes its spans
}

type workload struct {
	name string
	why  string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"engine-square", "square 1024 and 2048 at automatic levels (L1, L2): no padding, the packed kernel does most of the work, the server is bypassed", runEngineSquare},
	{"engine-odd-deep", "odd non-square shapes at L2 with one poisoned op in 16: padding, layout copies, basis transforms and small recursion nodes take their largest share", runEngineOddDeep},
	{"serve-small", "64-256 square requests to an in-process server, open then closed loop: wire, HTTP, admission and plan lookup dominate, the engine runs only L0", runServeSmall},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: engine-square, engine-odd-deep or serve-small")
	seed := fl.Uint64("seed", 1, "seed all inputs and schedules are drawn from")
	seconds := fl.Float64("seconds", 10, "how long the measured load runs")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of engine-square, engine-odd-deep, serve-small), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))}

	h := fingerprint(w, cfg.seed)
	hj, err := json.Marshal(h)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", hj)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(stdout, res)
}

// report prints the detail lines and, last, the result object.
func report(stdout io.Writer, res *result) int {
	attempted, failed := 0, 0
	for _, p := range res.phases {
		fmt.Fprintf(stdout, "phase %s ops=%d failed=%d\n", p.Name, p.Ops, p.Failed)
		attempted += p.Ops
		failed += p.Failed
	}
	fmt.Fprintf(stdout, "check err_vs_bound_max=%g nonfinite_mismatch=%d (poisoned ops are checked in kind only, not failures)\n", res.errRatio, res.mismatch)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "note", n)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(stdout, "metric %s %g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// host is the fingerprint every result is stamped with.
type host struct {
	CPU        string `json:"cpu"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
	SourceSHA  string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Why        string `json:"why"`
}

func fingerprint(w *workload, seed uint64) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Resolve(0),
		Go:         runtime.Version(),
		GitSHA:     "unknown",
		SourceSHA:  sourceDigest("."),
		Seed:       seed,
		Workload:   w.name,
		Why:        w.why,
	}
	h.CPU, h.AVX2, h.FMA = cpuInfo()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

// cpuInfo reads the CPU model and the avx2/fma flags of the first
// processor in /proc/cpuinfo.
func cpuInfo() (model string, avx2, fma bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", false, false
	}
	defer f.Close()
	model = "unknown"
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			model = strings.TrimSpace(v)
		case "flags":
			for _, fl := range strings.Fields(v) {
				avx2 = avx2 || fl == "avx2"
				fma = fma || fl == "fma"
			}
			return model, avx2, fma
		}
	}
	return model, avx2, fma
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(sum, "%s %d\n", filepath.ToSlash(p), len(b))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// rssSampler samples the process's resident set size from
// /proc/self/statm every few milliseconds between start and stop.
type rssSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MiB; written by the sampling goroutine until done
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, float64(rssBytes())/(1<<20))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stopMiB stops sampling and returns the median and peak RSS in MiB.
// The median is what the load holds resident; the peak also catches
// transient growth such as a workspace rebuilt after the GC dropped it.
func (s *rssSampler) stopMiB() (med, peak float64) {
	close(s.stop)
	s.done.Wait()
	for _, v := range s.samples {
		peak = max(peak, v)
	}
	return median(s.samples), peak
}

func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, res int64
	if _, err := fmt.Sscan(string(b), &size, &res); err != nil {
		return 0
	}
	return res * int64(os.Getpagesize())
}

// releaseMemory collects the garbage of input generation (the
// double-double reference temporaries dwarf everything else) and of
// earlier set-up reps, and returns it to the OS. It also empties the
// engine's pooled workspace, so it never runs between warm-up and load.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runtimeCounters snapshots the allocation and GC counters the traced
// run reports per op.
type runtimeCounters struct {
	mallocs, numGC uint64
	pauseNs        uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{ms.Mallocs, uint64(ms.NumGC), ms.PauseTotalNs}
}

// runtimeMetrics reports allocation and GC activity between two
// snapshots, per op of the load.
func runtimeMetrics(m map[string]metric, a, b runtimeCounters, ops int) {
	m["runtime.allocs_per_op"] = metric{ratio(float64(b.mallocs-a.mallocs), float64(ops)), "count"}
	m["runtime.gc_per_kop"] = metric{ratio(1000*float64(b.numGC-a.numGC), float64(ops)), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(b.pauseNs-a.pauseNs) / 1e6, "ms"}
}
