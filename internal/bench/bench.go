// Package bench is the durable benchmark-trajectory harness behind
// cmd/bench: it runs a fixed matrix of multiplication configurations
// (sizes × recursion levels × worker counts), measures throughput,
// allocations, tail latency, and sampled numerical error for each
// cell, and serialises the result as a BENCH_<k>.json document that
// can be committed next to the code it measured. Compare diffs two
// such documents and flags regressions beyond a noise threshold, so
// the performance and accuracy trajectory of the repository is
// checkable in review rather than anecdotal.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"abmm"
	"abmm/internal/kernel"
)

// Schema identifies the BENCH json layout; bump on incompatible
// changes so Compare can refuse mismatched files.
const Schema = 1

// Config is one benchmark matrix: every size × levels × workers
// combination becomes a Cell.
type Config struct {
	Alg     string
	Sizes   []int
	Levels  []int
	Workers []int // 0 means GOMAXPROCS
	Reps    int   // timed repetitions per cell; best-of is reported

	// KernelSizes adds base-case cells (see kernel.go): raw
	// single-thread packed-kernel and blocked-loop multiplies at these
	// n, outside the recursion machinery. Empty runs none.
	KernelSizes []int
}

// DefaultConfig is the fixed matrix cmd/bench runs when no overrides
// are given: large enough that recursion pays, small enough that the
// whole matrix (including one quad-precision accuracy sample per
// cell) finishes in tens of seconds on a laptop.
func DefaultConfig() Config {
	return Config{
		Alg:         "ours",
		Sizes:       []int{256, 512},
		Levels:      []int{1, 2},
		Workers:     []int{1, 0},
		Reps:        5,
		KernelSizes: DefaultKernelSizes(),
	}
}

// QuickConfig is a seconds-scale smoke matrix for CI and tests.
func QuickConfig() Config {
	return Config{Alg: "ours", Sizes: []int{64, 128}, Levels: []int{1}, Workers: []int{1}, Reps: 3,
		KernelSizes: []int{128}}
}

// Cell is the measurement for one configuration.
type Cell struct {
	Alg     string `json:"alg"`
	N       int    `json:"n"`
	Levels  int    `json:"levels"`
	Workers int    `json:"workers"`

	NsPerOp     float64 `json:"ns_per_op"`        // best-of-reps warm multiply
	GFLOPS      float64 `json:"classical_gflops"` // 2n³ / best time
	AllocsPerOp float64 `json:"allocs_per_op"`    // mallocs averaged over timed reps
	P99Seconds  float64 `json:"p99_seconds"`      // tail latency across timed reps

	// MaxRelError is the measured ‖Ĉ−C_ref‖/(‖A‖‖B‖) from one sampled
	// execution against the quad-precision reference; BoundRatio is
	// that error divided by the plan's predicted Theorem III.8 bound
	// (must stay < 1 on benign inputs).
	MaxRelError float64 `json:"max_rel_error"`
	BoundRatio  float64 `json:"bound_ratio"`
}

// Key identifies a cell across files.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/n=%d/L=%d/w=%d", c.Alg, c.N, c.Levels, c.Workers)
}

// File is one serialised benchmark run.
type File struct {
	Schema     int    `json:"schema"`
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// KernelPath is the packed kernel's micro-kernel path
	// (kernel.MicroPath: "avx512", "avx2" or "generic"); empty in files
	// written before it was recorded.
	KernelPath string `json:"kernel_path,omitempty"`
	Reps       int    `json:"reps"`
	Cells      []Cell `json:"cells"`
}

// Run executes the benchmark matrix and assembles a File stamped with
// the current git SHA and runtime environment.
func Run(cfg Config) (*File, error) {
	alg, err := abmm.Lookup(cfg.Alg)
	if err != nil {
		return nil, err
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	f := &File{
		Schema:     Schema,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelPath: kernel.MicroPath(),
		Reps:       cfg.Reps,
	}
	for _, n := range cfg.Sizes {
		for _, lv := range cfg.Levels {
			for _, w := range cfg.Workers {
				cell, err := runCell(alg, cfg.Alg, n, lv, w, cfg.Reps)
				if err != nil {
					return nil, err
				}
				f.Cells = append(f.Cells, cell)
			}
		}
	}
	f.Cells = append(f.Cells, runKernelCells(cfg.KernelSizes, cfg.Reps)...)
	return f, nil
}

// runCell measures one configuration. The warmup execution compiles
// the plan and — via ErrorSampleEvery set beyond the rep count — is
// the only execution re-checked against the quad-precision reference,
// so the timed repetitions run the clean warm path. The collector is
// reset after warmup so the latency histogram covers timed reps only.
func runCell(alg *abmm.Algorithm, algName string, n, levels, workers, reps int) (Cell, error) {
	if n <= 0 || levels < 0 || workers < 0 {
		return Cell{}, fmt.Errorf("bench: invalid cell n=%d levels=%d workers=%d", n, levels, workers)
	}
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	rng := abmm.Rand(uint64(n)*1000003 + uint64(levels)*31 + uint64(workers))
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)

	rec := abmm.NewCollector()
	mu := abmm.NewMultiplier(alg, abmm.Options{
		Levels: levels, Workers: workers,
		Recorder:         rec,
		ErrorSampleEvery: 1 << 30, // sample the warmup execution only
	})

	mu.MultiplyInto(dst, a, b) // cold: compile + accuracy sample
	mu.MultiplyInto(dst, a, b) // settle arenas
	warm := rec.Snapshot()
	rec.Reset()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		mu.MultiplyInto(dst, a, b)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&after)
	timed := rec.Snapshot()

	flops := 2 * float64(n) * float64(n) * float64(n)
	return Cell{
		Alg: algName, N: n, Levels: levels, Workers: workers,
		NsPerOp:     float64(best.Nanoseconds()),
		GFLOPS:      flops / best.Seconds() / 1e9,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(reps),
		P99Seconds:  timed.MulDuration.P99,
		MaxRelError: warm.Errors.Measured.Max,
		BoundRatio:  warm.Errors.BoundRatio.Max,
	}, nil
}

// WriteFile serialises f as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a BENCH json document and validates its schema.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %d, this binary speaks %d", path, f.Schema, Schema)
	}
	return &f, nil
}

// AutoPath returns BENCH_<k>.json in dir for the smallest k that does
// not exist yet, so successive runs append to the trajectory instead
// of overwriting it.
func AutoPath(dir string) string {
	for k := 0; ; k++ {
		p := fmt.Sprintf("%s/BENCH_%d.json", dir, k)
		if _, err := os.Stat(p); os.IsNotExist(err) {
			return p
		}
	}
}

// gitSHA best-efforts the current commit; "unknown" outside a git
// checkout (the document stays valid either way).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
