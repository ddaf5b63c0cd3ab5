package bench

// Tests for the benchmark-trajectory harness: a real (tiny) matrix
// run produces coherent cells, files round-trip through JSON, and
// Compare flags exactly the injected synthetic regressions that the
// cmd/bench exit-code contract depends on.

import (
	"path/filepath"
	"testing"

	"abmm/internal/kernel"
)

func tinyConfig() Config {
	return Config{Alg: "ours", Sizes: []int{48}, Levels: []int{1}, Workers: []int{1}, Reps: 2}
}

func TestRunTinyMatrix(t *testing.T) {
	f, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema || f.GoVersion == "" || f.GOMAXPROCS < 1 {
		t.Fatalf("environment stamp incomplete: %+v", f)
	}
	if f.KernelPath != kernel.MicroPath() {
		t.Fatalf("kernel_path %q, want the running micro-kernel %q", f.KernelPath, kernel.MicroPath())
	}
	if len(f.Cells) != 1 {
		t.Fatalf("1-cell config produced %d cells", len(f.Cells))
	}
	c := f.Cells[0]
	if c.Key() != "ours/n=48/L=1/w=1" {
		t.Fatalf("cell key %q", c.Key())
	}
	if !(c.NsPerOp > 0) || !(c.GFLOPS > 0) || !(c.P99Seconds > 0) {
		t.Fatalf("timing fields not populated: %+v", c)
	}
	if !(c.MaxRelError > 0) || !(c.MaxRelError < 1e-12) {
		t.Fatalf("measured error %g outside plausible (0, 1e-12)", c.MaxRelError)
	}
	if !(c.BoundRatio > 0) || c.BoundRatio >= 1 {
		t.Fatalf("bound ratio %g, want in (0, 1)", c.BoundRatio)
	}
}

func TestRunKernelCells(t *testing.T) {
	cfg := tinyConfig()
	cfg.KernelSizes = []int{48}
	f, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One matrix cell plus both kernel variants (48 ≤ blockedKernelCap).
	if len(f.Cells) != 3 {
		t.Fatalf("expected 3 cells, got %d", len(f.Cells))
	}
	for _, key := range []string{"kernel-packed/n=48/L=0/w=1", "kernel-blocked/n=48/L=0/w=1"} {
		found := false
		for _, c := range f.Cells {
			if c.Key() != key {
				continue
			}
			found = true
			if !(c.NsPerOp > 0) || !(c.GFLOPS > 0) {
				t.Errorf("%s: timing fields not populated: %+v", key, c)
			}
			if c.MaxRelError != 0 || c.BoundRatio != 0 {
				t.Errorf("%s: kernel cells sample no error, got %+v", key, c)
			}
		}
		if !found {
			t.Errorf("cell %s missing", key)
		}
	}
	// Beyond the cap only the packed variant runs.
	cells := runKernelCells([]int{blockedKernelCap + 4}, 1)
	if len(cells) != 1 || cells[0].Alg != "kernel-packed" {
		t.Fatalf("above cap want packed only, got %+v", cells)
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	cfg := tinyConfig()
	cfg.Alg = "no-such-algorithm"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := &File{
		Schema: Schema, GitSHA: "abc1234", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 8, KernelPath: "avx512", Reps: 5,
		Cells: []Cell{{Alg: "ours", N: 256, Levels: 2, Workers: 1,
			NsPerOp: 1e6, GFLOPS: 33.5, AllocsPerOp: 0, P99Seconds: 1.2e-3,
			MaxRelError: 3e-16, BoundRatio: 0.01}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 || got.Cells[0] != f.Cells[0] {
		t.Fatalf("round trip mangled cells: %+v", got.Cells)
	}
	if got.GitSHA != f.GitSHA || got.GOMAXPROCS != f.GOMAXPROCS || got.KernelPath != f.KernelPath {
		t.Fatalf("round trip mangled stamp: %+v", got)
	}
}

// TestReadFileBeforeKernelPath pins that kernel_path is an added field,
// not a schema change: the committed BENCH_1.json, written before the
// field existed, still decodes, with an empty path.
func TestReadFileBeforeKernelPath(t *testing.T) {
	f, err := ReadFile(filepath.Join("..", "..", "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.KernelPath != "" || len(f.Cells) == 0 {
		t.Fatalf("BENCH_1.json decoded as kernel_path %q with %d cells", f.KernelPath, len(f.Cells))
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	f := &File{Schema: Schema + 99}
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestAutoPathSkipsExisting(t *testing.T) {
	dir := t.TempDir()
	if got, want := AutoPath(dir), filepath.Join(dir, "BENCH_0.json"); got != want {
		t.Fatalf("empty dir: %q, want %q", got, want)
	}
	if err := (&File{Schema: Schema}).WriteFile(filepath.Join(dir, "BENCH_0.json")); err != nil {
		t.Fatal(err)
	}
	if got, want := AutoPath(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Fatalf("after BENCH_0: %q, want %q", got, want)
	}
}

// baselineFile is a plausible committed baseline for compare tests.
func baselineFile() *File {
	return &File{Schema: Schema, Cells: []Cell{
		{Alg: "ours", N: 256, Levels: 1, Workers: 1, NsPerOp: 2e6, AllocsPerOp: 0, MaxRelError: 2e-16, BoundRatio: 0.02},
		{Alg: "ours", N: 512, Levels: 2, Workers: 0, NsPerOp: 9e6, AllocsPerOp: 0, MaxRelError: 4e-16, BoundRatio: 0.03},
	}}
}

func TestCompareCleanRun(t *testing.T) {
	base := baselineFile()
	next := baselineFile()
	// Genuine noise and improvements must not flag.
	next.Cells[0].NsPerOp *= 1.2   // within the 25% threshold
	next.Cells[1].NsPerOp *= 0.7   // faster
	next.Cells[0].MaxRelError *= 3 // different summation order, same ballpark
	if regs := Compare(base, next, 0); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
}

func TestCompareFlagsInjectedRegressions(t *testing.T) {
	base := baselineFile()
	next := baselineFile()
	next.Cells[0].NsPerOp *= 2    // synthetic slowdown
	next.Cells[1].AllocsPerOp = 3 // warm path started allocating
	next.Cells[1].MaxRelError = 1e-14
	regs := Compare(base, next, 0)
	want := map[string]bool{"ns_per_op": false, "allocs_per_op": false, "max_rel_error": false}
	for _, r := range regs {
		if _, ok := want[r.Metric]; !ok {
			t.Fatalf("unexpected regression %v", r)
		}
		want[r.Metric] = true
	}
	for m, seen := range want {
		if !seen {
			t.Errorf("injected %s regression not flagged (got %v)", m, regs)
		}
	}
}

func TestCompareFlagsBoundEscape(t *testing.T) {
	base := baselineFile()
	next := baselineFile()
	next.Cells[0].BoundRatio = 1.5 // error escaped the predicted bound
	regs := Compare(base, next, 0)
	if len(regs) != 1 || regs[0].Metric != "bound_ratio" {
		t.Fatalf("bound escape: %v", regs)
	}
}

func TestCompareFlagsMissingCell(t *testing.T) {
	base := baselineFile()
	next := baselineFile()
	next.Cells = next.Cells[:1]
	regs := Compare(base, next, 0)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing cell: %v", regs)
	}
	if regs[0].Cell != base.Cells[1].Key() {
		t.Fatalf("missing cell key %q", regs[0].Cell)
	}
}

func TestCompareExtraCellsInformational(t *testing.T) {
	base := baselineFile()
	next := baselineFile()
	next.Cells = append(next.Cells, Cell{Alg: "strassen", N: 256, Levels: 1, Workers: 1, NsPerOp: 5e6})
	if regs := Compare(base, next, 0); len(regs) != 0 {
		t.Fatalf("new coverage flagged as regression: %v", regs)
	}
}
