package bilinear

import (
	"context"
	"fmt"
	"runtime/trace"
	"sync"

	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// Options controls execution of the recursive bilinear engine.
type Options struct {
	// Workers is the degree of parallelism; 0 means GOMAXPROCS. Together
	// with the recursion depth and the algorithm's rank it picks the
	// engine's parallel form (see NewEngine).
	Workers int
	// Recorder, when non-nil, receives task spawn/inline events from
	// the fanned-out levels and nested pack/kernel phase spans
	// from the base-case kernel; nil disables recording at zero cost.
	Recorder obs.Recorder
	// Kernel carries the packed base-case kernel's cache-blocking
	// parameters; the zero value selects kernel.DefaultBlocking.
	Kernel kernel.Blocking
	// NoFuse disables the fused leaf step: the last recursion level runs
	// the ordinary materialize-then-multiply schedule instead of folding
	// the encode/decode combinations into the kernel's pack and
	// write-out passes. Ablation and bisection aid; the fused step is
	// the default.
	NoFuse bool
}

func (o Options) workers() int { return parallel.Resolve(o.Workers) }

// Exec multiplies two operands in stacked layout: a must be the
// ToRecursive image (branching D_U, depth levels) of the left operand
// possibly followed by a basis transformation, and b likewise with
// branching D_V. It returns the stacked product with branching D_W,
// which for a standard-basis spec is the ToRecursive image of C = A·B.
func Exec(s *Spec, a, b *matrix.Matrix, levels int, opt Options) *matrix.Matrix {
	e := NewEngine(s, opt, levels)
	du, dw := ipow(s.DU(), levels), ipow(s.DW(), levels)
	c := matrix.New(dw*(a.Rows/du), b.Cols)
	e.ExecInto(c, a, b, pool.Global)
	return c
}

// Engine executes the recursive bilinear phase of one algorithm at one
// recursion depth. An Engine is immutable after construction and safe
// for concurrent ExecInto calls; core.Plan builds one per compiled plan
// and reuses it for every execution of that shape.
type Engine struct {
	s *Spec
	// workers is the resolved parallelism. The linear-phase programs of
	// nodes at level 2 and above always get all of it: no task runs
	// beside them. kernelWorkers is what the levels beneath get (the
	// base-case kernel, fused leaf steps, level-1 programs): all workers
	// without fan-out, one with it.
	workers, kernelWorkers int
	// limiter bounds the tasks of a fanned-out engine (the products of
	// its level-2 nodes); it is nil when the engine does not fan out.
	limiter *parallel.Limiter
	// mixed, when non-nil, selects a different spec per level
	// (non-stationary recursion): mixed[0] at the top level.
	mixed  []*Spec
	levels int
	cols   map[*Spec]*specCols
	rec    obs.Recorder
	// kb is the base-case kernel blocking; fuse selects the fused leaf
	// step at level 1 (see fused.go).
	kb   kernel.Blocking
	fuse bool
	// regionNames[level] names the runtime/trace region of a recursion
	// node at that level (level counts down toward the base case at 0).
	regionNames []string
}

// specCols caches the encoding coefficient columns of a spec.
type specCols struct {
	u, v [][]float64
}

// specAt returns the algorithm for a recursion level (levels counts
// down toward the base case at 0).
func (e *Engine) specAt(level int) *Spec {
	if e.mixed == nil {
		return e.s
	}
	return e.mixed[e.levels-level]
}

// register caches the encoding columns of a spec and compiles its
// linear-phase programs. Registration happens only at construction
// (newEngine), before the engine is shared; colsOf is the read-only
// execution-time lookup, so concurrent ExecInto calls never write
// e.cols.
func (e *Engine) register(s *Spec) {
	if _, ok := e.cols[s]; ok {
		return
	}
	s.Programs() // compile once before any parallel execution
	e.cols[s] = &specCols{u: columns(s.uF), v: columns(s.vF)}
}

// colsOf returns the encoding columns of a spec registered at
// construction. It is read-only and safe under concurrency; an
// unregistered spec is a construction bug, not a recoverable state.
func (e *Engine) colsOf(s *Spec) *specCols {
	c, ok := e.cols[s]
	if !ok {
		panic("bilinear: spec not registered with engine at construction")
	}
	return c
}

// NewEngine compiles the execution state for running spec s at the
// given depth: resolved workers, the parallel form, compiled
// linear-phase programs, and the per-spec coefficient columns. The
// returned Engine is reusable and concurrency-safe.
//
// The parallel form follows from (workers, levels) and the rank R of the
// level-2 algorithm alone. The engine fans out when there is more than
// one worker, at least two levels, and R >= workers: every level-2 node
// then runs its R products — each a fused leaf step — as limiter-bounded
// concurrent tasks over serial kernels, while the nodes above it run one
// after another. This is the breadth-first/depth-first hybrid of
// Benson–Ballard (PAPERS.md) with the breadth-first step at the bottom,
// so at most one level-2 node's products are in flight per execution
// and the workspace stays that of the sequential form. Otherwise — one
// worker, fewer than two levels (the fused leaf is the whole recursion),
// or more workers than one node has products — there is no fan-out and
// every kernel gets all workers. EXPERIMENTS.md "Engine schedule
// ablation" measures both forms. Either gives bitwise-equal results:
// parallelism never reorders an accumulation.
func NewEngine(s *Spec, opt Options, levels int) *Engine {
	return newEngine(s, nil, opt, levels)
}

// newEngine builds an engine for spec s, or, when mixed is non-nil, for
// the per-level specs mixed (mixed[0] at the top level; s == mixed[0]).
func newEngine(s *Spec, mixed []*Spec, opt Options, levels int) *Engine {
	if levels < 0 {
		panic("bilinear: negative recursion depth")
	}
	w := opt.workers()
	e := &Engine{
		s: s, workers: w, kernelWorkers: w, mixed: mixed, levels: levels,
		rec: opt.Recorder, kb: opt.Kernel, fuse: !opt.NoFuse,
	}
	e.regionNames = make([]string, levels+1)
	for l := 1; l <= levels; l++ {
		e.regionNames[l] = fmt.Sprintf("bilinear.L%d", l)
	}
	e.cols = make(map[*Spec]*specCols, 1)
	e.register(s)
	for _, m := range mixed {
		// Register every spec's coefficient columns up front so colsOf
		// stays read-only during (possibly fanned-out) execution.
		e.register(m)
	}
	if w > 1 && levels >= 2 && e.specAt(2).R >= w {
		e.limiter = parallel.NewLimiter(4 * w)
		e.kernelWorkers = 1
	}
	return e
}

// FansOut reports whether the engine spawns the products of its level-2
// nodes as concurrent tasks. A nil engine (a level-0 plan) does not.
func (e *Engine) FansOut() bool { return e != nil && e.limiter != nil }

// WithRecorder returns an engine identical to e but reporting to rec —
// a shallow copy sharing the compiled state (coefficient columns,
// limiter, programs), so it costs one small allocation, not a
// recompile. The serving layer uses it to attach a per-request trace
// recorder to a cached plan's engine for a single execution. Returns e
// itself when rec is already its recorder.
func (e *Engine) WithRecorder(rec obs.Recorder) *Engine {
	if e == nil || rec == e.rec {
		return e
	}
	e2 := *e
	e2.rec = rec
	return &e2
}

func columns(m *matrix.Matrix) [][]float64 {
	out := make([][]float64, m.Cols)
	for r := range out {
		col := make([]float64, m.Rows)
		for i := range col {
			col[i] = m.At(i, r)
		}
		out[r] = col
	}
	return out
}

// ExecInto runs the engine's recursion, writing the stacked product
// into c. Scratch is drawn from al; with a warm pool.Arena and one
// worker the call performs no heap allocation. c must be fully writable
// scratch or output — its prior contents are ignored.
//
//abmm:hotpath
func (e *Engine) ExecInto(c, a, b *matrix.Matrix, al pool.Allocator) {
	e.ExecIntoCancel(c, a, b, al, nil)
}

// ExecIntoCancel is ExecInto with a cooperative cancellation token: the
// recursion polls cn at every node boundary (one atomic load; no
// per-element or per-leaf cost) and abandons the remaining subtree once
// cn is set, leaving c in an unspecified state. Scratch accounting stays
// balanced on the abandoned path, so the arena remains reusable. A nil
// cn is valid and makes this identical to ExecInto.
//
//abmm:hotpath
func (e *Engine) ExecIntoCancel(c, a, b *matrix.Matrix, al pool.Allocator, cn *parallel.Cancel) {
	s, levels := e.s, e.levels
	du, dv, dw := ipow(s.DU(), levels), ipow(s.DV(), levels), ipow(s.DW(), levels)
	if a.Rows%du != 0 || b.Rows%dv != 0 {
		panic(fmt.Sprintf("bilinear: operand rows %d/%d not divisible by branching %d/%d", a.Rows, b.Rows, du, dv))
	}
	if a.Cols != b.Rows/dv {
		panic(fmt.Sprintf("bilinear: base blocks %dx%d · %dx%d do not conform",
			a.Rows/du, a.Cols, b.Rows/dv, b.Cols))
	}
	if c.Rows != dw*(a.Rows/du) || c.Cols != b.Cols {
		panic(fmt.Sprintf("bilinear: output %dx%d, want %dx%d", c.Rows, c.Cols, dw*(a.Rows/du), b.Cols))
	}
	e.recurse(c, a, b, levels, al, cn)
}

func (e *Engine) recurse(c, a, b *matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	// Cooperative cancellation: one nil-check-plus-atomic-load per
	// recursion node (base cases included — a leaf is still a whole
	// classical block multiply, not an element). Bailing here, before
	// any scratch is drawn for this node, keeps pool accounting
	// balanced; the skipped subtree leaves its output block garbage,
	// which is fine because a canceled multiplication's result is
	// discarded by contract.
	if cn.Canceled() {
		return
	}
	// With the execution tracer on, every recursion node above the base
	// case emits a named region, so `go tool trace` shows the recursion
	// tree under the per-multiplication task (see internal/obs).
	if level > 0 && trace.IsEnabled() {
		// Trace regions are process-scoped; cancellation travels in cn,
		// not a context, so there is no caller ctx to sever.
		//abmm:allow ctx-discipline
		defer trace.StartRegion(context.Background(), e.regionNames[level]).End()
	}
	if level == 0 {
		kernel.Mul(c, a, b, e.kb, e.kernelWorkers, al, e.rec)
		return
	}
	// The last recursion level collapses into fused packed-kernel calls
	// (encode during packing, decode during write-out; see fused.go).
	// Fanned-out engines spawn their tasks at level 2 and each task
	// bottoms out here, so the bitwise result does not depend on
	// the worker count, as the determinism tests pin.
	if level == 1 && e.fuse {
		e.fusedStep(c, a, b, al, cn)
		return
	}
	e.scheduled(c, a, b, level, al, cn)
}

// scheduled runs one recursion step using the CSE-compiled linear-phase
// programs: all S_r and T_r are produced by the shared encode programs,
// the R products recurse (as concurrent tasks at level 2 of a
// fanned-out engine), and the decode program writes the output groups
// in place.
func (e *Engine) scheduled(c, a, b *matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	s := e.specAt(level)
	encA, encB, dec := s.Programs()
	ah, bh, ch := a.Rows/s.DU(), b.Rows/s.DV(), c.Rows/s.DW()
	// No task runs beside a node at level 2 or above, so its linear
	// phase gets every worker even in a fanned-out engine.
	w := e.kernelWorkers
	if level >= 2 {
		w = e.workers
	}
	aGroups := groupsIn(al, a, s.DU())
	bGroups := groupsIn(al, b, s.DV())
	sRun := runProgram(encA, aGroups, ah, a.Cols, nil, w, al)
	tRun := runProgram(encB, bGroups, bh, b.Cols, nil, w, al)
	prods := al.Mats(s.R)
	for r := range prods {
		prods[r] = al.Mat(ch, c.Cols)
	}
	if e.limiter != nil && level == 2 {
		// Done in a separate method so its closures don't force sRun
		// and tRun to the heap on the non-task path.
		e.recurseTasks(prods, sRun.outs, tRun.outs, level, al, cn)
	} else {
		for r := 0; r < s.R; r++ {
			e.recurse(prods[r], sRun.outs[r], tRun.outs[r], level-1, al, cn)
		}
	}
	sRun.release(al)
	tRun.release(al)
	putGroups(al, aGroups)
	putGroups(al, bGroups)
	cGroups := groupsIn(al, c, s.DW())
	dRun := runProgram(dec, prods, ch, c.Cols, cGroups, w, al)
	dRun.release(al)
	putGroups(al, cGroups)
	for _, p := range prods {
		al.PutMat(p)
	}
	al.PutMats(prods)
}

// recurseTasks runs the R product recursions of one scheduled node as
// limiter-bounded concurrent tasks. Per-product task closures (and the
// goroutines behind them) allocate by design; fan-out needs more than
// one worker, so the zero-alloc guarantee at one worker is unaffected.
//
//abmm:coldpath
func (e *Engine) recurseTasks(prods, souts, touts []*matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	var wg sync.WaitGroup
	n := len(prods)
	for r := 0; r < n; r++ {
		task := func(r int) func() {
			return func() { e.recurse(prods[r], souts[r], touts[r], level-1, al, cn) }
		}(r)
		// The last product always runs inline so the spawning
		// goroutine contributes work instead of blocking.
		spawned := r != n-1 && e.limiter.TrySpawn(&wg, task)
		if e.rec != nil {
			e.rec.TaskSpawn(spawned)
		}
		if !spawned {
			task()
		}
	}
	wg.Wait()
}

// groupsIn splits a stacked operand into its d top-level contiguous row
// groups, drawing the headers and the slice from al.
func groupsIn(al pool.Allocator, m *matrix.Matrix, d int) []*matrix.Matrix {
	h := m.Rows / d
	out := al.Mats(d)
	for i := range out {
		g := al.Hdr()
		m.ViewInto(g, i*h, 0, h, m.Cols)
		out[i] = g
	}
	return out
}

// putGroups returns a groupsIn result to al.
func putGroups(al pool.Allocator, gs []*matrix.Matrix) {
	for _, g := range gs {
		al.PutHdr(g)
	}
	al.PutMats(gs)
}
