package main

import (
	"fmt"
	"time"

	"abmm"
	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// setupReps is how many times an engine run builds its Multiplier;
// setup_s is the median. Each build faults in a fresh workspace, whose
// cost swings with the shared host's memory traffic, so the median is
// taken over more builds than a steady host would need.
const setupReps = 5

// poisonValue is the A entry an injected op carries. Alternative-basis
// transforms add and subtract it, so the fast product overflows where
// the classical product stays finite.
const poisonValue = 1e308

type shape struct{ M, K, N int }

func (s shape) flops() float64 { return 2 * float64(s.M) * float64(s.K) * float64(s.N) }

func (s shape) String() string { return fmt.Sprintf("%dx%dx%d", s.M, s.K, s.N) }

// engineSpec is one engine workload: the shapes one closed-loop caller
// alternates, the recursion depth it asks for, how often an op carries a
// poisoned input (0 never), and the highest percentile its latency tail
// is read at: the one its op count allows even on a slow host.
type engineSpec struct {
	shapes      []shape
	levels      int
	poisonEvery int
	tailPct     float64
}

func runEngineSquare(c runConfig) (*result, error) {
	return runEngine(c, engineSpec{
		shapes:  []shape{{1024, 1024, 1024}, {2048, 2048, 2048}},
		levels:  abmm.AutoLevels,
		tailPct: 50,
	})
}

func runEngineOddDeep(c runConfig) (*result, error) {
	return runEngine(c, engineSpec{
		shapes:      []shape{{1023, 1535, 767}, {767, 1023, 1535}},
		levels:      2,
		poisonEvery: 16,
		tailPct:     75,
	})
}

// enginePair is one shape's inputs, output buffer and oracles.
type enginePair struct {
	sh       shape
	a, b     *abmm.Matrix
	poisoned *abmm.Matrix // a with one entry set to poisonValue; nil when none are injected
	dst      *abmm.Matrix
	clean    *oracle // checks against the error bound
	kind     *oracle // kind-only check of the poisoned input
	bound    float64 // the plan's error bound
	levels   int     // the plan's recursion depth

	// Base-case work of one op at the plan's depth (see leafWork).
	leafFlops, packedBytes float64
}

// makePairs draws every input from the seed and computes the oracles.
func makePairs(spec engineSpec, seed uint64, workers int) []*enginePair {
	rng := abmm.Rand(seed)
	pairs := make([]*enginePair, len(spec.shapes))
	for i, sh := range spec.shapes {
		p := &enginePair{sh: sh, a: abmm.NewMatrix(sh.M, sh.K), b: abmm.NewMatrix(sh.K, sh.N), dst: abmm.NewMatrix(sh.M, sh.N)}
		p.a.FillUniform(rng, -1, 1)
		p.b.FillUniform(rng, -1, 1)
		p.clean = newOracle(p.a, p.b, true, workers)
		if spec.poisonEvery > 0 {
			p.poisoned = p.a.Clone()
			p.poisoned.Set(rng.IntN(sh.M), rng.IntN(sh.K), poisonValue)
			p.kind = newOracle(p.poisoned, p.b, false, workers)
		}
		pairs[i] = p
	}
	return pairs
}

// poisoned reports whether op i carries the poisoned input: one op in
// every block of `every`, at a position within the block drawn from the
// seed.
func poisoned(seed uint64, i, every int) bool {
	if every <= 0 {
		return false
	}
	block := uint64(i / every)
	return i%every == int(splitmix(seed^splitmix(block))%uint64(every))
}

// splitmix is the SplitMix64 finalizer, a cheap stateless hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// engineSetup builds a Multiplier setupReps times: construction, the
// first plan compile and the first op per shape. It returns the last
// multiplier, the set-up and per-shape compile times in seconds, and the
// warming ops' check tally. It samples the probe before every rep.
func engineSetup(pairs []*enginePair, opt abmm.Options, pr *probe) (*abmm.Multiplier, []float64, []float64, phaseCount, error) {
	var mu *abmm.Multiplier
	var setup, compile []float64
	pc := phaseCount{Name: "setup"}
	for rep := 0; rep < setupReps; rep++ {
		// Drop the input generation's garbage and the previous rep's
		// multiplier first, so every rep builds from the same state and
		// RSS holds one system at a time.
		mu = nil
		releaseMemory()
		pr.sample()
		t0 := time.Now()
		alg, err := abmm.Lookup("ours")
		if err != nil {
			return nil, nil, nil, pc, err
		}
		mu = abmm.NewMultiplier(alg, opt)
		var comp time.Duration
		for _, p := range pairs {
			tc := time.Now()
			mu.Plan(p.sh.M, p.sh.K, p.sh.N)
			comp += time.Since(tc)
			mu.MultiplyInto(p.dst, p.a, p.b)
		}
		setup = append(setup, time.Since(t0).Seconds())
		compile = append(compile, comp.Seconds()/float64(len(pairs)))
		// Each shape has its own dst, so every warming result is checked
		// here, outside the timed interval.
		for _, p := range pairs {
			pc.Ops++
			if !p.clean.check(p.dst).passes(mu.Plan(p.sh.M, p.sh.K, p.sh.N).ErrorBound()) {
				pc.Failed++
			}
		}
	}
	for _, p := range pairs {
		plan := mu.Plan(p.sh.M, p.sh.K, p.sh.N)
		p.bound = plan.ErrorBound()
		p.levels = plan.Levels()
		p.leafFlops, p.packedBytes = leafWork(mu.Alg, p.sh, plan.Levels())
	}
	return mu, setup, compile, pc, nil
}

// engineLoop is the measured closed loop's tally.
type engineLoop struct {
	pc        phaseCount
	mismatch  int
	poisonOps int
	maxRatio  float64
	ops       []opRecord
	leafFlops float64 // base-case work of the traced ops
	packed    float64
	perShape  map[shape][]float64 // untraced call times, ms

	pairs []*enginePair
	seed  uint64
	every int // poisonEvery
	pr    *probe
}

// run drives the closed loop on mu for dur, sampling the probe after
// every op. With traced set, whole cycles over the shapes alternate
// between traced (recording into rec) and mu, so the overhead
// comparison sees the same inputs and the same host state.
func (l *engineLoop) run(mu, traced *abmm.Multiplier, rec *spanRecorder, dur time.Duration) {
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		p := l.pairs[i%len(l.pairs)]
		m, r := mu, (*spanRecorder)(nil)
		if traced != nil && (i/len(l.pairs))%2 == 0 {
			m, r = traced, rec
		}
		d := l.runOp(m, p, poisoned(l.seed, i, l.every), r)
		l.pr.sample()
		l.ops = append(l.ops, opRecord{flops: p.sh.flops(), secs: d.Seconds(), traced: r != nil})
	}
}

// opRecord is one measured MultiplyInto call.
type opRecord struct {
	flops  float64
	secs   float64 // call time
	traced bool
}

// runOp times one MultiplyInto and checks its output afterwards. It
// returns the call time.
func (l *engineLoop) runOp(mu *abmm.Multiplier, p *enginePair, poison bool, rec *spanRecorder) time.Duration {
	a, o := p.a, p.clean
	if poison {
		a, o = p.poisoned, p.kind
	}
	if rec != nil {
		rec.beginOp()
	}
	t0 := time.Now()
	mu.MultiplyInto(p.dst, a, p.b)
	d := time.Since(t0)
	if rec != nil {
		rec.endOp()
		l.leafFlops += p.leafFlops
		l.packed += p.packedBytes
	} else {
		l.perShape[p.sh] = append(l.perShape[p.sh], float64(d)/1e6)
	}
	l.pc.Ops++
	v := o.check(p.dst)
	if poison {
		l.poisonOps++
		if v.Mismatch > 0 {
			l.mismatch++
		}
		return d
	}
	l.maxRatio = max(l.maxRatio, ratio(v.RelErr, p.bound))
	if !v.passes(p.bound) {
		l.pc.Failed++
	}
	return d
}

// rates sums the flops and call seconds of the traced or untraced ops.
func (l *engineLoop) rates(traced bool) (flops, secs float64, n int) {
	for _, o := range l.ops {
		if o.traced == traced {
			flops += o.flops
			secs += o.secs
			n++
		}
	}
	return flops, secs, n
}

func runEngine(c runConfig, spec engineSpec) (*result, error) {
	workers := parallel.Resolve(0)
	pairs := makePairs(spec, c.seed, workers)
	meanFlops := 0.0
	for _, p := range pairs {
		meanFlops += p.sh.flops() / float64(len(pairs))
	}

	pr := newProbe(workers)
	opt := abmm.Options{Levels: spec.levels}
	mu, setup, compile, setupPC, err := engineSetup(pairs, opt, pr)
	if err != nil {
		return nil, err
	}
	l := &engineLoop{pc: phaseCount{Name: "closed"}, perShape: map[shape][]float64{},
		pairs: pairs, seed: c.seed, every: spec.poisonEvery, pr: pr}
	dur := time.Duration(c.seconds * float64(time.Second))
	var rec *spanRecorder
	var traced *abmm.Multiplier
	if c.trace {
		rec = newSpanRecorder()
		topt := opt
		topt.Recorder = rec
		traced = abmm.NewMultiplier(mu.Alg, topt)
		for _, p := range pairs {
			traced.MultiplyInto(p.dst, p.a, p.b)
			setupPC.Ops++
			if !p.clean.check(p.dst).passes(p.bound) {
				setupPC.Failed++
			}
		}
	}
	rss := startRSS()
	rt0 := readRuntime()
	l.run(mu, traced, rec, dur)
	rt1 := readRuntime()
	memMed, memPeak := rss.stopMiB()

	res := &result{metrics: map[string]metric{}, phases: []phaseCount{setupPC, l.pc}, mismatch: l.mismatch, errRatio: l.maxRatio}
	res.notef("workers=%d poisoned_ops=%d rss_mib p50=%.1f peak=%.1f", workers, l.poisonOps, memMed, memPeak)
	for _, p := range pairs {
		s := summarize(l.perShape[p.sh])
		res.notef("shape %s L%d bound=%.3g untraced_ops=%d op_ms_p50=%.3f", p.sh, p.levels, p.bound, s.N, s.P50)
	}
	flops, secs, n := l.rates(false)
	f := pr.factor()
	res.notef("raw: %.4g GFLOP/s, setup %.4g s; probe median %.4g GFLOP/s, reference %g", ratio(flops, secs)/1e9, median(setup), f*probeRef, probeRef)
	if !c.trace {
		var lat []float64
		for _, o := range l.ops {
			lat = append(lat, o.secs*f*1e3*meanFlops/o.flops)
		}
		ls := summarizeUpTo(lat, spec.tailPct)
		res.notef("lat_ms: per-op call time scaled to the mean op size (%.3g flop); n=%d, tail=%s", meanFlops, ls.N, ls.tailLabel())
		res.notef("timings are stated at the reference probe speed: raw times x %.4g", f)
		m := res.metrics
		m["gflops"] = metric{ratio(flops, secs*f) / 1e9, "GFLOP/s"}
		m["capacity_rps"] = metric{ratio(float64(n), secs*f), "1/s"}
		m["lat_ms_p50"] = metric{ls.P50, "ms"}
		m["lat_ms_tail"] = metric{ls.Tail, "ms"}
		m["setup_s"] = metric{median(setup) * f, "s"}
		return res, nil
	}

	m := res.metrics
	ops := breakdowns(rec.spans)
	layerShares(ops, m)
	var kernelNs float64
	var opMs []float64
	for _, b := range ops {
		kernelNs += b.Pack + b.Kernel
		opMs = append(opMs, b.Dur/1e6)
	}
	op := summarizeUpTo(opMs, spec.tailPct)
	st := traced.Stats()
	m["kernel.gflops"] = metric{ratio(l.leafFlops, kernelNs), "GFLOP/s"}
	m["kernel.packed_mb_per_op"] = metric{ratio(l.packed, float64(len(ops))) / (1 << 20), "MiB"}
	m["kernel.l0_gflops"] = metric{l0GFLOPS(pairs, workers), "GFLOP/s"}
	m["core.op_ms_p50"] = metric{op.P50, "ms"}
	m["core.op_ms_tail"] = metric{op.Tail, "ms"}
	m["core.plan_compile_ms"] = metric{median(compile) * 1e3, "ms"}
	m["core.plan_hit_ratio"] = metric{ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio"}
	m["pool.reuse_ratio"] = metric{ratio(float64(rec.arenaReused), float64(rec.arenaRequested)), "ratio"}
	m["pool.high_water_mb"] = metric{float64(st.ArenaBytes) / (1 << 20), "MiB"}
	runtimeMetrics(m, rt0, rt1, l.pc.Ops)
	m["runtime.rss_peak_mb"] = metric{memPeak, "MiB"}
	tflops, tsecs, _ := l.rates(true)
	m["trace.overhead_pct"] = metric{100 * (ratio(ratio(flops, secs), ratio(tflops, tsecs)) - 1), "%"}
	m["check.nonfinite_mismatch"] = metric{float64(l.mismatch), "count"}
	m["check.err_vs_bound_max"] = metric{l.maxRatio, "ratio"}
	serverNotOnPath(m)
	res.notef("traced ops=%d untraced ops=%d; op_ms tail=%s; tasks spawned=%d inline=%d; arena releases=%d",
		len(ops), n, op.tailLabel(), rec.tasksSpawned, rec.tasksInline, rec.arenaReleases)
	res.notef("trace.overhead_pct: GFLOP/s of untraced vs traced cycles, interleaved")
	res.notef("kernel.packed_mb_per_op is computed from the padded shape, levels and the default blocking")
	res.notef("server.* and gen.* are 0: no server on this workload's path")
	return res, writeJSONLines(c.spans, rec.spans)
}

// serverNotOnPath fills the server-layer metrics of a workload that
// bypasses the server.
func serverNotOnPath(m map[string]metric) {
	for _, n := range []string{"server.decode_ms_p50", "server.queue_ms_tail", "server.exec_ms_p50",
		"server.resolve_ms_p50", "server.encode_ms_p50", "server.outside_ms_p50",
		"server.open_lat_ms_p50", "server.open_lat_ms_tail", "gen.late_ms_tail"} {
		m[n] = metric{0, "ms"}
	}
	m["server.rejected"] = metric{0, "ratio"}
	m["server.coalesced_share"] = metric{0, "ratio"}
}

// leafWork computes one op's base-case work at the given depth: the
// flops of the R^L leaf products of the padded shape, and the bytes the
// packed kernel copies into its panels for them under the default
// blocking.
func leafWork(alg *abmm.Algorithm, sh shape, levels int) (flops, packed float64) {
	m0, k0, n0, r := alg.Dims()
	pm, pk, pn := matrix.PadShape(sh.M, sh.K, sh.N, m0, k0, n0, levels)
	leaves := 1.0
	for l := 0; l < levels; l++ {
		pm, pk, pn = pm/m0, pk/k0, pn/n0
		leaves *= float64(r)
	}
	return leaves * 2 * float64(pm) * float64(pk) * float64(pn), leaves * 8 * packedFloats(pm, pk, pn)
}

// packedFloats counts the floats one kernel.GEMM of shape m×k×n writes
// into packed panels: B once per (nc, kc) panel, A once per mc block
// of every nc panel.
func packedFloats(m, k, n int) float64 {
	bl := kernel.DefaultBlocking()
	up := func(x, q int) int { return (x + q - 1) / q * q }
	var a, b float64
	for jc := 0; jc < n; jc += bl.NC {
		nc := min(bl.NC, n-jc)
		b += float64(k * up(nc, kernel.NR))
		for ic := 0; ic < m; ic += bl.MC {
			a += float64(up(min(bl.MC, m-ic), kernel.MR) * k)
		}
	}
	return a + b
}

// l0GFLOPS times the packed kernel alone (kernel.Mul, no recursion) on
// each workload shape: when the workload's gflops is below it,
// recursion is losing on this host.
func l0GFLOPS(pairs []*enginePair, workers int) float64 {
	var flops, secs float64
	for _, p := range pairs {
		kernel.Mul(p.dst, p.a, p.b, kernel.DefaultBlocking(), workers, pool.Global, nil)
		reps := max(2, int(2e9/p.sh.flops()))
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			kernel.Mul(p.dst, p.a, p.b, kernel.DefaultBlocking(), workers, pool.Global, nil)
		}
		secs += time.Since(t0).Seconds()
		flops += float64(reps) * p.sh.flops()
	}
	return ratio(flops, secs) / 1e9
}
