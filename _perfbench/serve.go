package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abmm"
	"abmm/internal/kernel"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
	"abmm/internal/reqtrace"
	"abmm/internal/server"
)

const (
	// serveRate is the open loop's fixed arrival rate, about a quarter of
	// what the closed loop completes on a busy 2-CPU host (600-700
	// req/s). At 250-350 req/s the two clients neared saturation
	// whenever the shared host slowed, and latency swung far more than
	// the host's speed.
	serveRate = 150.0
	// serveClients bounds client goroutines and connections (= nproc of
	// the reference host).
	serveClients = 2
	// pairsPerSize is how many distinct input pairs each size draws.
	pairsPerSize = 32
	// maxElems caps decoded responses, as the server's default does.
	maxElems = 16 << 20
	// traceRing holds every traced request of one run, so none is
	// evicted before the run reads it back.
	traceRing = 1 << 15
	// serveSetupReps is how many times a serve run builds its server.
	// One build takes about 10 ms, so the run affords more than the
	// engines' setupReps, and setup_s, their median, steadies.
	serveSetupReps = 11
)

var serveSizes = []int{64, 128, 256}

// serveInput is one encoded request and the oracle its answer is
// checked against.
type serveInput struct {
	n     int
	frame []byte
	o     *oracle
}

func (in *serveInput) flops() float64 { return 2 * float64(in.n) * float64(in.n) * float64(in.n) }

// makeServeInputs draws pairsPerSize input pairs per size from the seed
// and encodes each as an ABM1 frame for ours at automatic levels.
func makeServeInputs(seed uint64, workers int) ([][]*serveInput, error) {
	rng := abmm.Rand(seed)
	inputs := make([][]*serveInput, len(serveSizes))
	for si, n := range serveSizes {
		for p := 0; p < pairsPerSize; p++ {
			a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
			a.FillUniform(rng, -1, 1)
			b.FillUniform(rng, -1, 1)
			var buf bytes.Buffer
			req := &server.Request{Alg: "ours", Levels: server.LevelsAuto, A: a, B: b}
			if err := server.EncodeRequest(&buf, req); err != nil {
				return nil, err
			}
			inputs[si] = append(inputs[si], &serveInput{n: n, frame: buf.Bytes(), o: newOracle(a, b, true, workers)})
		}
	}
	return inputs, nil
}

// requestMix returns count requests over the sizes in equal shares:
// every block of len(serveSizes) requests holds each size once, in an
// order drawn from the seed, each with an input pair drawn from the seed.
func requestMix(inputs [][]*serveInput, seed uint64, count int) []*serveInput {
	rng := abmm.Rand(seed ^ 0x6d6978)
	mix := make([]*serveInput, 0, count)
	for len(mix) < count {
		for _, si := range rng.Perm(len(serveSizes)) {
			mix = append(mix, inputs[si][rng.IntN(pairsPerSize)])
		}
	}
	return mix[:count]
}

// poissonSchedule returns the due times, as offsets from the phase
// start, of Poisson arrivals at rate per second over dur.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := abmm.Rand(seed ^ 0x706f6973)
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// outcome is one request as the client saw it.
type outcome struct {
	ok        bool // 200, decoded, and within the plan's error bound
	rejected  bool // 429 or 503
	coalesced bool
	ratio     float64       // measured relative error ÷ X-Abmm-Error-Bound
	latency   time.Duration // from due (open loop) or send to decoded
	late      time.Duration // send time minus due time (open loop)
	rtt       time.Duration // send to decoded
	queueNs   int64
	execNs    int64
	n         int // the request's matrix side
	flops     float64
	traced    bool
	id        reqtrace.ID
}

type client struct {
	url string
	hc  *http.Client
	tr  *http.Transport
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	return &client{url: url + "/v1/multiply", hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and checks the answer after the clock stops.
// Latency runs from due, which the open loop sets to the scheduled
// send time.
func (c *client) do(in *serveInput, traced bool, due time.Time) outcome {
	o := outcome{n: in.n, flops: in.flops(), traced: traced}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(in.frame))
	if err != nil {
		return o
	}
	req.Header.Set("Content-Type", server.ContentTypeBinary)
	if traced {
		o.id = reqtrace.NewID()
		req.Header.Set("traceparent", reqtrace.FormatTraceparent(o.id, splitmix(o.id.Lo)|1))
	}
	sent := time.Now()
	o.late = sent.Sub(due)
	resp, err := c.hc.Do(req)
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		o.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return o
	}
	got, err := server.DecodeResponse(resp.Body, maxElems)
	done := time.Now()
	if err != nil {
		return o
	}
	o.latency, o.rtt = done.Sub(due), done.Sub(sent)
	h := resp.Header
	o.queueNs, _ = strconv.ParseInt(h.Get("X-Abmm-Queue-Ns"), 10, 64)
	o.execNs, _ = strconv.ParseInt(h.Get("X-Abmm-Exec-Ns"), 10, 64)
	o.coalesced = h.Get("X-Abmm-Coalesced") == "1"
	bound, err := strconv.ParseFloat(h.Get("X-Abmm-Error-Bound"), 64)
	if err != nil || got.Rows != in.n || got.Cols != in.n {
		return o
	}
	v := in.o.check(got)
	o.ratio = ratio(v.RelErr, bound)
	o.ok = v.passes(bound)
	return o
}

// tally counts a phase's outcomes.
func tally(name string, outs []outcome) phaseCount {
	pc := phaseCount{Name: name, Ops: len(outs)}
	for _, o := range outs {
		if !o.ok {
			pc.Failed++
		}
	}
	return pc
}

// openLoop sends the scheduled requests from serveClients goroutines.
// A request due while both are busy waits for one, and that wait counts
// in its latency.
func openLoop(c *client, sched []time.Duration, mix []*serveInput, traced bool) []outcome {
	outs := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				outs[i] = c.do(mix[i], traced, due)
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop runs serveClients clients that each send their next
// request when the previous one is answered, for dur, drawing requests
// from mix at the shared cursor next. With traced set, every other
// request carries a traceparent.
func closedLoop(c *client, mix []*serveInput, next *atomic.Int64, dur time.Duration, traced bool) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				mine = append(mine, c.do(mix[i%len(mix)], traced && i%2 == 0, time.Now()))
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

const (
	// openSlice is how long the open loop runs between two samples of
	// the probe.
	openSlice = time.Second
	// closedSlice is how long the closed loop runs between two samples of
	// the probe. Its phase is short, and the host's speed swings within
	// seconds, so it is sampled often enough for a median of its own.
	closedSlice = 250 * time.Millisecond
)

// slicedOpen runs the open loop one openSlice of the schedule at a time,
// sampling the probe before every slice.
func slicedOpen(c *client, pr *probe, sched []time.Duration, mix []*serveInput, traced bool) []outcome {
	var outs []outcome
	for lo := 0; lo < len(sched); {
		slice := sched[lo] / openSlice
		hi := lo
		for hi < len(sched) && sched[hi]/openSlice == slice {
			hi++
		}
		sub := make([]time.Duration, hi-lo)
		for i := range sub {
			sub[i] = sched[lo+i] - slice*openSlice
		}
		pr.sample()
		outs = append(outs, openLoop(c, sub, mix[lo:hi], traced)...)
		lo = hi
	}
	return outs
}

// slicedClosed runs the closed loop for dur in slices of closedSlice,
// sampling the probe before every slice. It returns the outcomes, the
// time the load ran, and the median over slices of the successful
// requests and classical-equivalent flops completed per second.
func slicedClosed(c *client, pr *probe, mix []*serveInput, dur time.Duration, traced bool) (outs []outcome, wall time.Duration, rps, flops float64) {
	var next atomic.Int64
	var rpss, flopss []float64
	for wall < dur {
		pr.sample()
		o, w := closedLoop(c, mix, &next, min(closedSlice, dur-wall), traced)
		var ok, fl float64
		for _, x := range o {
			if x.ok {
				ok++
				fl += x.flops
			}
		}
		rpss = append(rpss, ok/w.Seconds())
		flopss = append(flopss, fl/w.Seconds())
		outs = append(outs, o...)
		wall += w
	}
	return outs, wall, median(rpss), median(flopss)
}

// serveSetup builds and starts a server serveSetupReps times and sends the
// first request of each size, sampling the probe before every rep. It
// returns the servers (only the last, which serves the load, is still
// running), their setup outcomes, and the set-up times in seconds.
func serveSetup(cfg server.Config, inputs [][]*serveInput, traced bool, pr *probe) ([]*server.Server, [][]outcome, []float64, error) {
	var srvs []*server.Server
	var outs [][]outcome
	var setup []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		pr.sample()
		t0 := time.Now()
		s, err := server.New(cfg)
		if err != nil {
			return srvs, nil, nil, err
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			return srvs, nil, nil, err
		}
		srvs = append(srvs, s)
		c := newClient(s.URL())
		var first []outcome
		for si := range serveSizes {
			first = append(first, c.do(inputs[si][0], traced, time.Now()))
		}
		setup = append(setup, time.Since(t0).Seconds())
		c.close()
		outs = append(outs, first)
		if rep < serveSetupReps-1 {
			// Its trace store stays readable after Close.
			s.Close()
		}
	}
	return srvs, outs, setup, nil
}

func runServeSmall(c runConfig) (*result, error) {
	workers := parallel.Resolve(0)
	inputs, err := makeServeInputs(c.seed, workers)
	if err != nil {
		return nil, err
	}
	// A third of the time goes to the open loop and the rest to the
	// closed loop, which the end-to-end metrics come from.
	total := time.Duration(c.seconds * float64(time.Second))
	openDur := total / 3
	sched := poissonSchedule(c.seed, serveRate, openDur)
	openMix := requestMix(inputs, c.seed, len(sched))
	closedMix := requestMix(inputs, c.seed+1, 1<<16)
	releaseMemory()

	pr := newProbe(workers)
	cfg := server.Config{}
	if c.trace {
		cfg.TraceRing = traceRing
	}
	srvs, setupOuts, setup, err := serveSetup(cfg, inputs, c.trace, pr)
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	srv := srvs[len(srvs)-1]
	cl := newClient(srv.URL())
	defer cl.close()

	rss := startRSS()
	rt0 := readRuntime()
	// Each phase is stated at the probe samples taken in it: set-up, the
	// open and the closed loop each see the host as it was while they ran.
	openFrom := pr.count()
	open := slicedOpen(cl, pr, sched, openMix, c.trace)
	closedFrom := pr.count()
	closed, wall, rps, flopsPerSec := slicedClosed(cl, pr, closedMix, total-openDur, c.trace)
	rt1 := readRuntime()
	memMed, memPeak := rss.stopMiB()

	var setupAll []outcome
	for _, o := range setupOuts {
		setupAll = append(setupAll, o...)
	}
	res := &result{metrics: map[string]metric{}, phases: []phaseCount{tally("setup", setupAll), tally("open", open), tally("closed", closed)}}
	res.notef("workers=%d rate=%g/s clients=%d open_requests=%d closed_s=%.3f rss_mib p50=%.1f peak=%.1f", workers, serveRate, serveClients, len(sched), wall.Seconds(), memMed, memPeak)
	for _, outs := range [][]outcome{setupAll, open, closed} {
		for _, o := range outs {
			if o.ok {
				res.errRatio = max(res.errRatio, o.ratio)
			}
		}
	}
	m := res.metrics
	if !c.trace {
		fs, fo, fc := pr.factorOf(0, openFrom), pr.factorOf(openFrom, closedFrom), pr.factorOf(closedFrom, pr.count())
		// The latency metrics come from the closed loop. At the open loop's
		// quarter load the server idles between requests, and its latency
		// follows how soon the shared host wakes it: on a shared 2-vCPU
		// Xeon, one seed's open-loop raw p50 read 2.7 to 4.8 ms over five
		// runs, and the generator's own timer lateness, which runs no
		// program code, swung with it. Under the closed loop's full load
		// latency follows the host's speed, which the probe states away.
		// The open loop's figures are still reported.
		var lat, openLat, late []float64
		for _, o := range closed {
			if o.ok {
				lat = append(lat, float64(o.rtt)/1e6)
			}
		}
		for _, o := range open {
			late = append(late, float64(o.late)/1e6)
			if o.ok {
				openLat = append(openLat, float64(o.latency)/1e6)
			}
		}
		ls, ol, gs := summarize(lat), summarize(openLat), summarize(late)
		res.notef("raw: closed loop %.1f req/s, %.4g GFLOP/s (median over %v slices), latency p50=%.3f %s=%.3f ms; setup %.4g s",
			rps, flopsPerSec/1e9, closedSlice, ls.P50, ls.tailLabel(), ls.Tail, median(setup))
		res.notef("lat_ms: closed loop, send to decoded response, successful requests; n=%d tail=%s", ls.N, ls.tailLabel())
		res.notef("open loop (raw): due time to decoded response p50=%.3f %s=%.3f ms n=%d; generator lateness p50=%.3f %s=%.3f ms n=%d",
			ol.P50, ol.tailLabel(), ol.Tail, ol.N, gs.P50, gs.tailLabel(), gs.Tail, gs.N)
		res.notef("timings are stated at the reference probe speed %g GFLOP/s: raw times x the phase's median probe rate over it, set-up %.4g, open loop %.4g, closed loop %.4g",
			probeRef, fs, fo, fc)
		m["gflops"] = metric{flopsPerSec / fc / 1e9, "GFLOP/s"}
		m["capacity_rps"] = metric{rps / fc, "1/s"}
		m["lat_ms_p50"] = metric{ls.P50 * fc, "ms"}
		m["lat_ms_tail"] = metric{ls.Tail * fc, "ms"}
		m["setup_s"] = metric{median(setup) * fs, "s"}
		return res, nil
	}

	// Plan-cache and workspace counters come from the served /metrics;
	// shutting down then waits for every handler, so every trace is filed.
	scraped, err := scrapeMetrics(srv.URL())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	snaps := serveLayers(m, res, srvs, setupOuts, open, closed)
	hits, misses := scraped["abmm_plan_cache_hits_total"], scraped["abmm_plan_cache_misses_total"]
	m["core.plan_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["pool.high_water_mb"] = metric{scraped["abmm_plan_cache_arena_bytes"] / (1 << 20), "MiB"}
	runtimeMetrics(m, rt0, rt1, len(open)+len(closed))
	m["runtime.rss_peak_mb"] = metric{memPeak, "MiB"}
	m["kernel.l0_gflops"] = metric{serveL0GFLOPS(inputs, workers), "GFLOP/s"}
	m["check.nonfinite_mismatch"] = metric{0, "count"}
	m["check.err_vs_bound_max"] = metric{res.errRatio, "ratio"}
	return res, writeJSONLines(c.spans, snaps)
}

// traceIndex maps trace IDs to the filed traces of every server.
func traceIndex(srvs []*server.Server) map[reqtrace.ID]reqtrace.Snapshot {
	idx := make(map[reqtrace.ID]reqtrace.Snapshot)
	for _, s := range srvs {
		for _, t := range s.Traces().Traces(reqtrace.BucketRecent) {
			idx[t.ID()] = t.Snapshot()
		}
	}
	return idx
}

// spanDur returns the duration in ns of the first span named name, and
// its index (-1 when absent).
func spanDur(s reqtrace.Snapshot, name string) (float64, int) {
	for i, sp := range s.Spans {
		if sp.Name == name {
			return float64(sp.EndNs - sp.StartNs), i
		}
	}
	return 0, -1
}

// serveLayers computes the per-layer metrics of the traced serve run
// from the server's own spans of each traced request, and returns those
// traces for writing out.
func serveLayers(m map[string]metric, res *result, srvs []*server.Server, setupOuts [][]outcome, open, closed []outcome) []reqtrace.Snapshot {
	idx := traceIndex(srvs)

	// Plan compile: the plan-resolve span of each server's first request
	// per size, averaged per server; the median over servers.
	var compile []float64
	for _, outs := range setupOuts {
		var sum float64
		for _, o := range outs {
			d, _ := spanDur(idx[o.id], "plan-resolve")
			sum += d
		}
		compile = append(compile, sum/float64(len(outs))/1e6)
	}
	m["core.plan_compile_ms"] = metric{median(compile), "ms"}

	var dec, resolve, enc, outside, queue, exec, late, lat []float64
	var ops []opBreakdown
	var leafFlops, kernelNs, packed, arenaReq, arenaReused float64
	missing := 0
	for _, o := range open {
		late = append(late, float64(o.late)/1e6)
		if !o.ok {
			continue
		}
		lat = append(lat, float64(o.latency)/1e6)
		queue = append(queue, float64(o.queueNs)/1e6)
		exec = append(exec, float64(o.execNs)/1e6)
		s, found := idx[o.id]
		if !found {
			missing++
			continue
		}
		d, _ := spanDur(s, "decode")
		r, _ := spanDur(s, "plan-resolve")
		e, _ := spanDur(s, "encode")
		dec, resolve, enc = append(dec, d/1e6), append(resolve, r/1e6), append(enc, e/1e6)
		var server float64
		for _, sp := range s.Spans {
			if sp.Parent < 0 {
				server += float64(sp.EndNs - sp.StartNs)
			}
		}
		outside = append(outside, (float64(o.rtt)-server)/1e6)
		x, xi := spanDur(s, "exec")
		b := opBreakdown{Dur: x, Pack: float64(s.Engine.PackNs), Kernel: float64(s.Engine.KernelNs)}
		for _, sp := range s.Spans {
			if p, ok := pipelinePhase(sp.Name); ok && int(sp.Parent) == xi {
				b.Phase[p] += float64(sp.EndNs - sp.StartNs)
			}
		}
		// The engine reports pack and kernel as totals, not spans; they
		// run inside the bilinear phase.
		b.Phase[obs.PhaseBilinear] -= b.Pack + b.Kernel
		ops = append(ops, b)
		leafFlops += o.flops
		kernelNs += b.Pack + b.Kernel
		packed += 8 * packedFloats(o.n, o.n, o.n)
		arenaReq += float64(s.Engine.ArenaRequestedBytes)
		arenaReused += float64(s.Engine.ArenaReusedBytes)
	}
	layerShares(ops, m)
	m["kernel.gflops"] = metric{ratio(leafFlops, kernelNs), "GFLOP/s"}
	m["kernel.packed_mb_per_op"] = metric{ratio(packed, float64(len(ops))) / (1 << 20), "MiB"}
	m["server.decode_ms_p50"] = metric{summarize(dec).P50, "ms"}
	m["server.resolve_ms_p50"] = metric{summarize(resolve).P50, "ms"}
	m["server.encode_ms_p50"] = metric{summarize(enc).P50, "ms"}
	m["server.outside_ms_p50"] = metric{summarize(outside).P50, "ms"}
	q := summarize(queue)
	m["server.queue_ms_tail"] = metric{q.Tail, "ms"}
	x := summarize(exec)
	m["server.exec_ms_p50"] = metric{x.P50, "ms"}
	m["core.op_ms_p50"] = metric{x.P50, "ms"}
	m["core.op_ms_tail"] = metric{x.Tail, "ms"}
	g := summarize(late)
	m["gen.late_ms_tail"] = metric{g.Tail, "ms"}
	ol := summarize(lat)
	m["server.open_lat_ms_p50"] = metric{ol.P50, "ms"}
	m["server.open_lat_ms_tail"] = metric{ol.Tail, "ms"}

	var all, rejected, okN, coalesced float64
	var tracedLat, plainLat []float64
	for _, outs := range [][]outcome{open, closed} {
		for _, o := range outs {
			all++
			if o.rejected {
				rejected++
			}
			if o.ok {
				okN++
				if o.coalesced {
					coalesced++
				}
			}
		}
	}
	for _, o := range closed {
		if !o.ok {
			continue
		}
		if o.traced {
			tracedLat = append(tracedLat, float64(o.rtt))
		} else {
			plainLat = append(plainLat, float64(o.rtt))
		}
	}
	m["server.rejected"] = metric{ratio(rejected, all), "ratio"}
	m["server.coalesced_share"] = metric{ratio(coalesced, okN), "ratio"}
	m["trace.overhead_pct"] = metric{100 * (ratio(mean(tracedLat), mean(plainLat)) - 1), "%"}
	res.notef("open-loop traced requests=%d, traces not found=%d; latency from due time %s n=%d; queue %s n=%d; exec/op %s n=%d; gen.late %s n=%d",
		len(open), missing, ol.tailLabel(), ol.N, q.tailLabel(), q.N, x.tailLabel(), x.N, g.tailLabel(), g.N)
	res.notef("trace.overhead_pct: closed loop, mean latency of requests with a traceparent vs without")
	res.notef("pool.reuse_ratio: level-0 plans report no arena traffic, so it reads 0")
	res.notef("kernel.packed_mb_per_op is computed from the request shapes and the default blocking")
	m["pool.reuse_ratio"] = metric{ratio(arenaReused, arenaReq), "ratio"}
	snaps := make([]reqtrace.Snapshot, 0, len(idx))
	for _, s := range idx {
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Start.Before(snaps[j].Start) })
	return snaps
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// scrapeMetrics reads the unlabelled samples of the server's /metrics.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serveL0GFLOPS times kernel.Mul alone on one input pair of each size.
func serveL0GFLOPS(inputs [][]*serveInput, workers int) float64 {
	var flops, secs float64
	for si, n := range serveSizes {
		req, err := server.DecodeRequest(bytes.NewReader(inputs[si][0].frame), maxElems)
		if err != nil {
			continue
		}
		dst := abmm.NewMatrix(n, n)
		kernel.Mul(dst, req.A, req.B, kernel.DefaultBlocking(), workers, pool.Global, nil)
		reps := max(2, int(2e8/inputs[si][0].flops()))
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			kernel.Mul(dst, req.A, req.B, kernel.DefaultBlocking(), workers, pool.Global, nil)
		}
		secs += time.Since(t0).Seconds()
		flops += float64(reps) * inputs[si][0].flops()
	}
	return ratio(flops, secs) / 1e9
}
