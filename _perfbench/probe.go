package main

import (
	"sync"
	"time"
)

const (
	// probeN is the side of the probe's matrices: three of them fit in L1.
	probeN = 32
	// probeReps is how many products one probe runs per worker, about
	// 10 ms on an idle reference host.
	probeReps = 600
	// probeRef is the probe rate, in GFLOP/s, timings are stated at: a
	// round figure near the probe's rate on an idle 2-CPU reference
	// host, so there stated and raw figures agree.
	probeRef = 6.0
)

// probe measures how fast the host runs a fixed compute loop, on as
// many goroutines as the engine uses, between the units of a run's load.
// The loop is the benchmark's own small matrix product, independent of
// the repository's code, so a change to the program never moves it: its
// rate tracks only the CPU the host gives this process. On a shared
// host that swings by 2x within seconds; stating a run's timings at the
// reference speed (see factor) keeps runs comparable.
type probe struct {
	workers int
	reps    int
	bufs    [][]float64 // per worker: a, b, c back to back
	rates   []float64   // GFLOP/s of every sample taken
}

func newProbe(workers int) *probe {
	p := &probe{workers: workers, reps: probeReps}
	for w := 0; w < workers; w++ {
		buf := make([]float64, 3*probeN*probeN)
		for i := range buf[:2*probeN*probeN] {
			buf[i] = float64(i%7) - 3
		}
		p.bufs = append(p.bufs, buf)
	}
	return p
}

// sample runs the loop once on every worker and records its speed.
func (p *probe) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, buf := range p.bufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			a, b, c := buf[:probeN*probeN], buf[probeN*probeN:2*probeN*probeN], buf[2*probeN*probeN:]
			for r := 0; r < p.reps; r++ {
				probeMul(c, a, b)
			}
		}(buf)
	}
	wg.Wait()
	flops := float64(p.workers) * float64(p.reps) * 2 * probeN * probeN * probeN
	p.rates = append(p.rates, flops/float64(time.Since(t0)))
}

// factor is the run's median probe rate over probeRef. A time measured
// in the run times factor is that time at the reference speed; a rate
// divided by factor is that rate at the reference speed.
func (p *probe) factor() float64 { return p.factorOf(0, len(p.rates)) }

// factorOf is factor over the samples lo to hi-1 only.
func (p *probe) factorOf(lo, hi int) float64 { return median(p.rates[lo:hi]) / probeRef }

// count is the number of samples taken so far.
func (p *probe) count() int { return len(p.rates) }

// probeMul computes c = a·b for probeN×probeN row-major matrices in
// 4×4 register tiles: sixteen independent multiply-add chains keep the
// loop throughput-bound, like the packed kernel it stands beside.
func probeMul(c, a, b []float64) {
	const n = probeN
	for i := 0; i < n; i += 4 {
		for j := 0; j < n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			var c20, c21, c22, c23, c30, c31, c32, c33 float64
			for k := 0; k < n; k++ {
				b0, b1, b2, b3 := b[k*n+j], b[k*n+j+1], b[k*n+j+2], b[k*n+j+3]
				a0, a1, a2, a3 := a[i*n+k], a[(i+1)*n+k], a[(i+2)*n+k], a[(i+3)*n+k]
				c00, c01, c02, c03 = c00+a0*b0, c01+a0*b1, c02+a0*b2, c03+a0*b3
				c10, c11, c12, c13 = c10+a1*b0, c11+a1*b1, c12+a1*b2, c13+a1*b3
				c20, c21, c22, c23 = c20+a2*b0, c21+a2*b1, c22+a2*b2, c23+a2*b3
				c30, c31, c32, c33 = c30+a3*b0, c31+a3*b1, c32+a3*b2, c33+a3*b3
			}
			c[i*n+j], c[i*n+j+1], c[i*n+j+2], c[i*n+j+3] = c00, c01, c02, c03
			c[(i+1)*n+j], c[(i+1)*n+j+1], c[(i+1)*n+j+2], c[(i+1)*n+j+3] = c10, c11, c12, c13
			c[(i+2)*n+j], c[(i+2)*n+j+1], c[(i+2)*n+j+2], c[(i+2)*n+j+3] = c20, c21, c22, c23
			c[(i+3)*n+j], c[(i+3)*n+j+1], c[(i+3)*n+j+2], c[(i+3)*n+j+3] = c30, c31, c32, c33
		}
	}
}
