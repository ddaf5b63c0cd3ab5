package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"abmm/internal/obs"
)

// span is one timed interval of a traced run. Spans stay in memory and
// are written out when the run ends.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the run's spans; -1 for an op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder is the benchmark's own abmm.Recorder for the traced
// engine run. Each PhaseDone becomes a span that ends when it is
// reported and starts its duration earlier; its parent is the op span
// the benchmark opens around MultiplyInto. The kernel reports a call's
// pack and kernel time together when the call returns, so the pair is
// laid out back to back, pack first, and both nest under the pipeline
// phase that contains them. Events outside an op span are dropped.
type spanRecorder struct {
	origin time.Time

	mu          sync.Mutex
	spans       []span
	op          int // index of the open op span, -1 when none
	ops         int
	pendingPack time.Duration

	tasksSpawned, tasksInline int64
	arenaReleases             int64
	arenaRequested            int64
	arenaReused               int64
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{origin: time.Now(), op: -1}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.origin)) }

// beginOp opens the op span around one MultiplyInto call.
func (r *spanRecorder) beginOp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op = len(r.spans)
	r.spans = append(r.spans, span{Op: r.ops, Name: "op", Parent: -1, Start: r.now()})
}

// endOp closes the open op span and parents its pack and kernel spans
// to the pipeline phase whose interval holds their end.
func (r *spanRecorder) endOp() {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.op
	r.spans[op].End = end
	for i := op + 1; i < len(r.spans); i++ {
		s := &r.spans[i]
		if s.Name != "pack" && s.Name != "kernel" {
			continue
		}
		for j := op + 1; j < len(r.spans); j++ {
			p := r.spans[j]
			if _, ok := pipelinePhase(p.Name); ok && p.Start <= s.End && s.End <= p.End {
				s.Parent = j
				break
			}
		}
	}
	r.op = -1
	r.ops++
}

// pipelinePhase returns the pipeline phase a span name denotes; ok is
// false for ops and the nested pack and kernel spans.
func pipelinePhase(name string) (p obs.Phase, ok bool) {
	for p = 0; p < obs.NumPipelinePhases; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

func (r *spanRecorder) add(name string, start, end int64) {
	r.spans = append(r.spans, span{Op: r.ops, Name: name, Parent: r.op, Start: start, End: end})
}

// PhaseDone implements abmm.Recorder.
func (r *spanRecorder) PhaseDone(p obs.Phase, d time.Duration) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op < 0 {
		return
	}
	switch p {
	case obs.PhasePack:
		r.pendingPack += d
	case obs.PhaseKernel:
		k := end - int64(d)
		r.add("pack", k-int64(r.pendingPack), k)
		r.add("kernel", k, end)
		r.pendingPack = 0
	default:
		r.add(p.String(), end-int64(d), end)
	}
}

// MulDone implements abmm.Recorder; the op span already times the call.
func (r *spanRecorder) MulDone(obs.MulInfo, time.Duration) {}

// TaskSpawn implements abmm.Recorder.
func (r *spanRecorder) TaskSpawn(spawned bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op < 0 {
		return
	}
	if spawned {
		r.tasksSpawned++
	} else {
		r.tasksInline++
	}
}

// ArenaRelease implements abmm.Recorder.
func (r *spanRecorder) ArenaRelease(u obs.ArenaUsage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op < 0 {
		return
	}
	r.arenaReleases++
	r.arenaRequested += u.RequestedBytes
	r.arenaReused += u.ReusedBytes
}

// opBreakdown is one op's time split by layer, in nanoseconds. Phase
// holds each pipeline phase's self time (its span minus the pack and
// kernel spans inside it); what Dur has beyond the parts is time no
// span covers.
type opBreakdown struct {
	Dur          float64
	Phase        [obs.NumPipelinePhases]float64
	Pack, Kernel float64
}

// selfTime is a span's duration minus the part of its interval its
// children cover.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), parent.Start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return parent.dur() - covered
}

// breakdowns splits every op span of a traced run into its layers.
func breakdowns(spans []span) []opBreakdown {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []opBreakdown
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		b := opBreakdown{Dur: float64(s.dur())}
		for j, c := range spans {
			if c.Op != s.Op || j == i {
				continue
			}
			switch c.Name {
			case "pack":
				b.Pack += float64(c.dur())
			case "kernel":
				b.Kernel += float64(c.dur())
			}
			if p, ok := pipelinePhase(c.Name); ok && c.Parent == i {
				b.Phase[p] += float64(selfTime(c, children[j]))
			}
		}
		out = append(out, b)
	}
	return out
}

// layerShares turns op breakdowns into the per-layer shares of op time.
// The shares of the pipeline phases' self times, pack, kernel and the
// unattributed remainder sum to one.
func layerShares(ops []opBreakdown, m map[string]metric) {
	var tot opBreakdown
	for _, b := range ops {
		tot.Dur += b.Dur
		tot.Pack += b.Pack
		tot.Kernel += b.Kernel
		for p := range b.Phase {
			tot.Phase[p] += b.Phase[p]
		}
	}
	share := func(v float64) metric { return metric{ratio(v, tot.Dur), "ratio"} }
	other := tot.Dur - tot.Pack - tot.Kernel
	for _, v := range tot.Phase {
		other -= v
	}
	m["kernel.share"] = share(tot.Pack + tot.Kernel)
	m["kernel.pack_share"] = share(tot.Pack)
	m["basis.forward_share"] = share(tot.Phase[obs.PhaseForward])
	m["basis.inverse_share"] = share(tot.Phase[obs.PhaseInverse])
	m["bilinear.pad_share"] = share(tot.Phase[obs.PhasePad])
	m["bilinear.crop_share"] = share(tot.Phase[obs.PhaseCrop])
	m["bilinear.recursion_share"] = share(tot.Phase[obs.PhaseBilinear])
	m["core.unattributed_share"] = share(other)
}

// writeJSONLines writes one JSON document per element of docs to path,
// creating its directory.
func writeJSONLines[T any](path string, docs []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, d := range docs {
		if err := enc.Encode(d); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
