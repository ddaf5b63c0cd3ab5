package obs

// Per-plan attribution registry. The Collector aggregates globally —
// it can say *that* p99 regressed, not *which* compiled plan regressed
// — but plan choice (algorithm, levels, schedule, kernel blocking)
// varies sharply by shape, so a serving process needs the distribution
// keyed by plan identity: that is the measurement substrate a
// shape-aware autotuner selects against, and the view /debug/plans
// renders.
//
// The registry is bounded and eviction-aware: a slot is claimed once at
// plan-compile time (cold, under a mutex) and recorded into with plain
// atomics thereafter, so the warm MultiplyInto path keeps its
// 0 allocs/op guarantee with per-plan recording enabled. When the
// registry is full, plans whose slots were released (the plan cache
// evicted them) are reclaimed first — same-identity reclaims keep their
// history, new identities reset the slot — and when nothing is
// reclaimable the plan lands in the shared "other" overflow slot, which
// also bounds the /metrics label cardinality.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PlanID identifies one compiled plan across the process: operand
// shape, algorithm, recursion depth, engine schedule, and base-case
// kernel blocking. Two multipliers compiling the same identity share
// one slot (claims are refcounted).
type PlanID struct {
	Alg      string
	M, K, N  int
	Levels   int
	Schedule string
	Kernel   string
	// Tuned marks a plan whose configuration came from a tuner decision
	// (profile hit or online measurement; see internal/tune) rather than
	// from the caller's static options. It is part of the identity so a
	// tuned and an untuned compilation of the same tuple never share a
	// slot, and it renders as a "/tuned" suffix in Desc.
	Tuned bool
}

// Desc renders the plan identity without its shape —
// "alg/L<levels>/<schedule>", with a "/tuned" suffix when the
// configuration came from a tuner — the form the serving layer echoes
// in X-Abmm-Plan headers and uses as the `plan` metric label.
func (id PlanID) Desc() string {
	d := fmt.Sprintf("%s/L%d/%s", id.Alg, id.Levels, id.Schedule)
	if id.Tuned {
		d += "/tuned"
	}
	return d
}

// Shape renders the operand shape as "MxKxN".
func (id PlanID) Shape() string {
	return fmt.Sprintf("%dx%dx%d", id.M, id.K, id.N)
}

// PlanExemplar links one request trace to a plan's distribution: the
// trace ID (the two halves of a reqtrace 128-bit ID) and the request's
// execution time. /debug/plans renders it as a link into the
// /debug/requests span viewer.
type PlanExemplar struct {
	IDHi, IDLo uint64
	Ns         int64
}

// TraceID renders the exemplar's trace ID as 32 lowercase hex digits
// (the /debug/requests lookup key).
func (e PlanExemplar) TraceID() string {
	const digits = "0123456789abcdef"
	var b [32]byte
	hi, lo := e.IDHi, e.IDLo
	for i := 15; i >= 0; i-- {
		b[i] = digits[hi&0xf]
		b[16+i] = digits[lo&0xf]
		hi >>= 4
		lo >>= 4
	}
	return string(b[:])
}

// PlanSlot accumulates one plan's telemetry. All recording methods are
// lock-free atomics safe for concurrent use and tolerate a nil
// receiver, so execution code records unconditionally.
type PlanSlot struct {
	// Identity and per-execution flop constants; written only under the
	// registry mutex (claim/reclaim), read under it (snapshots).
	id             PlanID
	classicalFlops int64
	algFlops       int64
	refs           int  // live claims; 0 = reclaimable
	overflow       bool // the shared "other" slot

	execs   atomic.Int64
	nanos   atomic.Int64
	latency Histogram // per-execution wall time, ns

	arenaHW atomic.Int64 // high-water workspace bytes (max across executions)

	errSamples atomic.Int64
	errRatio   Histogram // measured/bound ratio, atto-scaled (see errAttos)

	// Exemplar traces: the slowest execution seen and the most recent
	// traced one. Updated only on traced request paths (which allocate
	// anyway), never from the warm loop.
	slowest atomic.Pointer[PlanExemplar]
	last    atomic.Pointer[PlanExemplar]
}

// Record reports one completed execution of the plan.
//
//abmm:hotpath
func (s *PlanSlot) Record(d time.Duration) {
	if s == nil {
		return
	}
	s.execs.Add(1)
	s.nanos.Add(int64(d))
	s.latency.Observe(int64(d))
}

// ArenaHighWater raises the plan's workspace high-water mark.
//
//abmm:hotpath
func (s *PlanSlot) ArenaHighWater(bytes int64) {
	if s == nil {
		return
	}
	atomicMax(&s.arenaHW, bytes)
}

// ErrorSample reports one sampled accuracy measurement for the plan
// (see core.Options.ErrorSampleEvery): the measured relative error and
// the plan's compiled Theorem III.8 bound, recorded as their ratio.
//
//abmm:coldpath
func (s *PlanSlot) ErrorSample(measured, bound float64) {
	if s == nil {
		return
	}
	s.errSamples.Add(1)
	if bound > 0 {
		s.errRatio.Observe(errAttos(measured / bound))
	}
}

// ExemplarTrace links a traced request to the plan: always retained as
// the most recent exemplar, and as the slowest when its execution time
// tops the current one. Allocates (two small structs at most); traced
// request paths allocate regardless.
//
//abmm:coldpath
func (s *PlanSlot) ExemplarTrace(idHi, idLo uint64, d time.Duration) {
	if s == nil || (idHi == 0 && idLo == 0) {
		return
	}
	e := &PlanExemplar{IDHi: idHi, IDLo: idLo, Ns: int64(d)}
	s.last.Store(e)
	for {
		cur := s.slowest.Load()
		if cur != nil && cur.Ns >= e.Ns {
			return
		}
		if s.slowest.CompareAndSwap(cur, e) {
			return
		}
	}
}

// reset clears the slot for a new identity (registry mutex held).
// In-flight recordings of the evicted plan may land in the fresh
// window; eviction is rare and the smudge is at most a fraction of one
// execution per counter.
func (s *PlanSlot) reset() {
	s.execs.Store(0)
	s.nanos.Store(0)
	s.latency.Reset()
	s.arenaHW.Store(0)
	s.errSamples.Store(0)
	s.errRatio.Reset()
	s.slowest.Store(nil)
	s.last.Store(nil)
}

// DefaultMaxPlans bounds a PlanRegistry when the size is left unset: 64
// identities before new plans fall into the "other" overflow slot,
// which also caps the per-plan /metrics label cardinality.
const DefaultMaxPlans = 64

// PlanRegistry is the bounded set of per-plan telemetry slots shared by
// every Multiplier of a process (attach via core.Options.Plans).
// Claiming and releasing are cold-path mutex operations (plan compile
// and plan-cache eviction); recording into a claimed slot is lock-free.
type PlanRegistry struct {
	mu    sync.Mutex
	max   int
	slots []*PlanSlot          //abmm:guards mu
	index map[PlanID]*PlanSlot //abmm:guards mu

	other      PlanSlot // overflow slot for plans beyond the bound
	overflowed atomic.Int64
}

// NewPlanRegistry returns a registry bounded to maxPlans identities
// (0 or negative selects DefaultMaxPlans).
func NewPlanRegistry(maxPlans int) *PlanRegistry {
	if maxPlans <= 0 {
		maxPlans = DefaultMaxPlans
	}
	r := &PlanRegistry{max: maxPlans, index: make(map[PlanID]*PlanSlot)}
	r.other.overflow = true
	r.other.id = PlanID{Alg: "other", Schedule: "other", Kernel: "other"}
	return r
}

// MaxPlans returns the registry's identity bound.
func (r *PlanRegistry) MaxPlans() int {
	if r == nil {
		return 0
	}
	return r.max
}

// Claim returns the slot for id, creating (or reclaiming a released
// slot) as needed; classicalFlops and algFlops are the plan's
// per-execution flop accountings, from which the inspector derives
// per-plan GFLOPS rates. When the registry is full and no slot is
// reclaimable, the shared overflow slot is returned. A nil registry
// returns nil (recording methods no-op).
func (r *PlanRegistry) Claim(id PlanID, classicalFlops, algFlops int64) *PlanSlot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.index[id]; ok {
		s.refs++
		return s
	}
	var s *PlanSlot
	if len(r.slots) < r.max {
		s = &PlanSlot{}
		r.slots = append(r.slots, s)
	} else {
		for _, cand := range r.slots {
			if cand.refs == 0 {
				s = cand
				delete(r.index, s.id)
				s.reset()
				break
			}
		}
	}
	if s == nil {
		r.overflowed.Add(1)
		return &r.other
	}
	s.id = id
	s.classicalFlops = classicalFlops
	s.algFlops = algFlops
	s.refs = 1
	r.index[id] = s
	return s
}

// Release drops one claim on a slot (plan-cache eviction). The slot
// keeps its history and identity until the registry needs to reclaim
// it for a new plan; re-claiming the same identity before that resumes
// the same slot. Releasing nil or the overflow slot is a no-op.
func (r *PlanRegistry) Release(s *PlanSlot) {
	if r == nil || s == nil || s.overflow {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.refs > 0 {
		s.refs--
	}
}

// Overflowed returns how many plan compilations landed in the shared
// overflow slot because the registry was full.
func (r *PlanRegistry) Overflowed() int64 {
	if r == nil {
		return 0
	}
	return r.overflowed.Load()
}

// PlanStats is one plan's aggregate in a PlansPage — the JSON shape
// served by /debug/plans, pinned by a golden test (extend it, don't
// rename fields).
type PlanStats struct {
	Plan   string `json:"plan"` // alg/L<levels>/<schedule>
	Shape  string `json:"shape"`
	Alg    string `json:"alg"`
	Levels int    `json:"levels"`
	// Schedule is the parallel form the plan's engine picked ("task"
	// when it fans products out as tasks, else "seq"); Kernel the
	// base-case blocking "mcxkcxnc".
	Schedule string `json:"schedule"`
	Kernel   string `json:"kernel"`
	// Tuned reports whether the plan's configuration came from a tuner
	// decision (see internal/tune).
	Tuned bool `json:"tuned"`
	// Live reports whether the plan is currently cached by some
	// Multiplier (false once evicted; the slot retains history until
	// reclaimed).
	Live bool `json:"live"`

	Execs   int64     `json:"execs"`
	Seconds float64   `json:"seconds"`
	Latency HistStats `json:"latency"` // seconds
	// ClassicalGFLOPS rates 2mkn against plan wall time;
	// EffectiveGFLOPS rates the algorithm's true operation count.
	ClassicalGFLOPS     float64 `json:"classical_gflops"`
	EffectiveGFLOPS     float64 `json:"effective_gflops"`
	ArenaHighWaterBytes int64   `json:"arena_high_water_bytes"`

	ErrorSamples int64     `json:"error_samples"`
	ErrorRatio   HistStats `json:"error_ratio"`

	// Exemplar traces: the slowest execution and the most recent traced
	// one, as /debug/requests trace IDs.
	SlowestTrace   string `json:"slowest_trace,omitempty"`
	SlowestTraceNs int64  `json:"slowest_trace_ns,omitempty"`
	LastTrace      string `json:"last_trace,omitempty"`
}

// PlansPage is the JSON document served by /debug/plans.
type PlansPage struct {
	MaxPlans int `json:"max_plans"`
	// Overflowed counts plan compilations that fell into the "other"
	// slot; Other summarizes that slot (present only once used).
	Overflowed int64       `json:"overflowed"`
	Plans      []PlanStats `json:"plans"`
	Other      *PlanStats  `json:"other,omitempty"`
}

// stats summarizes the slot (registry mutex held for identity fields;
// counters read atomically).
func (s *PlanSlot) stats() PlanStats {
	lat := s.latency.Snapshot()
	er := s.errRatio.Snapshot()
	ps := PlanStats{
		Plan:                s.id.Desc(),
		Shape:               s.id.Shape(),
		Alg:                 s.id.Alg,
		Levels:              s.id.Levels,
		Schedule:            s.id.Schedule,
		Kernel:              s.id.Kernel,
		Tuned:               s.id.Tuned,
		Live:                s.refs > 0 || s.overflow,
		Execs:               s.execs.Load(),
		Seconds:             float64(s.nanos.Load()) / 1e9,
		Latency:             lat.Stats(1e-9),
		ArenaHighWaterBytes: s.arenaHW.Load(),
		ErrorSamples:        s.errSamples.Load(),
		ErrorRatio:          er.Stats(1 / errAttoScale),
	}
	if nanos := s.nanos.Load(); nanos > 0 {
		ps.ClassicalGFLOPS = float64(s.classicalFlops*ps.Execs) / float64(nanos)
		ps.EffectiveGFLOPS = float64(s.algFlops*ps.Execs) / float64(nanos)
	}
	if e := s.slowest.Load(); e != nil {
		ps.SlowestTrace = e.TraceID()
		ps.SlowestTraceNs = e.Ns
	}
	if e := s.last.Load(); e != nil {
		ps.LastTrace = e.TraceID()
	}
	return ps
}

// Page exports the registry's current state: plans sorted by execution
// count (descending, plan/shape tie-break) plus the overflow slot when
// it has been used. A nil registry yields the empty page.
func (r *PlanRegistry) Page() PlansPage {
	if r == nil {
		return PlansPage{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := PlansPage{
		MaxPlans:   r.max,
		Overflowed: r.overflowed.Load(),
		Plans:      make([]PlanStats, 0, len(r.slots)),
	}
	for _, s := range r.slots {
		p.Plans = append(p.Plans, s.stats())
	}
	sort.Slice(p.Plans, func(i, j int) bool {
		if p.Plans[i].Execs != p.Plans[j].Execs {
			return p.Plans[i].Execs > p.Plans[j].Execs
		}
		if p.Plans[i].Plan != p.Plans[j].Plan {
			return p.Plans[i].Plan < p.Plans[j].Plan
		}
		return p.Plans[i].Shape < p.Plans[j].Shape
	})
	if p.Overflowed > 0 || r.other.execs.Load() > 0 {
		o := r.other.stats()
		o.Plan, o.Shape = "other", "other"
		p.Other = &o
	}
	return p
}
