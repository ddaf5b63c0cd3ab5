package bilinear_test

// Tests for Engine.WithRecorder: the shallow rebind the serving layer
// uses to attach a per-request recorder to a cached plan's engine.

import (
	"sync/atomic"
	"testing"
	"time"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/pool"
)

// countRec counts recorder events; concurrency-safe like the interface
// demands.
type countRec struct {
	phases atomic.Int64
	muls   atomic.Int64
	tasks  atomic.Int64
	arenas atomic.Int64
}

func (r *countRec) PhaseDone(obs.Phase, time.Duration) { r.phases.Add(1) }
func (r *countRec) MulDone(obs.MulInfo, time.Duration) { r.muls.Add(1) }
func (r *countRec) TaskSpawn(bool)                     { r.tasks.Add(1) }
func (r *countRec) ArenaRelease(obs.ArenaUsage)        { r.arenas.Add(1) }

func TestEngineWithRecorder(t *testing.T) {
	alg := algos.Strassen()
	base := &countRec{}
	e := bilinear.NewEngine(specsOf(alg), bilinear.Options{Workers: 1, Recorder: base})

	if e.WithRecorder(base) != e {
		t.Fatal("WithRecorder with the current recorder should return the engine unchanged")
	}
	per := &countRec{}
	e2 := e.WithRecorder(per)
	if e2 == e {
		t.Fatal("WithRecorder with a new recorder should return a copy")
	}

	const n = 32
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(7), -1, 1)
	b.FillUniform(matrix.Rand(8), -1, 1)
	as := bilinear.ToRecursive(a, alg.Spec.M0, alg.Spec.K0, 1, 1)
	bs := bilinear.ToRecursive(b, alg.Spec.K0, alg.Spec.N0, 1, 1)

	run := func(eng *bilinear.Engine) *matrix.Matrix {
		cs := matrix.New(alg.Spec.DW()*(as.Rows/alg.Spec.DU()), bs.Cols)
		eng.ExecInto(cs, as, bs, pool.Global, nil)
		return cs
	}
	want := run(e)
	base0 := base.phases.Load()

	got := run(e2)
	if d := matrix.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("rebound engine computed a different product (diff %g)", d)
	}
	if per.phases.Load() == 0 {
		t.Fatal("per-request recorder saw no phase events")
	}
	if base.phases.Load() != base0 {
		t.Fatalf("original engine's recorder saw the rebound run (%d -> %d events)",
			base0, base.phases.Load())
	}
	// A nil engine stays nil (level-0 plans have no engine).
	var nilEng *bilinear.Engine
	if nilEng.WithRecorder(per) != nil {
		t.Fatal("nil engine should rebind to nil")
	}
}

// TestTaskFanOutRule pins when the engine fans products out as tasks:
// never at one worker (whatever the depth), never below two levels (the
// fused leaf is the whole recursion), and never when a level-2 node has
// fewer products than there are workers (strassen's 7 cannot busy 8 or
// 16, at any depth); otherwise always. Every spawn-or-inline
// decision of a fanned-out node reports one TaskSpawn event, so the
// event count tells the forms apart.
func TestTaskFanOutRule(t *testing.T) {
	alg := algos.Strassen()
	const n = 64
	a, b := matrix.New(n, n), matrix.New(n, n)
	a.FillUniform(matrix.Rand(7), -1, 1)
	b.FillUniform(matrix.Rand(8), -1, 1)
	for _, tc := range []struct {
		workers, levels int
		fansOut         bool
	}{
		{1, 3, false},
		{2, 1, false},
		{2, 2, true},
		{7, 2, true},
		{8, 2, false},
		{16, 2, false},
		{7, 3, true},
		{8, 3, false},
	} {
		rec := &countRec{}
		opt := bilinear.Options{Workers: tc.workers, Recorder: rec}
		if got := bilinear.NewEngine(specsOf(algos.Repeat(alg, tc.levels)...), opt).FansOut(); got != tc.fansOut {
			t.Errorf("workers=%d levels=%d: FansOut() = %t, want %t", tc.workers, tc.levels, got, tc.fansOut)
		}
		as := bilinear.ToRecursive(a, alg.Spec.M0, alg.Spec.K0, tc.levels, 1)
		bs := bilinear.ToRecursive(b, alg.Spec.K0, alg.Spec.N0, tc.levels, 1)
		bilinear.Exec(alg.Spec, as, bs, tc.levels, opt)
		if got := rec.tasks.Load(); (got > 0) != tc.fansOut {
			t.Errorf("workers=%d levels=%d: %d TaskSpawn events, want fan-out %t",
				tc.workers, tc.levels, got, tc.fansOut)
		}
	}
	// A per-level list reads the rank of its level-2 spec: classical
	// ⟨2,2,2⟩ (R=8) over strassen busies 8 workers, the reverse does not.
	c := algos.Classical(2, 2, 2)
	opt := bilinear.Options{Workers: 8}
	if !bilinear.NewEngine(specsOf(c, alg), opt).FansOut() || bilinear.NewEngine(specsOf(alg, c), opt).FansOut() {
		t.Error("fan-out of a two-level list should follow the rank of its top spec")
	}
}
