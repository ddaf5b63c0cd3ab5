package main

import (
	"math"
	"testing"
	"time"

	"abmm/internal/obs"
)

func TestLayerSharesAccountForOpTime(t *testing.T) {
	spans := []span{
		{Op: 0, Name: "op", Parent: -1, Start: 0, End: 100},
		{Op: 0, Name: "pad", Parent: 0, Start: 0, End: 10},
		{Op: 0, Name: "bilinear", Parent: 0, Start: 10, End: 90},
		{Op: 0, Name: "pack", Parent: 2, Start: 20, End: 30},
		{Op: 0, Name: "kernel", Parent: 2, Start: 30, End: 80},
		{Op: 0, Name: "crop", Parent: 0, Start: 90, End: 98},
	}
	m := map[string]metric{}
	layerShares(breakdowns(spans), m)
	want := map[string]float64{
		"bilinear.pad_share":       0.10,
		"bilinear.recursion_share": 0.20,
		"kernel.pack_share":        0.10,
		"kernel.share":             0.60,
		"bilinear.crop_share":      0.08,
		"basis.forward_share":      0,
		"core.unattributed_share":  0.02,
	}
	for name, w := range want {
		if got := m[name].Value; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
}

func TestRecorderNestsPackAndKernelUnderBilinear(t *testing.T) {
	r := newSpanRecorder()
	r.PhaseDone(obs.PhasePad, time.Millisecond) // outside an op: dropped
	r.beginOp()
	time.Sleep(2 * time.Millisecond)
	r.PhaseDone(obs.PhasePack, 200*time.Microsecond)
	r.PhaseDone(obs.PhaseKernel, 500*time.Microsecond)
	r.PhaseDone(obs.PhaseBilinear, 2*time.Millisecond)
	r.endOp()
	if len(r.spans) != 4 {
		t.Fatalf("got %d spans, want op, pack, kernel, bilinear: %+v", len(r.spans), r.spans)
	}
	pack, kernel := r.spans[1], r.spans[2]
	if pack.Name != "pack" || kernel.Name != "kernel" || pack.End != kernel.Start {
		t.Fatalf("pack and kernel not laid out back to back: %+v %+v", pack, kernel)
	}
	if pack.Parent != 3 || kernel.Parent != 3 || r.spans[3].Parent != 0 {
		t.Fatalf("wrong parents: %+v", r.spans)
	}
}
