package server

// End-to-end wiring of the autotuner through the serving layer: a
// Config.Tuner decision must be visible in the X-Abmm-Plan header, the
// /debug/plans inspector, and the abmm_tune_* metric family — the
// surfaces an operator uses to confirm a profile actually took effect.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abmm"
	"abmm/internal/obs"
	"abmm/internal/tune"
)

func TestTunedPlanHeaderDebugPlansAndMetrics(t *testing.T) {
	tn := tune.New(tune.Config{})
	tn.Install(&tune.Profile{Schema: tune.Schema, Cells: []tune.Entry{
		{M: 16, K: 16, N: 16, Alg: "strassen", Levels: 1},
	}})
	s := newTestServer(t, Config{Workers: 1, Tuner: tn})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Automatic levels: the plan-cache miss consults the tuner, which
	// swaps in the profiled strassen/L1 for the requested "ours".
	_, body := binaryBody(t, "ours", abmm.AutoLevels, 16, 16, 16)
	resp, err := postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Abmm-Plan"); got != "strassen/L1/seq/tuned" {
		t.Errorf("X-Abmm-Plan = %q, want strassen/L1/seq/tuned", got)
	}

	// Explicit levels bypass the tuner entirely.
	_, body = binaryBody(t, "ours", 1, 16, 16, 16)
	resp, err = postMultiply(ts, body, ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Abmm-Plan"); got != "ours/L1/seq" {
		t.Errorf("explicit-levels X-Abmm-Plan = %q, want ours/L1/seq (untuned)", got)
	}

	// /debug/plans reports the tuned flag per plan.
	presp, err := ts.Client().Get(ts.URL + "/debug/plans?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var page obs.PlansPage
	if err := json.NewDecoder(presp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	tuned := map[string]bool{}
	for _, ps := range page.Plans {
		tuned[ps.Plan] = ps.Tuned
	}
	if !tuned["strassen/L1/seq/tuned"] || tuned["ours/L1/seq"] {
		t.Errorf("/debug/plans tuned flags = %v", tuned)
	}

	// /metrics carries the abmm_tune_* family.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"abmm_tune_profile_loaded 1",
		"abmm_tune_profile_entries 1",
		`abmm_tune_decisions_total{source="profile"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsWithoutTuner pins that a tuner-less server omits the
// abmm_tune_* family instead of reporting misleading zeros.
func TestMetricsWithoutTuner(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), "abmm_tune_") {
		t.Error("/metrics reports tuner metrics without a tuner configured")
	}
}
