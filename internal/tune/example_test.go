package tune_test

import (
	"fmt"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/tune"
)

// ExampleTuner shows the serving-side flow: install a profile (as
// `abmmd -tune-profile` does at boot), attach the tuner to a
// multiplier, and let the plan-cache miss pick up the tuned
// configuration — visible in the plan identity's "/tuned" marker.
func ExampleTuner() {
	tn := tune.New(tune.Config{}) // zero config: profile-only, no online measurement
	tn.Install(&tune.Profile{Schema: tune.Schema, Cells: []tune.Entry{
		{M: 64, K: 64, N: 64, Alg: "strassen", Levels: 1},
	}})

	mu := core.New(algos.Ours(), core.Options{Levels: core.AutoLevels, Workers: 1, Tuner: tn})
	fmt.Println("tuned shape:  ", mu.Plan(64, 64, 64).Desc())
	fmt.Println("unseen shape: ", mu.Plan(32, 32, 32).Desc())
	// Output:
	// tuned shape:   strassen/L1/seq/tuned
	// unseen shape:  ours/L0/seq
}

// Example_profileRoundTrip shows the on-disk format: canonical JSON
// (sorted cells, two-space indent) that re-encodes byte-identically
// after a decode, so saved profiles diff cleanly.
func Example_profileRoundTrip() {
	p := &tune.Profile{Schema: tune.Schema, Cells: []tune.Entry{
		{M: 1536, K: 512, N: 1536, Alg: "ours", Levels: 2,
			NsPerOp: 90_000_000, GFLOPS: 26.8, DefaultPlan: "ours/L0/seq", DefaultNsPerOp: 110_000_000, BoundFactor: 3.1e6},
	}}
	data, _ := p.Encode()
	q, _ := tune.Decode(data)
	again, _ := q.Encode()
	fmt.Println("byte-stable:", string(data) == string(again))
	fmt.Print(string(data))
	// Output:
	// byte-stable: true
	// {
	//   "schema": 2,
	//   "cells": [
	//     {
	//       "m": 1536,
	//       "k": 512,
	//       "n": 1536,
	//       "alg": "ours",
	//       "levels": 2,
	//       "ns_per_op": 90000000,
	//       "classical_gflops": 26.8,
	//       "default_plan": "ours/L0/seq",
	//       "default_ns_per_op": 110000000,
	//       "bound_factor": 3100000
	//     }
	//   ]
	// }
}
