package main

import (
	"slices"
	"testing"
	"time"
)

func TestPoissonScheduleReproducible(t *testing.T) {
	const rate, dur = 350.0, 4 * time.Second
	a := poissonSchedule(7, rate, dur)
	b := poissonSchedule(7, rate, dur)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, rate, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= dur {
		t.Fatal("schedule not ascending within [0, dur)")
	}
	// 1400 expected arrivals; a Poisson count stays within ±5σ ≈ ±190.
	if want := rate * dur.Seconds(); float64(len(a)) < want-190 || float64(len(a)) > want+190 {
		t.Fatalf("%d arrivals in %v at %g/s", len(a), dur, rate)
	}
}

func TestRequestMixEqualSharesReproducible(t *testing.T) {
	inputs := make([][]*serveInput, len(serveSizes))
	for si, n := range serveSizes {
		for p := 0; p < pairsPerSize; p++ {
			inputs[si] = append(inputs[si], &serveInput{n: n})
		}
	}
	mix := requestMix(inputs, 3, 300)
	if !slices.Equal(mix, requestMix(inputs, 3, 300)) {
		t.Fatal("same seed gave different mixes")
	}
	if slices.Equal(mix, requestMix(inputs, 4, 300)) {
		t.Fatal("different seeds gave the same mix")
	}
	count := map[int]int{}
	for _, in := range mix {
		count[in.n]++
	}
	for _, n := range serveSizes {
		if count[n] != 100 {
			t.Errorf("size %d drawn %d times of 300, want 100", n, count[n])
		}
	}
}

func TestPoisonedOnePerBlockReproducible(t *testing.T) {
	const every = 16
	var first []int
	for i := 0; i < 64*every; i++ {
		if poisoned(5, i, every) {
			first = append(first, i)
		}
	}
	if len(first) != 64 {
		t.Fatalf("%d poisoned ops in 64 blocks, want 64", len(first))
	}
	for b, i := range first {
		if i/every != b {
			t.Fatalf("poisoned op %d not in block %d", i, b)
		}
	}
	var again, other []int
	for i := 0; i < 64*every; i++ {
		if poisoned(5, i, every) {
			again = append(again, i)
		}
		if poisoned(6, i, every) {
			other = append(other, i)
		}
	}
	if !slices.Equal(first, again) || slices.Equal(first, other) {
		t.Fatal("poison positions not a function of the seed")
	}
	if poisoned(5, 3, 0) {
		t.Fatal("every=0 must poison nothing")
	}
}
