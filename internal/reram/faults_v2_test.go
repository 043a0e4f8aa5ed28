package reram

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// sweepRates are the defect ablation's stuck-at rates (the nonzero ones);
// the regime-equivalence tests below run at every point.
var sweepRates = []float64{0.001, 0.01, 0.05, 0.15, 0.30}

// TestInjectV2MatchesCount: under the v2 regime, CountStuckFaults must
// realise the same fault map and leave the generator in the same state as
// an actual injection from a clone — the deferred-injection contract.
func TestInjectV2MatchesCount(t *testing.T) {
	for _, rate := range append([]float64{0, 1}, sweepRates...) {
		live := stats.NewRNGSampler(17, stats.SamplerV2)
		snap := live.Clone()
		counted, err := CountStuckFaults(128*128, rate, live)
		if err != nil {
			t.Fatal(err)
		}
		x := New(128, 4)
		injected, err := x.InjectStuckFaults(rate, snap)
		if err != nil {
			t.Fatal(err)
		}
		if counted != injected {
			t.Fatalf("rate %v: counted %+v but injected %+v", rate, counted, injected)
		}
		if live.Uint64() != snap.Uint64() {
			t.Fatalf("rate %v: count and inject consumed different deviate streams", rate)
		}
		// The realised cells must agree with the map.
		if sa0, sa1 := cellFaults(x); sa0 != injected.SA0 || sa1 != injected.SA1 {
			t.Fatalf("rate %v: fault map %+v disagrees with cells (%d/%d)", rate, injected, sa0, sa1)
		}
	}
}

// TestInjectV2RateZeroDrawsNothing: a rate-0 injection under v2 must
// consume no deviates at all (the O(faults) claim at its boundary),
// whereas v1 consumes one per cell.
func TestInjectV2RateZeroDrawsNothing(t *testing.T) {
	r := stats.NewRNGSampler(5, stats.SamplerV2)
	ref := r.Clone()
	x := New(64, 4)
	if _, err := x.InjectStuckFaults(0, r); err != nil {
		t.Fatal(err)
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("v2 rate-0 injection consumed deviates")
	}
}

// TestInjectV1StreamUnchanged pins the legacy regime: the realised fault
// map of a v1 injection must be identical whether or not the v2 machinery
// exists, i.e. NewRNG generators keep taking the per-cell Bernoulli path.
func TestInjectV1StreamUnchanged(t *testing.T) {
	// Reference values captured from the pre-sampler-v2 implementation at
	// this exact (seed, size, rate); a change here means the v1 stream
	// broke and every legacy golden with it.
	x := New(128, 4)
	fm, err := x.InjectStuckFaults(0.1, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	want := FaultMap{SA0: 838, SA1: 806}
	if fm != want {
		t.Fatalf("v1 fault map at seed 3 = %+v; want %+v (legacy stream broken)", fm, want)
	}
}

// TestFaultCountsV2BinomialMoments: the realised v2 fault counts must
// match the Binomial(n, rate) mean and variance at every sweep rate.
func TestFaultCountsV2BinomialMoments(t *testing.T) {
	const n, reps = 4096, 3000
	rng := stats.NewRNGSampler(23, stats.SamplerV2)
	for _, rate := range sweepRates {
		counts := make([]float64, reps)
		for i := range counts {
			fm, err := CountStuckFaults(n, rate, rng)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = float64(fm.Total())
		}
		mean, sd := stats.Mean(counts), stats.StdDev(counts)
		wantMean := n * rate
		wantSD := math.Sqrt(n * rate * (1 - rate))
		if se := wantSD / math.Sqrt(reps); math.Abs(mean-wantMean) > 5*se {
			t.Errorf("rate %v: mean count %.2f, want %.2f (±%.2f)", rate, mean, wantMean, 5*se)
		}
		if math.Abs(sd-wantSD)/wantSD > 0.10 {
			t.Errorf("rate %v: count stddev %.2f, want %.2f", rate, sd, wantSD)
		}
	}
}

// TestFaultCountsV1VsV2KS: two-sample KS between the realised fault-count
// distributions of the two regimes at every sweep rate — the statistical
// heart of the golden re-pin: v2 draws different numbers, but from the
// same distribution.
func TestFaultCountsV1VsV2KS(t *testing.T) {
	if testing.Short() {
		t.Skip("v1 reference draws are O(cells); skipped in -short")
	}
	const n = 65536 // one 256x256 crossbar
	const reps = 400
	for _, rate := range sweepRates {
		v1 := stats.NewRNG(31)
		v2 := stats.NewRNGSampler(37, stats.SamplerV2)
		a := make([]float64, reps)
		b := make([]float64, reps)
		var sa0v1, sa0v2, totv1, totv2 float64
		for i := 0; i < reps; i++ {
			fm1, err := CountStuckFaults(n, rate, v1)
			if err != nil {
				t.Fatal(err)
			}
			fm2, err := CountStuckFaults(n, rate, v2)
			if err != nil {
				t.Fatal(err)
			}
			a[i] = float64(fm1.Total())
			b[i] = float64(fm2.Total())
			sa0v1 += float64(fm1.SA0)
			sa0v2 += float64(fm2.SA0)
			totv1 += float64(fm1.Total())
			totv2 += float64(fm2.Total())
		}
		if d, limit := stats.KSTwoSample(a, b), stats.KSThreshold(0.001, reps, reps); d > limit {
			t.Errorf("rate %v: fault-count KS %.4f exceeds %.4f", rate, d, limit)
		}
		// Polarity split: chi-square of the pooled SA0/SA1 halves against
		// the 50/50 model, per regime (1 df; 0.999 critical value 10.83).
		for _, s := range []struct {
			name     string
			sa0, tot float64
		}{{"v1", sa0v1, totv1}, {"v2", sa0v2, totv2}} {
			obs := []float64{s.sa0, s.tot - s.sa0}
			exp := []float64{s.tot / 2, s.tot / 2}
			if x2 := stats.ChiSquare(obs, exp); x2 > 10.83 {
				t.Errorf("rate %v: %s SA0/SA1 chi-square %.2f exceeds 10.83", rate, s.name, x2)
			}
		}
	}
}
