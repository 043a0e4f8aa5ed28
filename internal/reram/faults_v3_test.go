package reram

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestInjectV3MatchesCount: the deferred-injection contract under the
// counter-based regime, at every sweep rate, both on a trial's main stream
// and on a slot substream (the form package core actually hands this
// function under v3). Unlike v1/v2, a v3 count does not consume the whole
// injection stream: it draws only the fault map — k = Binomial(n, rate),
// then SA0 = Binomial(k, ½) — which is the prefix the injection starts
// with, and skips the position draws that follow. So the contract is
// stated as (a) equal fault maps, backed by the cells of the injected
// array, and (b) Count consumes exactly those two binomial draws.
func TestInjectV3MatchesCount(t *testing.T) {
	const b = 128
	streams := map[string]func() *stats.RNG{
		"trial-main": func() *stats.RNG { return stats.NewTrialRNG(17, 4) },
		"slot-substream": func() *stats.RNG {
			return stats.NewTrialRNG(17, 4).Substream(1, 9)
		},
	}
	for name, mk := range streams {
		for _, rate := range append([]float64{0, 1}, sweepRates...) {
			live := mk()
			snap := live.Clone()
			prefix := live.Clone()
			counted, err := CountStuckFaults(b*b, rate, live)
			if err != nil {
				t.Fatal(err)
			}
			x := New(b, 4)
			injected, err := x.InjectStuckFaults(rate, snap)
			if err != nil {
				t.Fatal(err)
			}
			if counted != injected {
				t.Fatalf("%s rate %v: counted %+v but injected %+v", name, rate, counted, injected)
			}
			if sa0, sa1 := cellFaults(x); sa0 != injected.SA0 || sa1 != injected.SA1 {
				t.Fatalf("%s rate %v: fault map %+v disagrees with cells (%d/%d)", name, rate, injected, sa0, sa1)
			}
			k := prefix.Binomial(b*b, rate)
			prefix.Binomial(k, 0.5)
			if live.Uint64() != prefix.Uint64() {
				t.Fatalf("%s rate %v: count consumed more or less than the (k, SA0) prefix", name, rate)
			}
		}
	}
}

// cellFaults counts the faulted cells of x by polarity.
func cellFaults(x *Crossbar) (sa0, sa1 int) {
	for r := 0; r < x.B; r++ {
		for c := 0; c < x.B; c++ {
			if !x.IsFaulty(r, c) {
				continue
			}
			if x.Level(r, c) == 0 {
				sa0++
			} else {
				sa1++
			}
		}
	}
	return sa0, sa1
}

// TestInjectV3FaultLaw defends the v3 injection's law directly: over many
// independent slot substreams of a small crossbar, (a) fault positions are
// uniform over the cells, (b) the pooled SA0 share is ½, and (c) polarity
// is independent of position — each cell's SA0 count is Binomial(its
// fault count, ½). (c) is a chi-square with one degree of freedom per
// cell: Σ (SA0ᵢ − Fᵢ/2)² / (Fᵢ/4) over the per-cell SA0/SA1 pairs.
func TestInjectV3FaultLaw(t *testing.T) {
	const b, rate, reps = 16, 0.1, 2000
	const cells = b * b
	faults := make([]float64, cells)
	sa0 := make([]float64, cells)
	base := stats.NewTrialRNG(29, 3)
	for i := 0; i < reps; i++ {
		x := New(b, 4)
		if _, err := x.InjectStuckFaults(rate, base.Substream(1, uint32(i))); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cells; c++ {
			if x.IsFaulty(c/b, c%b) {
				faults[c]++
				if x.Level(c/b, c%b) == 0 {
					sa0[c]++
				}
			}
		}
	}
	var total, totalSA0 float64
	for c := range faults {
		total += faults[c]
		totalSA0 += sa0[c]
	}
	uniform := make([]float64, cells)
	for c := range uniform {
		uniform[c] = total / cells
	}
	if x2, crit := stats.ChiSquare(faults, uniform), chiSquareCrit(cells-1); x2 > crit {
		t.Errorf("fault positions: chi-square %.1f over %d cells exceeds %.1f", x2, cells, crit)
	}
	if x2 := stats.ChiSquare([]float64{totalSA0, total - totalSA0}, []float64{total / 2, total / 2}); x2 > 10.83 {
		t.Errorf("SA0 share %.4f: chi-square %.2f exceeds 10.83", totalSA0/total, x2)
	}
	obs := make([]float64, 0, 2*cells)
	exp := make([]float64, 0, 2*cells)
	for c := range faults {
		obs = append(obs, sa0[c], faults[c]-sa0[c])
		exp = append(exp, faults[c]/2, faults[c]/2)
	}
	if x2, crit := stats.ChiSquare(obs, exp), chiSquareCrit(cells); x2 > crit {
		t.Errorf("polarity vs position: chi-square %.1f over %d cells exceeds %.1f", x2, cells, crit)
	}
}

// chiSquareCrit is the Wilson–Hilferty approximation of the 0.999
// chi-square critical value at df degrees of freedom (accurate to well
// under 1% for the hundreds of degrees of freedom used here).
func chiSquareCrit(df int) float64 {
	const z = 3.0902 // standard-normal 0.999 quantile
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// interleavedSA0 is the interleaved-polarity reference injector: a
// binomial count, then one Floyd position draw followed by one fair
// polarity draw per fault. It returns the SA0 count.
func interleavedSA0(n int, rate float64, rng *stats.RNG) int {
	sa0 := 0
	rng.SampleK(n, rng.Binomial(n, rate), func(int) {
		if rng.Uint64() < 1<<63 {
			sa0++
		}
	})
	return sa0
}

// TestInjectV3SA0MatchesInterleaved: drawing (k, SA0) up front must not
// change the SA0-count distribution relative to the interleaved-polarity
// injector — two-sample KS over independent substreams of one 128×128
// crossbar at every sweep rate.
func TestInjectV3SA0MatchesInterleaved(t *testing.T) {
	const n, reps = 128 * 128, 1000
	base := stats.NewTrialRNG(31, 0)
	for ri, rate := range sweepRates {
		got := make([]float64, reps)
		ref := make([]float64, reps)
		for i := 0; i < reps; i++ {
			fm, err := CountStuckFaults(n, rate, base.Substream(uint32(2*ri+1), uint32(i)))
			if err != nil {
				t.Fatal(err)
			}
			got[i] = float64(fm.SA0)
			ref[i] = float64(interleavedSA0(n, rate, base.Substream(uint32(2*ri+2), uint32(i))))
		}
		if d, limit := stats.KSTwoSample(got, ref), stats.KSThreshold(0.001, reps, reps); d > limit {
			t.Errorf("rate %v: SA0-count KS %.4f exceeds %.4f", rate, d, limit)
		}
	}
}

// TestInjectV3RateZeroDrawsNothing: v3 shares v2's O(faults) boundary — a
// rate-0 injection consumes no deviates.
func TestInjectV3RateZeroDrawsNothing(t *testing.T) {
	r := stats.NewTrialRNG(5, 0)
	ref := r.Clone()
	x := New(64, 4)
	if _, err := x.InjectStuckFaults(0, r); err != nil {
		t.Fatal(err)
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("v3 rate-0 injection consumed deviates")
	}
}

// TestFaultCountsV3BinomialMoments: realised v3 fault counts across
// distinct substreams must match the Binomial(n, rate) mean and variance —
// the keyed streams are independent draws, not copies.
func TestFaultCountsV3BinomialMoments(t *testing.T) {
	const n, reps = 4096, 3000
	base := stats.NewTrialRNG(23, 0)
	for ri, rate := range sweepRates {
		counts := make([]float64, reps)
		for i := 0; i < reps; i++ {
			rng := base.Substream(uint32(ri+1), uint32(i))
			fm, err := CountStuckFaults(n, rate, rng)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = float64(fm.Total())
		}
		var sum, sq float64
		for _, c := range counts {
			sum += c
		}
		mean := sum / reps
		for _, c := range counts {
			d := c - mean
			sq += d * d
		}
		variance := sq / (reps - 1)
		wantMean := float64(n) * rate
		wantVar := float64(n) * rate * (1 - rate)
		// 5-sigma tolerance on the sample mean; 25% on the variance.
		if d := mean - wantMean; d*d > 25*wantVar/reps {
			t.Errorf("rate %v: substream fault-count mean %.1f, want %.1f", rate, mean, wantMean)
		}
		if variance < 0.75*wantVar || variance > 1.25*wantVar {
			t.Errorf("rate %v: substream fault-count variance %.1f, want ~%.1f", rate, variance, wantVar)
		}
	}
}
