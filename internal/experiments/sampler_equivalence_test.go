package experiments

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// Each sampling regime re-pins the Monte-Carlo goldens: the v2 deviate
// streams differ from v1, and the counter-based v3 streams differ from
// both, so the defense across regimes is statistical, not byte-level.
// These tests run the actual studies under every regime at equal trial
// counts and require each pair of results to sit inside the pooled
// Monte-Carlo confidence interval.

// regimes under statistical comparison, in order.
var equivalenceRegimes = []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}

// pairwiseEquivalent checks every regime pair's mean accuracy against a
// tolerance of 5 pooled standard errors (spread bounds re-derived from the
// p10..p90 span, ≈2.56 sigma for a normal; 2 is used to stay safe) floored
// by the test set's accuracy granularity 1/granule.
func pairwiseEquivalent(t *testing.T, label string, means, p10, p90 map[stats.SamplerVersion]float64, trials int, granule float64) {
	t.Helper()
	for i, a := range equivalenceRegimes {
		for _, b := range equivalenceRegimes[i+1:] {
			sa := (p90[a] - p10[a]) / 2
			sb := (p90[b] - p10[b]) / 2
			se := math.Sqrt((sa*sa + sb*sb) / float64(trials))
			tol := 5*se + 1/granule
			if diff := math.Abs(means[a] - means[b]); diff > tol {
				t.Errorf("%s: %s accuracy %.4f vs %s %.4f differ by %.4f (> tol %.4f over %d trials)",
					label, a, means[a], b, means[b], diff, tol, trials)
			}
		}
	}
}

// defectTrialAccs computes the per-trial analog accuracy sequence of the
// stuck-at-fault study directly (defectTrial, the unit AnalogCNNAccuracy
// and DefectSweep run), so the equivalence check below can use the
// empirical per-trial variance:
// the defect-accuracy distribution at low rates has a heavy left tail —
// most fault maps are harmless, a few percent land a stuck-at-max cell on
// a hot conv weight and crater the result — which a p10..p90 spread bound
// cannot see.
func defectTrialAccs(t *testing.T, rate float64, v stats.SamplerVersion, trials int) []float64 {
	t.Helper()
	tc, err := defectCNN(5)
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]float64, trials)
	err = parallelEach(context.Background(), trials, func(d int) error {
		var err error
		accs[d], _, err = defectTrial(tc, 5, d, rate, v)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// meanVar returns the sample mean and (n-1)-denominator variance.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return mean, variance / float64(len(xs)-1)
}

// TestDefectAccuracyRegimesEquivalent runs the stuck-at-fault study at
// every nonzero sweep rate under all three regimes and checks each pair of
// mean analog accuracies agrees within a 5-standard-error Welch interval
// built from the empirical per-trial variances (floored by the 120-sample
// test split's accuracy granularity).
func TestDefectAccuracyRegimesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-regime defect study is Monte-Carlo heavy; skipped in -short")
	}
	ctx := context.Background()
	const trials = 48
	// An earlier Run at Par 1 leaves the shared inner pool serial; the
	// draws are keyed by index, so any pool size gives the same accuracies.
	setInnerPar(runtime.GOMAXPROCS(0))
	for _, rate := range []float64{0.001, 0.01, 0.05} {
		accs := map[stats.SamplerVersion][]float64{}
		for _, v := range equivalenceRegimes {
			accs[v] = defectTrialAccs(t, rate, v, trials)
		}
		for i, a := range equivalenceRegimes {
			for _, b := range equivalenceRegimes[i+1:] {
				ma, va := meanVar(accs[a])
				mb, vb := meanVar(accs[b])
				se := math.Sqrt((va + vb) / trials)
				tol := 5*se + 1.0/120
				if diff := math.Abs(ma - mb); diff > tol {
					t.Errorf("rate %v: %s accuracy %.4f vs %s %.4f differ by %.4f (> tol %.4f over %d trials)",
						rate, a, ma, b, mb, diff, tol, trials)
				}
			}
		}
		// The facade path must agree with the direct loop on plumbing: the
		// regime echoes, the integer reference is regime-independent, and the
		// realised fault counts track n·rate of the 12.58M-cell grid.
		var intAcc float64
		for i, v := range equivalenceRegimes {
			r, err := AnalogCNNAccuracy(ctx, 5, 8, rate, v)
			if err != nil {
				t.Fatal(err)
			}
			if r.Sampler != v {
				t.Fatalf("rate %v: result echoes sampler %s, want %s", rate, r.Sampler, v)
			}
			if i == 0 {
				intAcc = r.IntAcc
			} else if r.IntAcc != intAcc {
				t.Fatalf("rate %v: integer reference accuracy differs under %s (%v vs %v); "+
					"training must be regime-independent", rate, v, r.IntAcc, intAcc)
			}
			wantFaults := 192 * 65536 * rate
			sd := math.Sqrt(wantFaults * (1 - rate))
			if diff := math.Abs(float64(r.Faults) - wantFaults); diff > 6*sd/math.Sqrt(8)+1 {
				t.Errorf("rate %v sampler %s: mean faults %d, want ≈%.0f", rate, r.Sampler, r.Faults, wantFaults)
			}
		}
	}
}

// TestDefectRateZeroRegimeIdentical: at rate 0 no fault deviates are drawn
// under any regime and the defect datapath is deterministic, so all three
// regimes must agree exactly — the anchor tying the re-pinned goldens back
// to the legacy ones.
func TestDefectRateZeroRegimeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the defect CNN; skipped in -short")
	}
	ctx := context.Background()
	var ref *DefectResult
	for _, v := range equivalenceRegimes {
		r, err := AnalogCNNAccuracy(ctx, 5, 3, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if r.Faults != 0 {
			t.Fatalf("sampler %s: rate-0 study realised %d faults", v, r.Faults)
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.AnalogAcc != ref.AnalogAcc {
			t.Fatalf("rate-0 defect study differs across regimes: %s %+v vs %s %+v",
				equivalenceRegimes[0], ref, v, r)
		}
	}
}

// TestMLPAccuracyRegimesEquivalent runs the §VI-B noise study under all
// three regimes at equal trial counts: the Box-Muller, serial-Ziggurat and
// counter-based-Ziggurat Gaussians must land the analog accuracy within
// the Monte-Carlo confidence interval (same spread-derived tolerance as
// the defect test, floored by the 480-sample test split's granularity).
func TestMLPAccuracyRegimesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-regime accuracy study is Monte-Carlo heavy; skipped in -short")
	}
	ctx := context.Background()
	const trials = 24
	means := map[stats.SamplerVersion]float64{}
	p10 := map[stats.SamplerVersion]float64{}
	p90 := map[stats.SamplerVersion]float64{}
	var intAcc, floatAcc float64
	for i, v := range equivalenceRegimes {
		r, err := RunAccuracy(ctx, 2020, trials, v)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			intAcc, floatAcc = r.IntAcc, r.FloatAcc
		} else if r.IntAcc != intAcc || r.FloatAcc != floatAcc {
			t.Fatalf("reference accuracies differ under %s: %+v", v, r)
		}
		means[v], p10[v], p90[v] = r.AnalogAcc, r.AccP10, r.AccP90
	}
	pairwiseEquivalent(t, "design point", means, p10, p90, trials, 480)
}
