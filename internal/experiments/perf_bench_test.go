package experiments

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/stats"
)

// samplerBenchRegimes are the sampling regimes every Monte-Carlo
// benchmark below runs under, so the bench output is a per-regime cost
// comparison (the CI bench-smoke step uploads it as an artifact).
var samplerBenchRegimes = []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}

// BenchmarkAccuracyTrial measures one Monte-Carlo trial of the §VI-B
// accuracy study under each sampling regime: mapping the memoized
// quantised classifier onto functional sub-chips and evaluating the
// held-out test split through the analog path at the design-point noise
// (the regime's Gaussian hot path — Box-Muller vs Ziggurat — dominates
// the delta). Training is memoized outside the timed loop.
func BenchmarkAccuracyTrial(b *testing.B) {
	tm, err := accuracyMLP(2020)
	if err != nil {
		b.Fatal(err)
	}
	for _, sampler := range samplerBenchRegimes {
		b.Run(fmt.Sprintf("sampler=%s", sampler), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := tm.q.MapAnalog(core.Options{
					Noise:         analog.DefaultNoiseSampler(2020+uint64(i)*7919, sampler),
					InterfaceBits: 24,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Accuracy(tm.test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDefectTrial measures one (rate, draw) unit of the stuck-at
// fault ablation exactly as DefectSweep executes it — the shared
// defectTrial unit: zero-sigma noise RNG (the defect study injects faults,
// not timing noise), fault maps drawn at mapping time from draw i's
// stream, deterministic batched evaluation — at the
// ablation's low-rate points under each sampling regime. The v1 regime
// spends one deviate per cell of the 16×12 crossbar grid (~12.6M per
// trial) regardless of rate; v2 spends one binomial draw per crossbar plus
// O(faults), collapsing the draw cost at low rates; the counter-based v3
// spends two binomial draws per crossbar and draws positions only on the
// crossbars the CNN computes on (it pays one Philox block per ~2 deviates
// instead of one splitmix round per deviate).
func BenchmarkDefectTrial(b *testing.B) {
	tc, err := defectCNN(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0.001, 0.01} {
		for _, sampler := range samplerBenchRegimes {
			b.Run(fmt.Sprintf("rate=%g/sampler=%s", rate, sampler), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := defectTrial(tc, 5, i, rate, sampler); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
