package reram

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// benchCrossbar builds a fully programmed 256×256 crossbar with device
// variation, the worst case for the per-cell conductance path.
func benchCrossbar(b *testing.B, withVariation bool) (*Crossbar, []float64) {
	b.Helper()
	rng := stats.NewRNG(7)
	x := New(256, 4)
	for r := 0; r < x.B; r++ {
		for c := 0; c < x.B; c++ {
			if err := x.Program(r, c, uint8(rng.Intn(int(x.MaxLevel())+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	if withVariation {
		x.ApplyVariation(0.02, rng)
	}
	times := make([]float64, x.B)
	for i := range times {
		times[i] = float64(rng.Intn(256)) * 50
	}
	return x, times
}

// BenchmarkColumnDot measures one single-column analog dot product — the
// innermost kernel of the functional simulator.
func BenchmarkColumnDot(b *testing.B) {
	x, times := benchCrossbar(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.ColumnDot(times, i%x.B, 50)
	}
	_ = sink
}

// BenchmarkDotColumns measures the flat matrix–vector kernel computing all
// 256 column dots in one pass (amortised cost per column ≈ 1/256 of the
// reported figure).
func BenchmarkDotColumns(b *testing.B) {
	x, times := benchCrossbar(b, true)
	scaled := make([]float64, len(times))
	for i, t := range times {
		scaled[i] = t / 50
	}
	out := make([]float64, x.B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.DotColumns(scaled, 0, x.B, out)
	}
}

// BenchmarkDotColumnsBatch measures the blocked matrix–matrix kernel on a
// 64-vector batch (one batchBlock of the deterministic forward path).
func BenchmarkDotColumnsBatch(b *testing.B) {
	x, times := benchCrossbar(b, true)
	const nvec = 64
	rows := len(times)
	scaled := make([]float64, nvec*rows)
	for v := 0; v < nvec; v++ {
		for i, t := range times {
			scaled[v*rows+i] = t / 50
		}
	}
	out := make([]float64, nvec*x.B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.DotColumnsBatch(scaled, nvec, rows, rows, 0, x.B, out, x.B)
	}
}

// BenchmarkSubRangedDot measures a recombined two-nibble weight-column dot.
func BenchmarkSubRangedDot(b *testing.B) {
	x, times := benchCrossbar(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.SubRangedDot(times, (i%(x.B/2))*2, 8, 50)
	}
	_ = sink
}

// BenchmarkCountStuckFaults measures the per-crossbar fault-accounting
// cost on one 256×256 crossbar under each sampling regime, at a low, the
// knee and the highest sweep rate: v1 is O(cells) whatever the rate, v2 is
// O(faults) (it must replay the injection's position and polarity draws),
// and v3 is O(1) — two binomial draws.
func BenchmarkCountStuckFaults(b *testing.B) {
	const n = 256 * 256
	for _, rate := range []float64{0.001, 0.01, 0.3} {
		for _, sampler := range []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3} {
			b.Run(fmt.Sprintf("rate=%g/sampler=%s", rate, sampler), func(b *testing.B) {
				rng := stats.NewRNGSampler(1, sampler)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := CountStuckFaults(n, rate, rng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
