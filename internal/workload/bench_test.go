package workload

import (
	"testing"

	"repro/internal/stats"
)

// BenchmarkMLPTrain measures one training of the §VI-B accuracy-study
// classifier exactly as the suite builds it: a 16-48-4 MLP trained with
// noise injection for 30 epochs over 1920 Gaussian-cluster samples.
func BenchmarkMLPTrain(b *testing.B) {
	rng := stats.NewRNG(2020)
	train, _ := SyntheticClusters(rng, 2400, 16, 4, 0.30).Split(0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stats.NewRNG(uint64(i) + 1)
		m := NewMLP(r, 16, 48, 4)
		m.TrainWithNoise(train, r, 30, 0.05, 0.02)
	}
}

// BenchmarkCNNTrain measures one training of the defect-study CNN exactly
// as the suite builds it: feature-shift calibration and feature extraction
// over 480 12×12 images, then 25 epochs of the 288-32-4 head and its
// quantisation.
func BenchmarkCNNTrain(b *testing.B) {
	rng := stats.NewRNG(5)
	train, _ := SyntheticImages(rng, 600, 12, 4, 0.05).Split(0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stats.NewRNG(uint64(i) + 1)
		c := NewCNN(r, 8, 7)
		if _, err := c.Train(r, train, 32, 25, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
