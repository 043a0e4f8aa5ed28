package experiments

import (
	"context"
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
)

// Batched experiment executors: several requests that differ ONLY in their
// Monte-Carlo seed run as one fused trial grid — members × trials units
// through a single parallelEach — so a batch occupies the worker budget as
// one wave instead of queueing member-by-member, and each mapped model
// evaluates its test set through the image-batched matrix–matrix path
// (workload.AccuracyBatch). Per-trial RNG streams are keyed by (seed,
// trial) alone in every sampling regime (counter substreams under v3,
// additive seed derivation under v1/v2 — see trialRNG), so the fusion
// cannot change any draw: each member's result is byte-identical to
// running it alone. The single-seed entry points delegate here with a
// one-member batch.

// AnalogMLPAccuracyBatch runs the §VI-B accuracy study for every seed in
// one fused grid at shared (trials, epsPS, sampler). Results are returned
// in seed order, each byte-identical to AnalogMLPAccuracy at that seed.
func AnalogMLPAccuracyBatch(ctx context.Context, seeds []uint64, trials int, epsPS float64, sampler stats.SamplerVersion) ([]*AccuracyResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: empty seed batch")
	}
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials must be >= 1, got %d", trials)
	}
	sampler = sampler.Resolve()
	// Train (or fetch) each member's classifier first — memoized per seed,
	// shared across members and with the sweep experiments.
	tms := make([]*trainedMLP, len(seeds))
	err := parallelEach(ctx, len(seeds), func(m int) error {
		tm, err := accuracyMLP(seeds[m])
		if err != nil {
			return err
		}
		tms[m] = tm
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One wave over the full members × trials grid. Unit (m, t) is exactly
	// the unit AnalogMLPAccuracy(seeds[m], ...) runs for trial t: the same
	// trial-keyed RNG, the same mapping options, the same test set.
	accs := make([]float64, len(seeds)*trials)
	err = parallelEach(ctx, len(accs), func(i int) error {
		m, trial := i/trials, i%trials
		seed := seeds[m]
		noise := analog.DefaultNoiseRNG(trialRNG(seed, trial, seed+uint64(trial)*7919, sampler))
		noise.XSubBufSigma = epsPS
		a, err := tms[m].q.MapAnalog(core.Options{
			Noise:         noise,
			InterfaceBits: 24,
			InputHops:     params.MaxCascadedXSubBufs, // worst-case cascade (§V)
		})
		if err != nil {
			return err
		}
		acc, err := a.AccuracyBatch(tms[m].test)
		if err != nil {
			return err
		}
		accs[i] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*AccuracyResult, len(seeds))
	for m := range seeds {
		tm := tms[m]
		res := &AccuracyResult{
			FloatAcc:       tm.floatAcc,
			IntAcc:         tm.intAcc,
			CascadeErrorPS: analog.CascadeErrorBound(params.MaxCascadedXSubBufs, epsPS),
			MarginPS:       params.TDelMargin,
			Trials:         trials,
			Sampler:        sampler,
		}
		member := accs[m*trials : (m+1)*trials]
		sum := 0.0
		for _, acc := range member {
			sum += acc
		}
		res.AnalogAcc = sum / float64(trials)
		res.Loss = res.IntAcc - res.AnalogAcc
		var pcts [3]float64
		stats.PercentilesInto(member, []float64{10, 50, 90}, pcts[:])
		res.AccP10, res.AccP50, res.AccP90 = pcts[0], pcts[1], pcts[2]
		out[m] = res
	}
	return out, nil
}

// AnalogCNNAccuracyBatch runs the defect study for every seed in one
// fused grid at shared (trials, faultRate, sampler). Results are returned
// in seed order, each byte-identical to AnalogCNNAccuracy at that seed.
func AnalogCNNAccuracyBatch(ctx context.Context, seeds []uint64, trials int, faultRate float64, sampler stats.SamplerVersion) ([]*DefectResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: empty seed batch")
	}
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials must be >= 1, got %d", trials)
	}
	sampler = sampler.Resolve()
	tcs := make([]*trainedCNN, len(seeds))
	err := parallelEach(ctx, len(seeds), func(m int) error {
		tc, err := defectCNN(seeds[m])
		if err != nil {
			return err
		}
		tcs[m] = tc
		return nil
	})
	if err != nil {
		return nil, err
	}
	type unit struct {
		acc    float64
		faults int
	}
	units := make([]unit, len(seeds)*trials)
	err = parallelEach(ctx, len(units), func(i int) error {
		m := i / trials
		acc, faults, err := defectTrial(tcs[m], seeds[m], i%trials, faultRate, sampler)
		units[i] = unit{acc: acc, faults: faults}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*DefectResult, len(seeds))
	for m := range seeds {
		tc := tcs[m]
		res := &DefectResult{IntAcc: tc.cnn.AccuracyInt(tc.test), Trials: trials, Sampler: sampler}
		sum, faults := 0.0, 0
		member := make([]float64, trials)
		for d := 0; d < trials; d++ {
			u := units[m*trials+d]
			sum += u.acc
			faults += u.faults
			member[d] = u.acc
		}
		res.AnalogAcc = sum / float64(trials)
		res.Faults = faults / trials
		var pcts [3]float64
		stats.PercentilesInto(member, []float64{10, 50, 90}, pcts[:])
		res.AccP10, res.AccP50, res.AccP90 = pcts[0], pcts[1], pcts[2]
		out[m] = res
	}
	return out, nil
}
