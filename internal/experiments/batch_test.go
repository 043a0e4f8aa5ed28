package experiments

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestBatchedAccuracyByteIdentity is the ISSUE 9 identity gate: a fused
// multi-seed batch must return, for every member, the exact result the
// single-seed entry point computes — under every sampling regime and at
// every worker count. Per-trial RNG streams are keyed by (seed, trial)
// alone, so the fusion cannot change a draw; this test pins that.
func TestBatchedAccuracyByteIdentity(t *testing.T) {
	samplers := []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}
	pars := []int{1, 2, 8}
	if testing.Short() {
		samplers = []stats.SamplerVersion{stats.SamplerV3}
		pars = []int{2}
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	// Two members so the fused grid actually interleaves seeds; the seeds
	// reuse the memoized trained models across regimes and par levels.
	seeds := []uint64{2020, 2021}
	const trials = 3
	for _, sampler := range samplers {
		for _, par := range pars {
			setInnerPar(par)
			batch, err := AnalogMLPAccuracyBatch(ctx, seeds, trials, 200, sampler)
			if err != nil {
				t.Fatal(err)
			}
			for m, seed := range seeds {
				single, err := AnalogMLPAccuracy(ctx, seed, trials, 200, sampler)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[m], single) {
					t.Errorf("MLP %v par=%d seed=%d: batched %+v != single %+v",
						sampler, par, seed, batch[m], single)
				}
			}
		}
	}
}

// TestAnalogMLPAccuracyBatchConcurrent: concurrent batches on one seed
// share the memoized classifier and must all return the identical result,
// with the float accuracy the float model gives when evaluated alone. The
// float model's forward pass writes per-instance scratch, so evaluating it
// per call (rather than once, when the classifier is memoized) races;
// under -race this test reports it, and without -race the corrupted
// accuracy shows up as a mismatch.
func TestAnalogMLPAccuracyBatchConcurrent(t *testing.T) {
	const seed, callers = 2020, 8
	ctx := context.Background()
	results := make([][]*AccuracyResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = AnalogMLPAccuracyBatch(ctx, []uint64{seed}, 1, 200, stats.SamplerV3)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
	tm, err := accuracyMLP(seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := tm.m.Accuracy(tm.test); results[0][0].FloatAcc != want {
		t.Fatalf("float accuracy %v, want %v", results[0][0].FloatAcc, want)
	}
	for g := 1; g < callers; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Errorf("caller %d: %+v != caller 0: %+v", g, results[g][0], results[0][0])
		}
	}
}

// TestBatchedDefectByteIdentity is the CNN half of the identity gate: the
// defect study's fused batch (which takes the deterministic cross-image
// ForwardBatch path) equals the single path member by member.
func TestBatchedDefectByteIdentity(t *testing.T) {
	samplers := []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}
	pars := []int{1, 2, 8}
	if testing.Short() {
		samplers = []stats.SamplerVersion{stats.SamplerV3}
		pars = []int{2}
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	seeds := []uint64{5, 6}
	const trials = 3
	for _, sampler := range samplers {
		for _, par := range pars {
			setInnerPar(par)
			batch, err := AnalogCNNAccuracyBatch(ctx, seeds, trials, 0.001, sampler)
			if err != nil {
				t.Fatal(err)
			}
			for m, seed := range seeds {
				single, err := AnalogCNNAccuracy(ctx, seed, trials, 0.001, sampler)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[m], single) {
					t.Errorf("CNN %v par=%d seed=%d: batched %+v != single %+v",
						sampler, par, seed, batch[m], single)
				}
			}
		}
	}
}
