// Package workload provides the training substrate for the paper's accuracy
// study (§VI-B): synthetic classification datasets, a pure-Go SGD-trained
// MLP, and post-training quantisation onto TIMELY's 8-bit datapath. The
// paper measures ≤0.1 % inference-accuracy loss under injected circuit
// noise; since ImageNet is not available offline, the same methodology runs
// on synthetic Gaussian-cluster data — the claim under test (accuracy delta
// between ideal and noisy analog execution of the same quantised network) is
// dataset-agnostic (see DESIGN.md "substitutions").
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Dataset is a labelled set of real-valued feature vectors.
type Dataset struct {
	X       [][]float64
	Y       []int
	Dim     int
	Classes int
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.X) }

// SyntheticClusters draws n samples from `classes` Gaussian clusters with
// unit-box centres and the given intra-cluster spread. Features are shifted
// to be non-negative (post-ReLU-like), matching TIMELY's unsigned input
// encoding.
func SyntheticClusters(rng *stats.RNG, n, dim, classes int, spread float64) *Dataset {
	if n <= 0 || dim <= 0 || classes <= 1 {
		panic(fmt.Sprintf("workload: invalid dataset spec n=%d dim=%d classes=%d", n, dim, classes))
	}
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()
		}
	}
	d := &Dataset{Dim: dim, Classes: classes}
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		x := make([]float64, dim)
		for j := range x {
			v := centers[c][j] + rng.Gauss(0, spread)
			if v < 0 {
				v = 0
			}
			x[j] = v
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, c)
	}
	return d
}

// Split partitions the dataset into train/test at the given fraction.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	cut := int(float64(d.Len()) * trainFrac)
	train = &Dataset{X: d.X[:cut], Y: d.Y[:cut], Dim: d.Dim, Classes: d.Classes}
	test = &Dataset{X: d.X[cut:], Y: d.Y[cut:], Dim: d.Dim, Classes: d.Classes}
	return train, test
}

// MLP is a fully-connected ReLU network trained with SGD on softmax
// cross-entropy. Forward and SGD passes reuse per-instance scratch, so an
// MLP must be driven by one goroutine at a time.
type MLP struct {
	// Sizes holds layer widths, input first.
	Sizes []int
	// W[l][o][i] and B[l][o] are the trainable parameters.
	W [][][]float64
	B [][]float64

	// Scratch reused across forward/SGD passes: layer activations, the two
	// alternating gradient ladders, softmax probabilities and the
	// noise-perturbed input of TrainWithNoise.
	acts         [][]float64
	gradA, gradB []float64
	probs        []float64
	noisy        []float64
}

// NewMLP builds an MLP with He-style random initialisation.
func NewMLP(rng *stats.RNG, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("workload: MLP needs at least input and output sizes")
	}
	m := &MLP{Sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([][]float64, out)
		scale := math.Sqrt(2 / float64(in))
		for o := range w {
			w[o] = make([]float64, in)
			for i := range w[o] {
				w[o][i] = rng.Gauss(0, scale)
			}
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// forward returns all layer activations (post-ReLU except the last). The
// returned slices are instance scratch, overwritten by the next pass.
//
// Output units are computed four at a time: four independent accumulators
// share each pass over the input, which breaks the add-latency chain of a
// single running sum. Every unit's sum is still bias + Σ w·v in ascending
// input order, so each activation is bit-identical to a one-row loop.
func (m *MLP) forward(x []float64) [][]float64 {
	if m.acts == nil {
		m.acts = make([][]float64, len(m.Sizes))
		for l := 1; l < len(m.Sizes); l++ {
			m.acts[l] = make([]float64, m.Sizes[l])
		}
	}
	m.acts[0] = x
	cur := x
	for l, w := range m.W {
		next, b := m.acts[l+1], m.B[l]
		relu := l < len(m.W)-1
		o := 0
		for ; o+4 <= len(w); o += 4 {
			r0, r1, r2, r3 := w[o][:len(cur)], w[o+1][:len(cur)], w[o+2][:len(cur)], w[o+3][:len(cur)]
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			for i, v := range cur {
				s0 += r0[i] * v
				s1 += r1[i] * v
				s2 += r2[i] * v
				s3 += r3[i] * v
			}
			next[o], next[o+1], next[o+2], next[o+3] = reluIf(relu, s0), reluIf(relu, s1), reluIf(relu, s2), reluIf(relu, s3)
		}
		for ; o < len(w); o++ {
			row := w[o][:len(cur)]
			s := b[o]
			for i, v := range cur {
				s += row[i] * v
			}
			next[o] = reluIf(relu, s)
		}
		cur = next
	}
	return m.acts
}

// reluIf clamps a negative s to 0 when relu is set.
func reluIf(relu bool, s float64) float64 {
	if relu && s < 0 {
		return 0
	}
	return s
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x []float64) int {
	acts := m.forward(x)
	return argmaxF(acts[len(acts)-1])
}

// Accuracy returns the fraction of correctly classified samples.
func (m *MLP) Accuracy(d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	hit := 0
	for i, x := range d.X {
		if m.Predict(x) == d.Y[i] {
			hit++
		}
	}
	return float64(hit) / float64(d.Len())
}

// Train runs SGD for the given epochs and learning rate, returning the final
// average cross-entropy loss. Sample order reshuffles each epoch with rng.
func (m *MLP) Train(d *Dataset, rng *stats.RNG, epochs int, lr float64) float64 {
	if d.Len() == 0 {
		return 0
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		loss = 0
		for _, s := range idx {
			loss += m.step(d.X[s], d.Y[s], lr)
		}
		loss /= float64(d.Len())
	}
	return loss
}

// TrainWithNoise trains while injecting Gaussian perturbations into the
// forward activations, the noise-aware training the paper adopts from
// [53],[54],[57] to absorb analog errors.
func (m *MLP) TrainWithNoise(d *Dataset, rng *stats.RNG, epochs int, lr, actSigma float64) float64 {
	if actSigma == 0 {
		return m.Train(d, rng, epochs, lr)
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		loss = 0
		for _, s := range idx {
			if cap(m.noisy) < len(d.X[s]) {
				m.noisy = make([]float64, len(d.X[s]))
			}
			x := m.noisy[:len(d.X[s])]
			for j, v := range d.X[s] {
				x[j] = v * (1 + rng.Gauss(0, actSigma))
			}
			loss += m.step(x, d.Y[s], lr)
		}
		loss /= float64(d.Len())
	}
	return loss
}

// step performs one SGD update and returns the sample loss.
func (m *MLP) step(x []float64, y int, lr float64) float64 {
	loss, _ := m.backprop(x, y, lr, false)
	return loss
}

// stepWithInputGrad performs one SGD update and additionally returns the
// loss gradient with respect to the input vector (un-gated — upstream
// layers apply their own activation derivative), which lets convolutional
// front-ends backpropagate through the head. The returned slice is instance
// scratch, valid until the next pass.
func (m *MLP) stepWithInputGrad(x []float64, y int, lr float64) (float64, []float64) {
	return m.backprop(x, y, lr, true)
}

// backprop runs one forward pass and one SGD update. The layer-0 input
// gradient is accumulated only when wantInputGrad is set: plain MLP
// training discards it, and it costs a multiply-add per first-layer weight.
//
// Rows whose delta is exactly 0 (dead ReLU units, or an output whose
// softmax probability matched its target) are skipped. That is exact for a
// positive finite lr: g is never −0 (output deltas are probs − onehot with
// probs ≥ +0, hidden deltas are sums that start at +0 or are gated to +0),
// so the skipped bias update subtracts lr·g = +0, which leaves every value
// unchanged. The skipped weight update subtracts ±0, and ri − (−0) differs
// from ri only for ri = −0, which no weight ever is: initial weights are
// 0 + σ·z (IEEE addition turns −0 into +0 there) and an update ri − u
// yields −0 only from an ri that already is −0. The skipped gradient terms
// add ±0 to a sum that starts at +0 and so is never −0 either.
func (m *MLP) backprop(x []float64, y int, lr float64, wantInputGrad bool) (float64, []float64) {
	acts := m.forward(x)
	out := acts[len(acts)-1]
	probs := m.softmaxInto(out)
	loss := -math.Log(math.Max(probs[y], 1e-12))
	if m.gradA == nil {
		maxW := 0
		for _, s := range m.Sizes {
			if s > maxW {
				maxW = s
			}
		}
		m.gradA = make([]float64, maxW)
		m.gradB = make([]float64, maxW)
	}
	// Backprop: delta at output = probs - onehot. The delta/prev ladders
	// alternate between the two scratch buffers.
	delta, other := m.gradA[:len(out)], m.gradB
	copy(delta, probs)
	delta[y] -= 1
	var inputGrad []float64
	for l := len(m.W) - 1; l >= 0; l-- {
		in := acts[l]
		b := m.B[l]
		if l == 0 && !wantInputGrad {
			for o, row := range m.W[l] {
				g := delta[o]
				if g == 0 {
					continue
				}
				lg := lr * g
				b[o] -= lg
				row = row[:len(in)]
				for i, v := range in {
					row[i] -= lg * v
				}
			}
			break
		}
		prev := other[:len(in)]
		for i := range prev {
			prev[i] = 0
		}
		for o, row := range m.W[l] {
			g := delta[o]
			if g == 0 {
				continue
			}
			lg := lr * g
			b[o] -= lg
			row = row[:len(in)]
			for i, ri := range row {
				prev[i] += g * ri
				row[i] = ri - lg*in[i]
			}
		}
		if l > 0 {
			// ReLU derivative of the hidden activation.
			for i, v := range in {
				if v <= 0 {
					prev[i] = 0
				}
			}
			delta, other = prev, delta[:cap(delta)]
		} else {
			inputGrad = prev
		}
	}
	return loss, inputGrad
}

// softmaxInto computes softmax(xs) into the instance probability scratch.
func (m *MLP) softmaxInto(xs []float64) []float64 {
	mx := xs[0]
	for _, v := range xs[1:] {
		if v > mx {
			mx = v
		}
	}
	if cap(m.probs) < len(xs) {
		m.probs = make([]float64, len(xs))
	}
	out := m.probs[:len(xs)]
	s := 0.0
	for i, v := range xs {
		out[i] = math.Exp(v - mx)
		s += out[i]
	}
	for i := range out {
		out[i] /= s
	}
	return out
}

func argmaxF(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ErrUntrained is returned when quantising a degenerate model.
var ErrUntrained = errors.New("workload: model has no layers")
