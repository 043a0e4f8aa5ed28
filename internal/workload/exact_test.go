package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Bit-exactness of the training fast paths. refMLP is the straightforward
// forward/SGD loop the trainer started from — one output row at a time, the
// input gradient always accumulated, no zero-delta skipping, fresh slices
// every pass — kept here as the oracle the optimised MLP must reproduce
// bit for bit.

type refMLP struct {
	W [][][]float64
	B [][]float64
}

func newRefMLP(m *MLP) *refMLP {
	c := m.clone()
	return &refMLP{W: c.W, B: c.B}
}

func (r *refMLP) forward(x []float64) [][]float64 {
	acts := [][]float64{x}
	cur := x
	for l := range r.W {
		next := make([]float64, len(r.W[l]))
		for o, row := range r.W[l] {
			s := r.B[l][o]
			for i, v := range cur {
				s += row[i] * v
			}
			if l < len(r.W)-1 && s < 0 {
				s = 0
			}
			next[o] = s
		}
		acts = append(acts, next)
		cur = next
	}
	return acts
}

func (r *refMLP) step(x []float64, y int, lr float64) (float64, []float64) {
	acts := r.forward(x)
	out := acts[len(acts)-1]
	mx := out[0]
	for _, v := range out[1:] {
		if v > mx {
			mx = v
		}
	}
	probs := make([]float64, len(out))
	s := 0.0
	for i, v := range out {
		probs[i] = math.Exp(v - mx)
		s += probs[i]
	}
	for i := range probs {
		probs[i] /= s
	}
	loss := -math.Log(math.Max(probs[y], 1e-12))
	delta := append([]float64(nil), probs...)
	delta[y] -= 1
	for l := len(r.W) - 1; l >= 0; l-- {
		in := acts[l]
		prev := make([]float64, len(in))
		for o, row := range r.W[l] {
			g := delta[o]
			r.B[l][o] -= lr * g
			lg := lr * g
			for i, ri := range row {
				prev[i] += g * ri
				row[i] = ri - lg*in[i]
			}
		}
		if l > 0 {
			for i, v := range in {
				if v <= 0 {
					prev[i] = 0
				}
			}
		}
		delta = prev
	}
	return loss, delta
}

// train mirrors MLP.TrainWithNoise (and MLP.Train at sigma 0): the same
// shuffles and noise draws, in the same order.
func (r *refMLP) train(d *Dataset, rng *stats.RNG, epochs int, lr, sigma float64) float64 {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		loss = 0
		for _, s := range idx {
			x := d.X[s]
			if sigma != 0 {
				x = make([]float64, len(d.X[s]))
				for j, v := range d.X[s] {
					x[j] = v * (1 + rng.Gauss(0, sigma))
				}
			}
			l, _ := r.step(x, d.Y[s], lr)
			loss += l
		}
		loss /= float64(d.Len())
	}
	return loss
}

// requireSameParams compares every weight and bias bit pattern.
func requireSameParams(t *testing.T, m *MLP, r *refMLP) {
	t.Helper()
	for l := range m.W {
		for o := range m.W[l] {
			if a, b := math.Float64bits(m.B[l][o]), math.Float64bits(r.B[l][o]); a != b {
				t.Fatalf("B[%d][%d] = %x, oracle %x", l, o, a, b)
			}
			for i := range m.W[l][o] {
				if a, b := math.Float64bits(m.W[l][o][i]), math.Float64bits(r.W[l][o][i]); a != b {
					t.Fatalf("W[%d][%d][%d] = %x, oracle %x", l, o, i, a, b)
				}
			}
		}
	}
}

// exactShapes cover the classifier shapes the suite trains (16-48-4 in the
// accuracy study, 288-32-4 as the CNN head), output widths that are not a
// multiple of the four-row forward block, and a two-hidden-layer ladder.
var exactShapes = [][]int{{16, 48, 4}, {288, 32, 4}, {5, 7, 3}, {5, 7, 6, 3}, {9, 13, 5}}

func TestTrainBitExact(t *testing.T) {
	for _, sigma := range []float64{0, 0.02} {
		for _, sizes := range exactShapes {
			t.Run(fmt.Sprintf("sigma=%g/%v", sigma, sizes), func(t *testing.T) {
				rng := stats.NewRNG(7)
				ds := SyntheticClusters(rng, 120, sizes[0], sizes[len(sizes)-1], 0.3)
				m := NewMLP(rng, sizes...)
				ref := newRefMLP(m)
				r1, r2 := stats.NewRNG(11), stats.NewRNG(11)
				var got float64
				if sigma == 0 {
					got = m.Train(ds, r1, 6, 0.05)
				} else {
					got = m.TrainWithNoise(ds, r1, 6, 0.05, sigma)
				}
				want := ref.train(ds, r2, 6, 0.05, sigma)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("loss %v, oracle %v", got, want)
				}
				requireSameParams(t, m, ref)
			})
		}
	}
}

// TestStepWithInputGradBitExact drives the head update ConvNet.step uses on
// real pooled conv features and checks the returned input gradient too.
func TestStepWithInputGradBitExact(t *testing.T) {
	rng := stats.NewRNG(3)
	imgs := SyntheticImages(rng, 40, 12, 4, 0.05)
	n := NewConvNet(rng, 12, 8, 32, 4)
	ref := newRefMLP(n.Head)
	for k, img := range imgs.X {
		feat, _ := n.poolForward(n.convForward(normalize(img)))
		loss, grad := n.Head.stepWithInputGrad(feat, imgs.Y[k], 0.05)
		wantLoss, wantGrad := ref.step(feat, imgs.Y[k], 0.05)
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("image %d: loss %v, oracle %v", k, loss, wantLoss)
		}
		if len(grad) != len(wantGrad) {
			t.Fatalf("image %d: input grad length %d, oracle %d", k, len(grad), len(wantGrad))
		}
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(wantGrad[i]) {
				t.Fatalf("image %d: input grad[%d] = %v, oracle %v", k, i, grad[i], wantGrad[i])
			}
		}
		requireSameParams(t, n.Head, ref)
	}
}

// TestPooledRequantCommutes checks the CNN feature path (pool the raw conv
// map, then requantise) against the requantise-then-pool order, for the
// trained shift and for every shift around it.
func TestPooledRequantCommutes(t *testing.T) {
	rng := stats.NewRNG(9)
	ds := SyntheticImages(rng, 60, 12, 4, 0.05)
	c := NewCNN(rng, 8, 7)
	if _, err := c.Train(rng, ds, 16, 2, 0.05); err != nil {
		t.Fatal(err)
	}
	trained := c.FeatShift
	for sh := 0; sh <= trained+2; sh++ {
		c.FeatShift = sh
		for k, img := range ds.X {
			conv := tensor.Conv2D(img, c.Filters, nil, c.Stride, c.Pad)
			tensor.RequantizeShift(conv, sh, 255)
			want := featVec(tensor.MaxPool2D(conv, c.PoolK, c.PoolS))
			got := c.features(img)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shift %d image %d: feature %d = %v, requantise-then-pool %v", sh, k, i, got[i], want[i])
				}
			}
		}
	}
}
