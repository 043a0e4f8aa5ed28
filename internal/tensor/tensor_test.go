package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestConvOut(t *testing.T) {
	cases := []struct{ n, k, s, p, want int }{
		{224, 3, 1, 1, 224}, // VGG same-pad
		{224, 7, 2, 3, 112}, // ResNet stem
		{28, 5, 1, 0, 24},   // LeNet
		{4, 2, 1, 0, 3},     // paper Fig. 2 example
	}
	for _, c := range cases {
		if got := ConvOut(c.n, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", c.n, c.k, c.s, c.p, got, c.want)
		}
	}
}

// TestConv2DPaperExample reproduces Fig. 2 of the paper: a 4x4 input, two
// 2x2 filters, stride 1, producing 3x3x2 psums. We verify hand-computed
// entries for the first filter.
func TestConv2DPaperExample(t *testing.T) {
	in := NewInt(1, 4, 4)
	// a..p = 1..16
	for i := 0; i < 16; i++ {
		in.Data[i] = int32(i + 1)
	}
	w := NewFilter(2, 1, 2, 2)
	// filter1 = identity-ish [[1,0],[0,1]], filter2 = all ones
	w.Set(0, 0, 0, 0, 1)
	w.Set(0, 0, 1, 1, 1)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			w.Set(1, 0, i, j, 1)
		}
	}
	out := Conv2D(in, w, nil, 1, 0)
	if out.Shape != (Shape{2, 3, 3}) {
		t.Fatalf("out shape = %v, want 2x3x3", out.Shape)
	}
	// w (top-left output, filter1) = a + f = 1 + 6 = 7
	if got := out.At(0, 0, 0); got != 7 {
		t.Errorf("out[0][0][0] = %d, want 7", got)
	}
	// filter2 top-left = a+b+e+f = 1+2+5+6 = 14
	if got := out.At(1, 0, 0); got != 14 {
		t.Errorf("out[1][0][0] = %d, want 14", got)
	}
	// bottom-right, filter2 = k+l+o+p = 11+12+15+16 = 54
	if got := out.At(1, 2, 2); got != 54 {
		t.Errorf("out[1][2][2] = %d, want 54", got)
	}
}

func TestConv2DBiasAndPadding(t *testing.T) {
	in := NewInt(1, 2, 2)
	in.Fill(1)
	w := NewFilter(1, 1, 3, 3)
	for i := 0; i < 9; i++ {
		w.Data[i] = 1
	}
	out := Conv2D(in, w, []int32{10}, 1, 1)
	if out.Shape != (Shape{1, 2, 2}) {
		t.Fatalf("padded out shape = %v", out.Shape)
	}
	// centre of a 2x2 all-ones input under 3x3 all-ones kernel with pad 1:
	// each output sees all 4 inputs = 4, plus bias 10.
	if got := out.At(0, 0, 0); got != 14 {
		t.Errorf("padded conv = %d, want 14", got)
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("channel mismatch did not panic")
		}
	}()
	Conv2D(NewInt(2, 4, 4), NewFilter(1, 3, 2, 2), nil, 1, 0)
}

func TestFC(t *testing.T) {
	in := NewInt(1, 1, 3)
	copy(in.Data, []int32{1, 2, 3})
	w := [][]int32{{1, 1, 1}, {1, 0, -1}}
	out := FC(in, w, []int32{0, 100})
	if out[0] != 6 {
		t.Errorf("FC[0] = %d, want 6", out[0])
	}
	if out[1] != 98 {
		t.Errorf("FC[1] = %d, want 98", out[1])
	}
}

func TestMaxPool(t *testing.T) {
	in := NewInt(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = int32(i)
	}
	out := MaxPool2D(in, 2, 2)
	if out.Shape != (Shape{1, 2, 2}) {
		t.Fatalf("pool shape = %v", out.Shape)
	}
	want := []int32{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("pool[%d] = %d, want %d", i, out.Data[i], w)
		}
	}
}

func TestAvgPool(t *testing.T) {
	in := NewInt(1, 2, 2)
	copy(in.Data, []int32{1, 3, 5, 7})
	out := AvgPool2D(in, 2, 2)
	if out.Data[0] != 4 {
		t.Errorf("avg pool = %d, want 4", out.Data[0])
	}
}

func TestReLU(t *testing.T) {
	in := NewInt(1, 1, 4)
	copy(in.Data, []int32{-5, 0, 3, -1})
	ReLU(in)
	want := []int32{0, 0, 3, 0}
	for i, w := range want {
		if in.Data[i] != w {
			t.Errorf("ReLU[%d] = %d, want %d", i, in.Data[i], w)
		}
	}
}

func TestRequantizeShift(t *testing.T) {
	in := NewInt(1, 1, 3)
	copy(in.Data, []int32{1024, -8, 70000})
	RequantizeShift(in, 4, 255)
	want := []int32{64, 0, 255}
	for i, w := range want {
		if in.Data[i] != w {
			t.Errorf("requant[%d] = %d, want %d", i, in.Data[i], w)
		}
	}
}

// TestIm2ColMatchesConv verifies that the im2col unrolling reproduces the
// direct convolution when multiplied by flattened filters — the property the
// crossbar mapping relies on.
func TestIm2ColMatchesConv(t *testing.T) {
	rng := stats.NewRNG(11)
	in := NewInt(3, 6, 6)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(16))
	}
	w := NewFilter(4, 3, 3, 3)
	for i := range w.Data {
		w.Data[i] = int32(rng.Intn(16)) - 8
	}
	stride, pad := 1, 1
	ref := Conv2D(in, w, nil, stride, pad)
	rows, e, f := Im2ColDims(in, 3, 3, stride, pad)
	patches := make([]int32, rows*e*f)
	Im2ColInto(in, 3, 3, stride, pad, patches)
	if e != ref.Shape.H || f != ref.Shape.W {
		t.Fatalf("im2col dims %dx%d, conv dims %dx%d", e, f, ref.Shape.H, ref.Shape.W)
	}
	for d := 0; d < w.D; d++ {
		for p := 0; p < e*f; p++ {
			var acc int64
			for r := 0; r < rows; r++ {
				acc += int64(patches[p*rows+r]) * int64(w.Data[d*rows+r])
			}
			if got := ref.Data[d*e*f+p]; int64(got) != acc {
				t.Fatalf("im2col mismatch at d=%d p=%d: %d vs %d", d, p, acc, got)
			}
		}
	}
}

func TestConv2DLinearityProperty(t *testing.T) {
	// Property: conv(a·in) = a·conv(in) for small scalars (no saturation).
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		in := NewInt(2, 5, 5)
		for i := range in.Data {
			in.Data[i] = int32(rng.Intn(8))
		}
		w := NewFilter(2, 2, 3, 3)
		for i := range w.Data {
			w.Data[i] = int32(rng.Intn(8)) - 4
		}
		base := Conv2D(in, w, nil, 1, 0)
		scaled := in.Clone()
		for i := range scaled.Data {
			scaled.Data[i] *= 3
		}
		got := Conv2D(scaled, w, nil, 1, 0)
		for i := range got.Data {
			if got.Data[i] != 3*base.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMaxPoolIdempotentProperty(t *testing.T) {
	// Property: pooling a constant tensor returns the constant.
	f := func(v int32, seed uint64) bool {
		in := NewInt(1, 4, 4)
		in.Fill(v % 1000)
		out := MaxPool2D(in, 2, 2)
		for _, x := range out.Data {
			if x != v%1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// naiveConv2D is the straightforward At-indexed cross-correlation Conv2D
// started from: a bounds test per tap, int64 accumulation, saturation.
func naiveConv2D(in *Int, w *Filter, bias []int32, stride, pad int) *Int {
	e := ConvOut(in.Shape.H, w.Z, stride, pad)
	f := ConvOut(in.Shape.W, w.G, stride, pad)
	out := NewInt(w.D, e, f)
	for d := 0; d < w.D; d++ {
		for y := 0; y < e; y++ {
			for x := 0; x < f; x++ {
				var acc int64
				if bias != nil {
					acc = int64(bias[d])
				}
				for c := 0; c < w.C; c++ {
					for i := 0; i < w.Z; i++ {
						for j := 0; j < w.G; j++ {
							hy, wx := y*stride+i-pad, x*stride+j-pad
							if hy < 0 || hy >= in.Shape.H || wx < 0 || wx >= in.Shape.W {
								continue
							}
							acc += int64(in.At(c, hy, wx)) * int64(w.At(d, c, i, j))
						}
					}
				}
				out.Set(d, y, x, saturate32(acc))
			}
		}
	}
	return out
}

func TestConv2DMatchesNaiveReference(t *testing.T) {
	rng := stats.NewRNG(17)
	fill := func(data []int32, lo, hi int) {
		for i := range data {
			data[i] = int32(lo + rng.Intn(hi-lo+1))
		}
	}
	for _, c := range []struct{ c, h, w, d, z, g int }{
		{1, 12, 12, 8, 3, 3}, {3, 7, 9, 4, 3, 3}, {2, 5, 6, 3, 2, 4}, {4, 6, 6, 2, 5, 5}, {2, 3, 3, 2, 3, 3},
		{1, 5, 5, 2, 2, 2}, // pad 2 > kernel: some windows lie wholly in the padding
	} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				if ConvOut(c.h, c.z, stride, pad) <= 0 || ConvOut(c.w, c.g, stride, pad) <= 0 {
					continue
				}
				in := NewInt(c.c, c.h, c.w)
				fill(in.Data, 0, 255)
				w := NewFilter(c.d, c.c, c.z, c.g)
				fill(w.Data, -127, 127)
				bias := make([]int32, c.d)
				fill(bias, -1000, 1000)
				for _, b := range [][]int32{nil, bias} {
					got, want := Conv2D(in, w, b, stride, pad), naiveConv2D(in, w, b, stride, pad)
					if got.Shape != want.Shape {
						t.Fatalf("%+v s=%d p=%d: shape %v, reference %v", c, stride, pad, got.Shape, want.Shape)
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%+v s=%d p=%d bias=%v: out[%d] = %d, reference %d",
								c, stride, pad, b != nil, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestConv2DSaturates drives psums past both int32 bounds: the int64
// accumulation must saturate exactly as the reference does.
func TestConv2DSaturates(t *testing.T) {
	in := NewInt(2, 4, 4)
	in.Fill(math.MaxInt32)
	w := NewFilter(3, 2, 3, 3)
	for i := range w.Data {
		w.Data[i] = [3]int32{1, -1, 0}[i/(2*3*3)]
	}
	bias := []int32{0, 0, 5}
	for _, pad := range []int{0, 1, 2} {
		got, want := Conv2D(in, w, bias, 1, pad), naiveConv2D(in, w, bias, 1, pad)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("pad %d: out[%d] = %d, reference %d", pad, i, got.Data[i], want.Data[i])
			}
		}
		if got.At(0, 0, 0) != math.MaxInt32 || got.At(1, 0, 0) != math.MinInt32 || got.At(2, 0, 0) != 5 {
			t.Fatalf("pad %d: corner psums %d/%d/%d, want saturation at both bounds and the bias",
				pad, got.At(0, 0, 0), got.At(1, 0, 0), got.At(2, 0, 0))
		}
	}
}
