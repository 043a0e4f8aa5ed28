package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// SamplerVersion selects one of the simulator's Monte-Carlo sampling
// regimes. A regime is a *stream contract*: given the same seed, every
// generator of that regime draws the same deviates in the same order, so
// realised fault maps, noise sequences and therefore artifact bytes are
// reproducible per (seed, regime).
//
//   - SamplerV1 is the legacy regime the original goldens were captured
//     under: one Bernoulli deviate per crossbar cell for fault injection
//     (O(cells) per draw), Box-Muller Gaussians, and modulo-reduced Intn.
//   - SamplerV2 is the sublinear regime: an exact Binomial(n, rate) count
//     draw followed by Floyd's sampling without replacement for fault
//     positions (O(faults) per crossbar), Ziggurat Gaussians in the noise
//     hot path, and Lemire bounded-rejection Intn (no modulo bias).
//   - SamplerV3 is the counter-based regime: the v2 deviate algorithms over
//     a Philox4x32-10 bit source whose substreams are keyed by
//     (seed, trial, grid slot) instead of split from one serial stream, so
//     any trial — and any crossbar's fault draws within a trial — is
//     computable independently with byte-stable results at any parallelism
//     (see philox.go, NewTrialRNG, Substream). A crossbar's fault map is
//     drawn before its positions — Binomial(n, rate) faults, then
//     Binomial(k, ½) of them SA0 — so counting faults costs O(1).
//
// All regimes are statistically equivalent (the distributional tests in
// this package and in internal/reram defend that); they differ only in
// cost and in the exact deviate stream. SamplerDefault resolves to v3.
type SamplerVersion uint8

const (
	// SamplerDefault resolves to the package default regime (currently v3).
	SamplerDefault SamplerVersion = iota
	// SamplerV1 is the legacy per-cell Bernoulli / Box-Muller regime.
	SamplerV1
	// SamplerV2 is the sublinear binomial / Ziggurat regime.
	SamplerV2
	// SamplerV3 is the counter-based Philox substream regime.
	SamplerV3
)

// Resolve maps SamplerDefault to the concrete default regime (v3) and
// returns every explicit version unchanged.
func (v SamplerVersion) Resolve() SamplerVersion {
	if v == SamplerDefault {
		return SamplerV3
	}
	return v
}

// String returns "v1", "v2" or "v3" ("default" for the unresolved zero
// value).
func (v SamplerVersion) String() string {
	switch v {
	case SamplerDefault:
		return "default"
	case SamplerV1:
		return "v1"
	case SamplerV2:
		return "v2"
	case SamplerV3:
		return "v3"
	}
	return fmt.Sprintf("sampler(%d)", uint8(v))
}

// ParseSamplerVersion parses the CLI/API spelling of a sampling regime:
// "v1", "v2", "v3", or "" for the default.
func ParseSamplerVersion(s string) (SamplerVersion, error) {
	switch s {
	case "":
		return SamplerDefault, nil
	case "v1":
		return SamplerV1, nil
	case "v2":
		return SamplerV2, nil
	case "v3":
		return SamplerV3, nil
	}
	return 0, fmt.Errorf("stats: unknown sampler version %q (want v1, v2 or v3)", s)
}

// NewRNGSampler returns a generator seeded with seed that samples under the
// given regime (SamplerDefault resolves to v3; a v3 generator is the
// trial-0 main stream, NewTrialRNG(seed, 0)). NewRNG and the RNG zero
// value keep the legacy v1 regime so existing deviate streams stay
// byte-stable.
func NewRNGSampler(seed uint64, v SamplerVersion) *RNG {
	if v.Resolve() == SamplerV3 {
		return NewTrialRNG(seed, 0)
	}
	return &RNG{state: seed, sampler: v.Resolve()}
}

// SetSampler switches the generator's sampling regime in place
// (SamplerDefault resolves to v3). It returns the receiver for chaining.
// Switching between v1 and v2 mid-stream is allowed — their uniform bit
// stream is shared; only the derived-deviate algorithms change. Switching
// into or out of v3 re-keys the generator (the splitmix64 state becomes
// the Philox seed or vice versa, at trial 0, stream 0, block 0), because
// the two bit sources have no shared position.
func (r *RNG) SetSampler(v SamplerVersion) *RNG {
	v = v.Resolve()
	switch {
	case v == r.sampler:
	case v == SamplerV3:
		r.philoxInit(r.state, 0, 0)
	case r.sampler == SamplerV3:
		*r = RNG{state: uint64(r.key[0]) | uint64(r.key[1])<<32, sampler: v}
	default:
		r.sampler = v
	}
	return r
}

// Sampler reports the generator's sampling regime (SamplerV1 for the zero
// value and NewRNG-built generators).
func (r *RNG) Sampler() SamplerVersion {
	if r.sampler >= SamplerV2 {
		return r.sampler
	}
	return SamplerV1
}

// intnLemire is the v2 bounded uniform: Lemire's multiply-shift rejection
// (Fast Random Integer Generation in an Interval, 2019). Unlike the v1
// modulo reduction it is exactly uniform over [0,n) — the raw 64-bit draw
// is mapped through a 128-bit multiply and the small biased low fraction
// (at most n of 2^64 values) is rejected and redrawn.
func (r *RNG) intnLemire(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// SampleK draws k distinct integers from [0,n) by Floyd's sampling
// algorithm (Bentley & Floyd, CACM 1987) and calls visit once per selected
// value, in draw order. It consumes exactly k Intn deviates regardless of
// collisions, so callers that interleave further draws inside visit (the
// fault model draws a stuck-at polarity per position) get a replayable
// stream: re-running SampleK from a cloned generator reproduces the same
// positions and leaves the generator in the same state. It panics if k > n
// or either is negative.
func (r *RNG) SampleK(n, k int, visit func(pos int)) {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("stats: SampleK(%d, %d) out of range", n, k))
	}
	if k == 0 {
		return
	}
	// Membership structure: a bitset for bounded domains (the fault model's
	// n is one crossbar, 64Ki cells), a map when the domain is huge and
	// sparse. The choice never touches the deviate stream.
	if n <= 1<<22 {
		seen := make([]uint64, (n+63)/64)
		for j := n - k; j < n; j++ {
			pos := r.Intn(j + 1)
			if seen[pos>>6]&(1<<(pos&63)) != 0 {
				pos = j
			}
			seen[pos>>6] |= 1 << (pos & 63)
			visit(pos)
		}
		return
	}
	seen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		pos := r.Intn(j + 1)
		if _, dup := seen[pos]; dup {
			pos = j
		}
		seen[pos] = struct{}{}
		visit(pos)
	}
}

// Binomial draws an exact Binomial(n, p) count: the number of successes in
// n independent trials of probability p. Small-mean draws use CDF
// inversion (BINV); large-mean draws use Hormann's BTRS transformed
// rejection, which is exact (the acceptance test evaluates the true PMF
// ratio). The deviate consumption is variable but deterministic per
// generator state, so cloned generators replay identical draws. It panics
// on n < 0 or p outside [0,1].
//
// This is the sampler-v2 fault-count draw: one Binomial per crossbar
// replaces one Bernoulli per cell, collapsing O(cells) work to O(1) plus
// O(faults) position sampling.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Binomial(%d, %v) out of range", n, p))
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	if p > 0.5 {
		// Symmetry keeps the worker algorithms in their accurate p ≤ ½ half.
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < 10 {
		return r.binomialInv(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInv is the BINV inversion sampler for n·p < 10, p ≤ ½: walk the
// CDF from 0 with the PMF recurrence until the uniform deviate is covered.
// Expected cost is O(n·p) PMF steps per draw.
func (r *RNG) binomialInv(n int, p float64) int {
	q := 1 - p
	s := p / q
	// q^n ≥ exp(-n·p/q) ≥ exp(-20) in this regime, so the start of the
	// recurrence never underflows.
	f := math.Pow(q, float64(n))
	for {
		u := r.Float64()
		fx := f
		for x := 0; x <= n; x++ {
			if u <= fx {
				return x
			}
			u -= fx
			fx *= s * float64(n-x) / float64(x+1)
		}
		// Rounding pushed u past the accumulated CDF mass (probability
		// ~2^-50); redraw rather than return a clamped tail value.
	}
}

// binomialBTRS is Hormann's BTRS transformed-rejection binomial sampler
// (The generation of binomial random variates, 1993), exact for
// n·p ≥ 10 and p ≤ ½. The squeeze accepts ~86 % of draws with two
// uniforms; rejected candidates fall through to the exact log-PMF test.
func (r *RNG) binomialBTRS(n int, p float64) int {
	fn := float64(n)
	q := 1 - p
	spq := math.Sqrt(fn * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lpq := p / q
	m := math.Floor((fn + 1) * p)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || k > fn {
			continue
		}
		// Exact acceptance: log v against the transformed PMF ratio, with
		// Stirling-series factorial tails.
		v = math.Log(v * alpha / (a/(us*us) + b))
		ub := (m+0.5)*math.Log((m+1)/(lpq*(fn-m+1))) +
			(fn+1)*math.Log((fn-m+1)/(fn-k+1)) +
			(k+0.5)*math.Log(lpq*(fn-k+1)/(k+1)) +
			stirlingTail(m) + stirlingTail(fn-m) - stirlingTail(k) - stirlingTail(fn-k)
		if v <= ub {
			return int(k)
		}
	}
}

// stirlingTailSmall holds the exact log(k!) Stirling-series remainders for
// k = 0..9 (Loader, Fast and accurate computation of binomial
// probabilities, 2000).
var stirlingTailSmall = [10]float64{
	0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
	0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
	0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
	0.008330563433362871,
}

// stirlingTail returns log(k!) − [k·ln k − k + ½·ln(2πk)], the Stirling
// remainder, from the exact table for small k and the asymptotic series
// otherwise.
func stirlingTail(k float64) float64 {
	if k < 10 {
		return stirlingTailSmall[int(k)]
	}
	kp1 := k + 1
	kp1sq := kp1 * kp1
	return (1.0/12 - (1.0/360-1.0/1260/kp1sq)/kp1sq) / kp1
}

// Ziggurat tables for the standard normal (Marsaglia & Tsang, The Ziggurat
// Method for Generating Random Variables, JSS 2000): 128 equal-area layers
// with tail cut r and layer area v. zigX[i] is the right edge of layer i
// (zigX[1] = r, descending to zigX[128] = 0); zigF[i] = exp(-zigX[i]²/2).
// zigX[0] = v/f(r) is the virtual width of the base layer, which folds the
// tail's area into a rectangle of the same area as every other layer.
const (
	zigLayers = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
)

var (
	zigX [zigLayers + 1]float64
	zigF [zigLayers + 1]float64
	// zigW[i] = zigX[i]/2^53 maps the 53-bit position draw straight to x;
	// zigK[i] is the conservative rectangle-accept bound on that draw
	// (positions at the boundary fall through to the exact wedge/tail
	// handling, so the integer fast path never over-accepts).
	zigW [zigLayers]float64
	zigK [zigLayers]uint64
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f
	zigX[1] = zigR
	zigF[0] = f
	zigF[1] = f
	for i := 2; i <= zigLayers; i++ {
		zigF[i] = zigF[i-1] + zigV/zigX[i-1]
		if zigF[i] >= 1 {
			zigF[i] = 1
			zigX[i] = 0
			continue
		}
		zigX[i] = math.Sqrt(-2 * math.Log(zigF[i]))
	}
	// The 128-layer constants close the recursion at the origin; pin the
	// top edge exactly (the residual is ~1e-9 and only ever used as the
	// wedge interpolation endpoint).
	zigX[zigLayers] = 0
	zigF[zigLayers] = 1
	for i := 0; i < zigLayers; i++ {
		zigW[i] = zigX[i] / (1 << 53)
		k := math.Floor(zigX[i+1] / zigX[i] * (1 << 53))
		if k >= 1 {
			k-- // conservative: boundary positions take the exact slow path
		}
		zigK[i] = uint64(k)
	}
}

// signedBits stamps the sign bit (pre-shifted to bit 63) onto a
// non-negative deviate without a data-dependent branch.
func signedBits(x float64, sign uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | sign)
}

// normZiggurat is the v2 standard-normal sampler. The common case spends
// one 64-bit draw: 7 bits pick the layer, 1 bit the sign, and the top 53
// bits the position; a position inside the layer's rectangle is accepted
// with one integer compare (~98.8 % of draws). Edge positions take the
// wedge test against the true density, and layer 0 falls through to
// Marsaglia's exact tail sampler beyond r.
func (r *RNG) normZiggurat() float64 {
	for {
		u := r.Uint64()
		i := int(u & (zigLayers - 1))
		j := u >> 11 // disjoint from the layer (bits 0-6) and sign (bit 7)
		sign := (u & (1 << 7)) << 56
		if j < zigK[i] {
			return signedBits(float64(j)*zigW[i], sign)
		}
		x := float64(j) * zigW[i]
		if i == 0 {
			if x < zigX[1] {
				// Boundary sliver the conservative integer bound rejected:
				// still inside the base rectangle.
				return signedBits(x, sign)
			}
			// Tail: exact sampling of the normal beyond r via two
			// exponential deviates. log1p(-u) keeps the argument in (0,1],
			// so the draw is finite for every uniform.
			var xt float64
			for {
				xt = -math.Log1p(-r.Float64()) / zigR
				y := -math.Log1p(-r.Float64())
				if y+y >= xt*xt {
					break
				}
			}
			return signedBits(zigR+xt, sign)
		}
		// Wedge: accept x with probability proportional to the density
		// overhang between the stacked rectangles.
		if zigF[i]+r.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return signedBits(x, sign)
		}
	}
}
