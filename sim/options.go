package sim

import (
	"fmt"
	"math"

	"repro/internal/params"
	"repro/internal/stats"
)

// Config is the resolved backend configuration a Factory receives. Fields
// left at their Open defaults are distinguishable from explicitly-set ones
// via IsSet, so factories can reject options that do not apply to them.
type Config struct {
	// Bits is the operand precision (timely; Table II evaluates 8 and 16).
	Bits int
	// Chips is the deployment size.
	Chips int
	// SubChips is χ, sub-chips per chip; 0 keeps the Table II default.
	SubChips int
	// Gamma is the DTC/TDC sharing factor; 0 keeps the Table II default.
	Gamma int
	// NoisePS is the per-X-subBuf timing error ε in ps (functional).
	NoisePS float64
	// FaultRate is the stuck-at cell fraction in [0,1] (functional).
	FaultRate float64
	// Seed is the Monte-Carlo base seed (functional); each workload has
	// its own default aligned with the experiment suite.
	Seed uint64
	// Trials is the Monte-Carlo repeat count (functional).
	Trials int
	// Sampler is the Monte-Carlo sampling regime (functional); the
	// counter-based v3 by default, v1/v2 for the earlier byte-pinned
	// streams.
	Sampler stats.SamplerVersion
	// Images is the image count the event-driven simulation pushes through
	// the pipeline (timing); 0 keeps the backend default.
	Images int
	// TraceSink receives per-command occupancy spans as the event-driven
	// simulation completes them (timing).
	TraceSink func(TraceSpan)

	set map[string]bool
}

// option keys used for applicability tracking.
const (
	optBits      = "bits"
	optChips     = "chips"
	optSubChips  = "sub_chips"
	optGamma     = "gamma"
	optNoise     = "noise_ps"
	optFaultRate = "fault_rate"
	optSeed      = "seed"
	optTrials    = "trials"
	optSampler   = "sampler"
	optImages    = "images"
	optTrace     = "trace"
)

func (c *Config) mark(key string) {
	if c.set == nil {
		c.set = map[string]bool{}
	}
	c.set[key] = true
}

// IsSet reports whether the named option was passed to Open explicitly.
func (c *Config) IsSet(key string) bool { return c.set[key] }

// reject returns ErrInvalidOption if any of the named options was set —
// the applicability check factories run for options foreign to them.
func (c *Config) reject(backend string, keys ...string) error {
	for _, k := range keys {
		if c.IsSet(k) {
			return fmt.Errorf("%w: %s does not apply to the %q backend", ErrInvalidOption, k, backend)
		}
	}
	return nil
}

// defaultConfig seeds Open: the Table II design point at one chip, with
// the paper's design-point noise and the experiment suite's trial count.
func defaultConfig() Config {
	return Config{
		Bits:    8,
		Chips:   1,
		NoisePS: params.DefaultXSubBufSigma,
		Trials:  5,
		Sampler: stats.SamplerV3,
	}
}

// Option configures a backend at Open. Options validate eagerly: an
// out-of-range value fails Open with ErrInvalidOption.
type Option func(*Config) error

// WithBits sets the operand precision of the TIMELY model (the paper
// evaluates 8- and 16-bit operands).
func WithBits(n int) Option {
	return func(c *Config) error {
		if n != 8 && n != 16 {
			return fmt.Errorf("%w: bits must be 8 or 16, got %d", ErrInvalidOption, n)
		}
		c.Bits = n
		c.mark(optBits)
		return nil
	}
}

// WithChips sets the deployment size (Fig. 8(b) evaluates 16/32/64).
func WithChips(n int) Option {
	return func(c *Config) error {
		if n < 1 || n > 4096 {
			return fmt.Errorf("%w: chips must be in [1,4096], got %d", ErrInvalidOption, n)
		}
		c.Chips = n
		c.mark(optChips)
		return nil
	}
}

// WithSubChips overrides χ, the sub-chip count per chip (timely only).
func WithSubChips(n int) Option {
	return func(c *Config) error {
		if n < 1 || n > 4096 {
			return fmt.Errorf("%w: sub-chips must be in [1,4096], got %d", ErrInvalidOption, n)
		}
		c.SubChips = n
		c.mark(optSubChips)
		return nil
	}
}

// WithGamma overrides the DTC/TDC sharing factor (timely only; Table II's
// point is 8).
func WithGamma(n int) Option {
	return func(c *Config) error {
		if n < 1 || n > 256 {
			return fmt.Errorf("%w: gamma must be in [1,256], got %d", ErrInvalidOption, n)
		}
		c.Gamma = n
		c.mark(optGamma)
		return nil
	}
}

// WithNoise sets the per-X-subBuf timing error ε in ps for the functional
// backend's Monte-Carlo noise injection; 0 is an ideal-timing run. The
// default is the paper's design point.
func WithNoise(epsPS float64) Option {
	return func(c *Config) error {
		if epsPS < 0 || math.IsNaN(epsPS) || math.IsInf(epsPS, 0) {
			return fmt.Errorf("%w: noise epsilon must be a finite value >= 0 ps, got %v", ErrInvalidOption, epsPS)
		}
		c.NoisePS = epsPS
		c.mark(optNoise)
		return nil
	}
}

// WithFaultRate sets the stuck-at cell fraction the functional backend
// injects into the crossbars before mapping the CNN workload.
func WithFaultRate(rate float64) Option {
	return func(c *Config) error {
		if rate < 0 || rate > 1 || math.IsNaN(rate) {
			return fmt.Errorf("%w: fault rate must be in [0,1], got %v", ErrInvalidOption, rate)
		}
		c.FaultRate = rate
		c.mark(optFaultRate)
		return nil
	}
}

// WithSeed fixes the functional backend's Monte-Carlo base seed. Equal
// seeds reproduce results exactly at any concurrency level.
func WithSeed(seed uint64) Option {
	return func(c *Config) error {
		c.Seed = seed
		c.mark(optSeed)
		return nil
	}
}

// WithTrials sets the functional backend's Monte-Carlo repeat count.
func WithTrials(n int) Option {
	return func(c *Config) error {
		if n < 1 || n > 1000 {
			return fmt.Errorf("%w: trials must be in [1,1000], got %d", ErrInvalidOption, n)
		}
		c.Trials = n
		c.mark(optTrials)
		return nil
	}
}

// WithImages sets how many images the timing backend's event-driven
// simulation pushes through the pipeline. More images sharpen the
// steady-state measurement and the latency percentiles at proportional
// simulation cost; the backend widens the count as needed to cover at
// least three full rounds of every replicated instance.
func WithImages(n int) Option {
	return func(c *Config) error {
		if n < 1 || n > 4096 {
			return fmt.Errorf("%w: images must be in [1,4096], got %d", ErrInvalidOption, n)
		}
		c.Images = n
		c.mark(optImages)
		return nil
	}
}

// WithTraceSink registers a callback that receives every command's
// realised unit occupancy as the timing backend's event-driven simulation
// completes it — the per-wave trace stream `timely evaluate -trace`
// serializes. The stream is deterministic: equal configurations emit
// identical spans in identical order.
func WithTraceSink(fn func(TraceSpan)) Option {
	return func(c *Config) error {
		if fn == nil {
			return fmt.Errorf("%w: nil trace sink", ErrInvalidOption)
		}
		c.TraceSink = fn
		c.mark(optTrace)
		return nil
	}
}

// WithSampler selects the functional backend's Monte-Carlo sampling regime
// by name: "v3" (the default) keys a counter-based Philox generator by the
// study's (seed, trial, grid slot) coordinates, so every trial's stream is
// independently computable and results are byte-stable at any worker
// count, and accounts each crossbar's faults in O(1); "v2" draws realised fault maps with sublinear O(faults) binomial
// sampling and circuit noise through a Ziggurat Gaussian from serial
// splitmix streams; "v1" reproduces the legacy per-cell Bernoulli /
// Box-Muller deviate streams byte for byte (the regime the original
// goldens were captured under). The regimes are statistically equivalent —
// equal seeds give different deviates but the same fault-count and noise
// distributions — so sweeps are comparable across them; pick v1/v2 only
// when exact reproducibility of their pinned streams matters.
func WithSampler(version string) Option {
	return func(c *Config) error {
		v, err := stats.ParseSamplerVersion(version)
		if err != nil {
			return fmt.Errorf("%w: sampler must be \"v1\", \"v2\" or \"v3\", got %q", ErrInvalidOption, version)
		}
		c.Sampler = v.Resolve()
		c.mark(optSampler)
		return nil
	}
}
