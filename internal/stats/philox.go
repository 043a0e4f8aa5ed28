package stats

import "fmt"

// Sampler v3 is the counter-based regime: the uniform bit source is
// Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel Random Numbers: As
// Easy as 1, 2, 3", SC'11 — the Random123 reference implementation), a
// keyed bijection on a 128-bit counter. Unlike the splitmix64 stream of
// v1/v2, any position of a v3 stream is computable in O(1) from its
// coordinates alone, so Monte-Carlo substreams can be *keyed* instead of
// *split*: the generator for (seed, trial, grid slot) is constructed
// directly, without consuming or cloning any other stream. That is what
// makes trial-level fan-out byte-stable at any parallelism — worker count
// and materialisation order cannot move a draw from one substream to
// another, because the substream coordinates, not the execution order,
// define every deviate.
//
// Counter layout (32-bit words):
//
//	word 0,1  block counter (low/high) — advances by 1 per 128-bit block
//	word 2    stream id: 0 for the main stream, lane<<24|index for
//	          Substream-derived streams (fault/variation draws per slot)
//	word 3    trial index
//
// The 64-bit study seed is the Philox key. Distinct (seed, trial, stream)
// triples therefore enumerate disjoint counter sets — substreams can never
// overlap, for adjacent trials or any other pair — and each substream
// yields 2^65 uint64s before its block counter wraps. The derived-deviate
// algorithms on top of the bit source are exactly the v2 set (Ziggurat
// Gaussians, Lemire bounded Intn, binomial + Floyd fault draws); only the
// uniform source and the keying differ.

// Philox4x32 round constants: the two 32-bit multipliers and the Weyl key
// schedule increments of the reference implementation.
const (
	philoxM0 uint64 = 0xD2511F53
	philoxM1 uint64 = 0xCD9E8D57
	philoxW0 uint32 = 0x9E3779B9
	philoxW1 uint32 = 0xBB67AE85

	philoxRounds = 10
)

// philoxBlock applies the 10-round Philox4x32 bijection to one 128-bit
// counter under a 64-bit key and returns the four 32-bit output words. It
// matches the Random123 reference implementation bit for bit (the
// known-answer tests pin the published vectors). The state lives in scalar
// locals so every round stays in registers; the key bump after the last
// round is never read.
func philoxBlock(c [4]uint32, k [2]uint32) [4]uint32 {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	k0, k1 := k[0], k[1]
	for i := 0; i < philoxRounds; i++ {
		p0 := philoxM0 * uint64(c0)
		p1 := philoxM1 * uint64(c2)
		c0, c1, c2, c3 = uint32(p1>>32)^c1^k0, uint32(p1), uint32(p0>>32)^c3^k1, uint32(p0)
		k0 += philoxW0
		k1 += philoxW1
	}
	return [4]uint32{c0, c1, c2, c3}
}

// philoxInit resets the receiver to the v3 substream (seed, trial, stream):
// Philox key = seed, block counter 0, empty output buffer.
func (r *RNG) philoxInit(seed uint64, trial, stream uint32) {
	*r = RNG{
		sampler: SamplerV3,
		key:     [2]uint32{uint32(seed), uint32(seed >> 32)},
		ctr:     [4]uint32{0, 0, stream, trial},
	}
}

// philoxNext serves the next 64 bits of a v3 stream: each 128-bit block
// yields two uint64s (words 0|1 then 2|3), and the block counter in counter
// words 0-1 advances by one per block.
func (r *RNG) philoxNext() uint64 {
	if r.bufn == 0 {
		o := philoxBlock(r.ctr, r.key)
		r.ctr[0]++
		if r.ctr[0] == 0 {
			r.ctr[1]++
		}
		r.buf[0] = uint64(o[0]) | uint64(o[1])<<32
		r.buf[1] = uint64(o[2]) | uint64(o[3])<<32
		r.bufn = 2
	}
	r.bufn--
	out := r.buf[0]
	r.buf[0] = r.buf[1]
	return out
}

// NewTrialRNG returns the trial-th substream of the v3 counter-based study
// keyed by seed: the Philox stream with counter coordinates (seed, trial,
// stream 0). Every trial's generator is constructed independently — no
// other stream is consumed or cloned — so a study can evaluate its trials
// in any order, on any number of workers, and every draw is identical to a
// serial run. (Under v1/v2 the splitmix64 stream is inherently serial;
// callers there derive per-trial seeds additively instead. See the
// Sampling regimes section of DESIGN.md.)
func NewTrialRNG(seed uint64, trial uint32) *RNG {
	r := &RNG{}
	r.philoxInit(seed, trial, 0)
	return r
}

// Substream lanes partition a v3 generator's stream-id word so different
// draw purposes on the same (seed, trial) can never collide: the main
// stream (noise draws during compute) is stream id 0, and each
// (lane, index) pair owns the id lane<<24|index.
const (
	// SubstreamLanes is the exclusive upper bound on Substream lane values.
	SubstreamLanes = 1 << 8
	// SubstreamIndexes is the exclusive upper bound on Substream indexes.
	SubstreamIndexes = 1 << 24
)

// Substream returns the (lane, index) substream of a v3 generator: a fresh
// generator with the same seed key and trial word, stream id
// lane<<24|index, and its block counter at zero. Lanes must be in
// [1, SubstreamLanes) — lane 0 is the main stream — and indexes in
// [0, SubstreamIndexes). The receiver is not advanced; calling Substream
// any number of times, in any order, returns generators whose streams are
// disjoint from each other and from the receiver's by construction. It
// panics on a non-v3 generator (v1/v2 splitmix streams have no substream
// coordinates) or an out-of-range lane/index.
func (r *RNG) Substream(lane, index uint32) *RNG {
	if r.sampler != SamplerV3 {
		panic(fmt.Sprintf("stats: Substream on a %v generator (substreams need the v3 counter-based regime)", r.Sampler()))
	}
	if lane == 0 || lane >= SubstreamLanes || index >= SubstreamIndexes {
		panic(fmt.Sprintf("stats: Substream(%d, %d) out of range", lane, index))
	}
	sub := &RNG{}
	sub.philoxInit(uint64(r.key[0])|uint64(r.key[1])<<32, r.ctr[3], lane<<24|index)
	return sub
}
