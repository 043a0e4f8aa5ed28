package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"
)

// Pre-trained Monte-Carlo seeds: set-up trains the mlp and cnn
// classifiers for each, so no measured request pays training.
var (
	mlpSeeds = [2]uint64{2020, 2021}
	cnnSeeds = [2]uint64{5, 6}
)

// body renders one evaluate request body.
func body(fields map[string]any) []byte {
	b, err := json.Marshal(fields)
	if err != nil {
		panic(err) // only literal maps of strings and numbers reach here
	}
	return b
}

// sharedHot is the fixed hot set of serve-shared: every seed sends the
// same bodies, so hit-path latency does not depend on which seed ran.
// The functional ones double as the training requests of the
// pre-trained seeds.
func sharedHot() [][]byte {
	return [][]byte{
		body(map[string]any{"backend": "timely", "network": "VGG-D"}),
		body(map[string]any{"backend": "prime", "network": "VGG-D"}),
		body(map[string]any{"backend": "isaac", "network": "MSRA-1"}),
		body(map[string]any{"backend": "timing", "network": "VGG-2", "images": 8}),
		body(map[string]any{"backend": "functional", "network": "mlp", "seed": mlpSeeds[0], "trials": 2}),
		body(map[string]any{"backend": "functional", "network": "mlp", "seed": mlpSeeds[1], "trials": 2}),
		body(map[string]any{"backend": "functional", "network": "cnn", "seed": cnnSeeds[0], "trials": 2, "fault_rate": 0.003}),
		body(map[string]any{"backend": "functional", "network": "cnn", "seed": cnnSeeds[1], "trials": 2, "fault_rate": 0.003}),
	}
}

// Serve-shared schedule: a tick every sharedTick; in each frame of
// sharedFrame ticks, tick 0 sends a burst pair and tick sharedFrame/2 a
// sweep pair. Each pair holds both connections until it is answered, so
// hot ticks pause for sharedQuiet ticks after a pair rather than queue
// behind it on the client; every other tick sends one hot body. That is
// 68 hot + 2 burst + 2 sweep = 72 requests/s: hot 94.4 %, burst 2.8 %,
// sweep 2.8 %. p50 falls in the hit mode and p99 in the middle of the
// sweeps, the slowest kind, far from any boundary between kinds.
const (
	sharedTick  = 10 * time.Millisecond
	sharedFrame = 100
	sharedQuiet = 15
)

// uniqueValues draws distinct values lo + (hi-lo)·u rounded to step.
type uniqueValues struct {
	rng    *rand.Rand
	lo, hi float64
	step   float64
	seen   map[float64]bool
}

func (u *uniqueValues) next() float64 {
	for {
		v := u.lo + float64(int64(u.rng.Float64()*(u.hi-u.lo)/u.step))*u.step
		if !u.seen[v] {
			u.seen[v] = true
			return v
		}
	}
}

// functionalValues returns generators of fresh mlp noise values (ps) and
// cnn fault rates. Fault rates stay in a narrow band, because a cnn
// request's cost grows with the number of faults it injects.
func functionalValues(rng *rand.Rand) (noise, fault *uniqueValues) {
	return &uniqueValues{rng: rng, lo: 1, hi: 9, step: 1e-6, seen: map[float64]bool{}},
		&uniqueValues{rng: rng, lo: 0.0015, hi: 0.0025, step: 1e-9, seen: map[float64]bool{}}
}

// sharedOps builds the serve-shared schedule for the given seconds.
// Burst pairs send one new mlp noise body twice at the same instant
// (singleflight folds them); sweep pairs send one new cnn fault config at
// both pre-trained seeds (the gather window fuses them). Each kind keeps
// one network so its latencies form one mode: sweeps are the slowest
// requests, 2 % of the total, so p99 falls in the middle of them rather
// than on the edge between two kinds.
func sharedOps(seed uint64, seconds int, hot [][]byte) []*op {
	rng := rand.New(rand.NewPCG(seed, 0x5eed5a4ed))
	noise, fault := functionalValues(rng)
	ticks := seconds * int(time.Second/sharedTick)
	var ops []*op
	seenHot := map[int]bool{}
	pair := 0
	for t := 0; t < ticks; t++ {
		at := time.Duration(t) * sharedTick
		traced := (at/time.Second)%2 == 1
		switch ft := t % (sharedFrame / 2); {
		case ft == 0:
			kind := "burst"
			var a, b []byte
			if t%sharedFrame == 0 {
				a = body(map[string]any{"backend": "functional", "network": "mlp", "seed": mlpSeeds[0], "trials": 2, "noise_ps": noise.next()})
				b = a
			} else {
				kind = "sweep"
				v := fault.next()
				a = body(map[string]any{"backend": "functional", "network": "cnn", "seed": cnnSeeds[0], "trials": 2, "fault_rate": v})
				b = body(map[string]any{"backend": "functional", "network": "cnn", "seed": cnnSeeds[1], "trials": 2, "fault_rate": v})
			}
			for _, bb := range [][]byte{a, b} {
				ops = append(ops, &op{Kind: kind, Body: bb, At: at, Pair: pair, Keep: true, Traced: traced})
			}
			pair++
		case ft > sharedQuiet:
			h := rng.IntN(len(hot))
			ops = append(ops, &op{Kind: "hot", Body: hot[h], At: at, Pair: -1, Keep: !seenHot[h], Traced: traced})
			seenHot[h] = true
		}
	}
	for i, o := range ops {
		o.ID = uint64(i)
	}
	return ops
}

// Serve-unique request mix, by count per block of 10: mlp 3, cnn 3,
// timing 3, analytic 1. The first three cost ~15–45 ms each in process.
// An analytic evaluation costs ~0.2 ms whatever its inputs, so it is
// kept to 10 %: the median then falls inside the compute kinds, far from
// the analytic share at the bottom of the distribution.
var uniqueBlock = []string{"mlp", "mlp", "mlp", "cnn", "cnn", "cnn", "timing", "timing", "timing", "analytic"}

var (
	timingNets = []string{"VGG-2", "VGG-3", "MSRA-1"}
	zooNets    = []string{
		"VGG-D", "CNN-1", "MLP-L", "VGG-1", "VGG-2", "VGG-3", "VGG-4",
		"MSRA-1", "MSRA-2", "MSRA-3", "ResNet-18", "ResNet-50", "ResNet-101", "ResNet-152", "SqueezeNet",
	}
)

// uniqueWarm is the serve-unique set-up: it trains the default-seed
// classifiers and touches the timing and analytic paths once. None of
// these bodies is sent again.
func uniqueWarm() [][]byte {
	return [][]byte{
		body(map[string]any{"backend": "functional", "network": "mlp", "trials": 1, "noise_ps": 0.5}),
		body(map[string]any{"backend": "functional", "network": "cnn", "trials": 1, "fault_rate": 0.001}),
		body(map[string]any{"backend": "timing", "network": "VGG-2", "images": 2}),
		body(map[string]any{"backend": "timely", "network": "VGG-D", "gamma": 8}),
	}
}

// uniqueOps builds n distinct serve-unique requests. Every request's
// cache key differs from every other's and from the warm-up bodies', so
// the result cache never hits and nothing coalesces.
func uniqueOps(seed uint64, n int) []*op {
	rng := rand.New(rand.NewPCG(seed, 0x0417e0e))
	noise, fault := functionalValues(rng)
	seen := map[string]bool{}
	for _, b := range uniqueWarm() {
		seen[string(b)] = true
	}
	fresh := func(gen func() []byte) []byte {
		for {
			if b := gen(); !seen[string(b)] {
				seen[string(b)] = true
				return b
			}
		}
	}
	ops := make([]*op, 0, n)
	block := append([]string(nil), uniqueBlock...)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			var b []byte
			switch kind {
			case "mlp":
				b = body(map[string]any{"backend": "functional", "network": "mlp", "trials": 2, "noise_ps": noise.next()})
			case "cnn":
				b = body(map[string]any{"backend": "functional", "network": "cnn", "trials": 2, "fault_rate": fault.next()})
			case "timing":
				b = fresh(func() []byte {
					return body(map[string]any{"backend": "timing", "network": timingNets[rng.IntN(len(timingNets))],
						"images": 4 + rng.IntN(13), "gamma": 1 + rng.IntN(128)})
				})
			case "analytic":
				b = fresh(func() []byte {
					return body(map[string]any{"backend": "timely", "network": zooNets[rng.IntN(len(zooNets))],
						"gamma": 1 + rng.IntN(256)})
				})
			default:
				panic(fmt.Sprintf("unknown kind %q", kind))
			}
			i := len(ops)
			ops = append(ops, &op{ID: uint64(i), Kind: kind, Body: b, Pair: -1, Keep: true, Traced: i%2 == 1})
		}
	}
	return ops[:n]
}
