package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"

	"repro/internal/gemm"
	"repro/internal/serve"
)

// modelPairs are the (N, K) of row-parallel GEMMs followed by an
// AllReduce — attention output and MLP down projections — of the models
// internal/workload evaluates, at tensor-parallel degrees 2, 4 and 8.
var modelPairs = [][2]int{
	{8192, 2048}, {8192, 7168}, // Llama3-70B, TP=4
	{8192, 1024}, {8192, 3584}, // Llama3-70B, TP=8
	{4096, 1024}, {4096, 2752}, // Llama2-7B, TP=4
	{4096, 2048}, {4096, 5504}, // Llama2-7B, TP=2
	{4096, 3584}, {4096, 1792}, // Mixtral-8x7B, TP=4 and TP=8
	{6144, 1536}, {6144, 6144}, // text-to-video, TP=4
}

// tokenCounts are the padded M a serving engine launches: decode batches
// in buckets of 16 up to 1024 and prefill chunks in multiples of 128 up
// to 8192. M stays padded because an odd M makes gemm.DefaultConfig pick
// one-row tiles, which turns every cache lookup into a millisecond plan
// build and would measure a deployment nobody runs.
func tokenCounts() []int {
	var ms []int
	for m := 16; m <= 1024; m += 16 {
		ms = append(ms, m)
	}
	for m := 1152; m <= 8192; m += 128 {
		ms = append(ms, m)
	}
	return ms
}

// universe is every (M, N, K) the dynamic workload may ask for: 1440
// shapes, 2.8 times the fleet's AllReduce shape-cache capacity (two
// replicas of tuner.DefaultShapeCacheCapacity).
func universe() []gemm.Shape {
	var out []gemm.Shape
	for _, p := range modelPairs {
		for _, m := range tokenCounts() {
			out = append(out, gemm.Shape{M: m, N: p[0], K: p[1]})
		}
	}
	return out
}

// warmShapes is the representative set the fleet pre-tunes at start-up:
// every model pair at a spread of decode and prefill sizes, 96 shapes.
func warmShapes() []gemm.Shape {
	var out []gemm.Shape
	for _, p := range modelPairs {
		for _, m := range []int{16, 128, 512, 1024, 2048, 4096, 6144, 8192} {
			out = append(out, gemm.Shape{M: m, N: p[0], K: p[1]})
		}
	}
	return out
}

// Independent random streams derived from one seed, so adding draws to
// one input never shifts another.
const (
	streamArrivals = iota + 1
	streamKeys
	streamTenants
	streamPopularity
	streamGrid
)

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// arrivals draws n unit-rate exponential inter-arrival gaps: a Poisson
// process at rate r releases request i at (gaps[0]+...+gaps[i])/r. Phases
// at different rates replay the same seeded stream, scaled.
func arrivals(seed uint64, n int) []float64 {
	r := rng(seed, streamArrivals)
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
	}
	return gaps
}

// tenants labels each request with one of three tenants.
var tenantNames = []string{"chat", "batch", "video"}

func tenantsFor(seed uint64, n int) []uint8 {
	r := rng(seed, streamTenants)
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(r.IntN(len(tenantNames)))
	}
	return out
}

// uniformKeys draws n indices uniformly from [0, size).
func uniformKeys(seed uint64, n, size int) []int32 {
	r := rng(seed, streamKeys)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.IntN(size))
	}
	return out
}

// zipfExponent sets how skewed the dynamic workload's popularity is. With
// it a few percent of requests miss every cache once the caches have
// filled, so the tail of the latency distribution falls inside the misses.
const zipfExponent = 1.1

// popularKeys draws n indices from [0, size) with Zipf popularity. The
// popularity ranking is one fixed shuffle of the indices, the same for
// every seed: which shapes are hot decides how many requests are exact
// hits rather than neighbour hits, and a ranking drawn per seed would make
// that split, and the workload's cost, differ from run to run. The seed
// varies the draws.
func popularKeys(seed uint64, n, size int) []int32 {
	perm := rng(0, streamPopularity).Perm(size)
	z := rand.NewZipf(rng(seed, streamKeys), zipfExponent, 1, uint64(size-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(perm[z.Uint64()])
	}
	return out
}

// sweepGrid is the sweep workload's grid: the first n shapes of a seeded
// shuffle of the universe, each crossed with AllReduce and ReduceScatter,
// in shape-major order as cmd/sweep builds it. The full workload sweeps
// the whole universe, so the seed changes only the order.
func sweepGrid(seed uint64, n int) []serve.SweepItem {
	u := universe()
	perm := rng(seed, streamGrid).Perm(len(u))
	items := make([]serve.SweepItem, 0, 2*n)
	for _, i := range perm[:n] {
		s := u[i]
		for _, p := range benchPrims {
			items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: p.Short()})
		}
	}
	return items
}

// digest fingerprints generated inputs, so two runs can be shown to have
// offered the same work.
type digest struct{ h hash.Hash }

func newDigest(workload string, seed uint64) *digest {
	d := &digest{h: sha256.New()}
	d.h.Write([]byte(workload))
	d.u64(seed)
	return d
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) floats(xs []float64) {
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d *digest) ints(xs []int32) {
	for _, x := range xs {
		d.u64(uint64(x))
	}
}

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
