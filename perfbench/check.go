package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// checkReplies verifies every distinct /query reply: its shape and
// primitive echo the request, its partition fits the shape's wave count,
// and its predicted_ns equals Algorithm 1 over the same sampled curve. It
// returns the number of requests that received a wrong reply and a
// description of the first few.
func checkReplies(g *loadgen, shapes []gemm.Shape, curve *stats.Curve) (int, []string) {
	plat := platform()
	waveSize := plat.GPU.SMs - plat.CommSMs
	bad := 0
	var why []string
	for _, r := range g.replies {
		s := shapes[r.key]
		err := checkReply(r.body, s, plat, waveSize, curve)
		if err == nil {
			continue
		}
		bad += r.count
		if len(why) < 3 {
			why = append(why, fmt.Sprintf("query %v: %v", s, err))
		}
	}
	return bad, why
}

func checkReply(body []byte, s gemm.Shape, plat hw.Platform, waveSize int, curve *stats.Curve) error {
	var rr shard.RoutedResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if rr.Shape != s.String() || rr.Primitive != hw.AllReduce.String() {
		return fmt.Errorf("reply names %s %s", rr.Shape, rr.Primitive)
	}
	plan, err := gemm.NewPlan(s, gemm.DefaultConfig(s))
	if err != nil {
		return err
	}
	part := gemm.Partition(rr.Partition)
	if err := part.Validate(plan.Waves(waveSize)); err != nil {
		return fmt.Errorf("partition %v: %w", part, err)
	}
	if rr.Waves != part.TotalWaves() {
		return fmt.Errorf("waves %d, partition totals %d", rr.Waves, part.TotalWaves())
	}
	pred, err := tuner.NewPredictor(plat, s, gemm.Config{}, curve, 1)
	if err != nil {
		return err
	}
	want, err := pred.Predict(part)
	if err != nil {
		return err
	}
	if rr.PredictedNs != int64(want) {
		return fmt.Errorf("predicted_ns %d, Algorithm 1 gives %d", rr.PredictedNs, int64(want))
	}
	return nil
}

// resultsDigest hashes the serialized execution results in grid order: the
// bytes a byte-identity check compares.
func resultsDigest(results []*core.Result) ([32]byte, error) {
	h := sha256.New()
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return [32]byte{}, fmt.Errorf("encoding result %d: %w", i, err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// mixedReference runs the sweep grid in-process through engine.MixedBatch
// with the sweep's top-k and rank quantum, on an engine seeded with the
// fleet's curves, and returns the digest a correct fleet sweep must match.
func mixedReference(ctx context.Context, items []serve.SweepItem, topK int, curves map[hw.Primitive]*stats.Curve) ([32]byte, error) {
	eng := engine.New(0, 0)
	for p, c := range curves {
		eng.SeedCurve(platform(), nGPUs, p, c)
	}
	runs := make([]core.Options, len(items))
	for i, it := range items {
		q, err := it.Query()
		if err != nil {
			return [32]byte{}, err
		}
		runs[i] = core.Options{Plat: platform(), NGPUs: nGPUs, Shape: q.Shape, Prim: q.Prim, Imbalance: q.Imbalance}
	}
	results, _, err := eng.MixedBatch(ctx, runs, topK, 0)
	if err != nil {
		return [32]byte{}, err
	}
	return resultsDigest(results)
}

// oracleDigest fingerprints a Fig. 15 pass's simulated statistics.
func oracleDigest(results []expt.Fig15Result) string {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "%s", r.Plat)
		for _, x := range r.ErrorsPct {
			fmt.Fprintf(&b, " %x", math.Float64bits(x))
		}
		for _, x := range r.SearchQuality {
			fmt.Fprintf(&b, " %x", math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))[:16]
}

// checkOracle holds a Fig. 15 pass to the paper's claims (§6.5): mean
// prediction error under 5% and predictive search within 1% of the
// exhaustive optimum, on every platform.
func checkOracle(results []expt.Fig15Result) error {
	if len(results) == 0 {
		return fmt.Errorf("fig15: no platforms")
	}
	for _, r := range results {
		if !(r.MeanPct < 5) {
			return fmt.Errorf("fig15 %s: mean error %.2f%% >= 5%%", r.Plat, r.MeanPct)
		}
		if !(r.MinQuality >= 0.99) {
			return fmt.Errorf("fig15 %s: search quality %.4f < 0.99", r.Plat, r.MinQuality)
		}
	}
	return nil
}
