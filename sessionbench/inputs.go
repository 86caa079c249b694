package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"repro/bugdoc"
	"repro/internal/predicate"
	"repro/internal/synth"
)

// maxFailShare is synth.Config's default MaxFailFraction. synth enforces it
// only when the space's size fits in 64 bits, so a planted cause such as
// p00 != v over fifteen parameters can cover nearly every instance; seeding
// then never draws a succeeding run and the session fails. The benchmark
// applies the rule to every pipeline it draws.
const maxFailShare = 0.5

// generatePipeline draws a disjunction-scenario pipeline within cfg,
// redrawing any whose planted causes cover more than maxFailShare of the
// space.
func generatePipeline(r *rand.Rand, cfg synth.Config) (*synth.Pipeline, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		p, err := synth.Generate(r, cfg, synth.Disjunction)
		if err != nil {
			return nil, err
		}
		share, err := failShare(p)
		if err != nil {
			return nil, err
		}
		if share <= maxFailShare {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no pipeline with at most %.0f%% failing instances in 1000 draws", 100*maxFailShare)
}

// failShare bounds the share of the space the planted causes cover: the sum
// over conjuncts of their regions' shares, which overlap only overstates.
func failShare(p *synth.Pipeline) (float64, error) {
	share := 0.0
	for _, c := range p.Truth {
		reg, err := predicate.RegionOf(p.Space, c)
		if err != nil {
			return 0, err
		}
		f := 1.0
		for i := 0; i < p.Space.Len(); i++ {
			prm := p.Space.At(i)
			f *= float64(len(reg.AllowedValues(prm.Name))) / float64(len(prm.Domain))
		}
		share += f
	}
	return share, nil
}

// truthOracle is the zero-latency black box the sessions debug: an
// instance fails exactly when it satisfies the pipeline's planted causes.
// It counts its runs and, in the traced run, records each as an "oracle"
// span under the session phase that caused it.
type truthOracle struct {
	truth predicate.DNF
	tr    *tracer
	calls atomic.Int64
}

func (o *truthOracle) Run(_ context.Context, in bugdoc.Instance) (bugdoc.Outcome, error) {
	id := o.tr.call("oracle")
	o.calls.Add(1)
	out := outcomeOf(o.truth, in)
	o.tr.end(id)
	return out, nil
}

func outcomeOf(truth predicate.DNF, in bugdoc.Instance) bugdoc.Outcome {
	if truth.Satisfied(in) {
		return bugdoc.Fail
	}
	return bugdoc.Succeed
}

// fingerprint hashes generated inputs, so two runs (on two commits, say)
// can show they debugged identical pipelines and histories.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f fingerprint) str(s string) {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
}

// pipeline hashes a pipeline's space and its ground truth.
func (f fingerprint) pipeline(p *synth.Pipeline) {
	f.u64(p.Space.Fingerprint())
	f.str(p.Truth.String())
	for _, m := range p.Minimal {
		f.str(m.String())
	}
}

func (f fingerprint) sum() uint64 { return f.h.Sum64() }

// recordsDigest folds a store's records into an order-independent
// checksum, so a resumed store can be compared with the one that was
// logged.
func recordsDigest(st *bugdoc.Store) uint64 {
	var d uint64
	for _, r := range st.Snapshot().Records() {
		d += mix(r.Instance.Hash() ^ (uint64(r.Outcome) << 56))
	}
	return d
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
