package stacks_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/stacks"
)

// fuzzStacks decodes a byte string into two stall-event stacks and a latency
// assignment: three float64 streams, folded into sane non-negative finite
// ranges so the fuzzer explores the metric rather than IEEE corner cases the
// domain never produces (counts and latencies are finite and non-negative by
// construction).
func fuzzStacks(data []byte) (a, b stacks.Stack, l stacks.Latencies) {
	fold := func(i int, scale float64) float64 {
		var u uint64
		off := i * 8
		if off+8 <= len(data) {
			u = binary.LittleEndian.Uint64(data[off : off+8])
		}
		v := math.Abs(math.Float64frombits(u))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = float64(u % 1000)
		}
		v = math.Mod(v, scale)
		if v < 1e-9 {
			v = 0 // flush denormal-range folds: products of real counts and latencies never underflow
		}
		return v
	}
	n := int(stacks.NumEvents)
	for e := 0; e < n; e++ {
		a.Counts[e] = fold(e, 1e6)
		b.Counts[e] = fold(n+e, 1e6)
		l[e] = fold(2*n+e, 300)
	}
	return a, b, l
}

// FuzzSimilarity checks the metric axioms of the paper's modified cosine
// similarity (Figure 9) on arbitrary stack pairs: the result is within
// [0, 1], exactly symmetric, 1 on self-comparison, and 1 between any stack
// and a positive scaling of itself (the normalization property the merge
// threshold relies on).
func FuzzSimilarity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed := make([]byte, int(stacks.NumEvents)*3*8)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, l := fuzzStacks(data)
		s := stacks.Similarity(&a, &b, &l)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("similarity %g outside [0, 1]", s)
		}
		if r := stacks.Similarity(&b, &a, &l); r != s {
			t.Fatalf("asymmetric: sim(a,b)=%g sim(b,a)=%g", s, r)
		}
		if self := stacks.Similarity(&a, &a, &l); math.Abs(self-1) > 1e-9 {
			t.Fatalf("self-similarity %g, want 1", self)
		}
		// Per-dimension max-normalization makes the metric scale-invariant.
		var scaled stacks.Stack
		for i, c := range a.Counts {
			scaled.Counts[i] = 3 * c
		}
		if s := stacks.Similarity(&a, &scaled, &l); math.Abs(s-1) > 1e-9 {
			t.Fatalf("similarity to own scaling %g, want 1", s)
		}
	})
}
