package main

import (
	"errors"
	"math"
	"testing"
	"time"

	sip "repro"
)

func ms(vs ...float64) []time.Duration {
	out := make([]time.Duration, len(vs))
	for i, v := range vs {
		out[i] = time.Duration(v * float64(time.Millisecond))
	}
	return out
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
}

// A tail is reported only with at least ten samples beyond it, and the
// highest such grid percentile wins.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0, false},   // 9 beyond p90
		{100, 90, true},  // exactly 10 beyond p90
		{199, 90, true},  // 9 beyond p95
		{200, 95, true},  // exactly 10 beyond p95
		{999, 95, true},  // 9 beyond p99 (rank 990)
		{1000, 99, true}, // exactly 10 beyond p99
		{500000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: tail = p%g %v, want p%g %v", c.n, p, ok, c.p, c.ok)
		}
		if ok && beyond(c.n, p) < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, p), p)
		}
	}
	if got := percentile(seq(1000), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

// A client's rate is the median of its chunks' rates, so one stalled chunk
// does not move it.
func TestChunkRate(t *testing.T) {
	var ends []time.Duration
	at := time.Duration(0)
	for c := 0; c < 5; c++ {
		step := 100 * time.Millisecond
		if c == 2 {
			step = time.Second // a stall
		}
		for i := 0; i < 10; i++ {
			at += step
			ends = append(ends, at)
		}
	}
	if got := chunkRate(ends, 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate = %g, want 10/s", got)
	}
	if got := chunkRate(ends[:4], 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate without a whole chunk = %g, want 10/s", got)
	}
	if got := chunkRate(nil, 10); got != 0 {
		t.Errorf("rate of nothing = %g", got)
	}
}

// The geomean is over kinds' medians: the number of samples per kind does
// not weight it, and empty kinds are skipped.
func TestGeomeanOfMediansAcrossKinds(t *testing.T) {
	byKind := [][]time.Duration{
		ms(1, 1, 1),          // median 1
		ms(4, 4, 4, 4, 4, 4), // median 4, twice the samples
		nil,
	}
	if got := geomeanOfMedians(byKind); math.Abs(got-2) > 1e-9 {
		t.Errorf("geomean = %g, want 2", got)
	}
	// A slow kind's samples flip a pooled p50 between classes; they move
	// the geomean only through that kind's median.
	if got := geomeanOfMedians([][]time.Duration{ms(60, 60, 61), ms(150, 151, 150)}); math.Abs(got-math.Sqrt(60*150)) > 1e-6 {
		t.Errorf("geomean = %g, want %g", got, math.Sqrt(60*150))
	}
	if got := geomeanOfMedians(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

// failed_frac counts refused queries and wrong answers against every query
// attempted, including those two kinds.
func TestFailedFracBaseIncludesRefusedAndWrong(t *testing.T) {
	tl := newTally(1)
	tl.out.ok = 8
	tl.fail(false, errors.New("refused"))
	tl.fail(true, errors.New("wrong answer"))
	if got := tl.out.attempted(); got != 10 {
		t.Fatalf("attempted = %d, want 10", got)
	}
	if got := tl.out.failed(); got != 2 {
		t.Fatalf("failed = %d, want 2", got)
	}
	if got := tl.out.failedFrac(); got != 0.2 {
		t.Errorf("failed_frac = %g, want 0.2", got)
	}
	if tl.firstErr == nil || tl.firstErr.Error() != "refused" {
		t.Errorf("first error = %v, want the first failure", tl.firstErr)
	}
	var merged outcomes
	merged.add(tl.out)
	merged.add(outcomes{ok: 10})
	if got := merged.failedFrac(); got != 0.1 {
		t.Errorf("merged failed_frac = %g, want 0.1", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestAnswerMatchesWithinFloatTolerance(t *testing.T) {
	ref := canon([]sip.Row{{sip.Str("b"), sip.Float(1.0)}, {sip.Str("a"), sip.Float(1e6)}})
	if err := ref.matches([]sip.Row{{sip.Str("a"), sip.Float(1e6 * (1 + 1e-12))}, {sip.Str("b"), sip.Float(1.0)}}); err != nil {
		t.Errorf("reordered rows with a last-bit float difference: %v", err)
	}
	if err := ref.matches([]sip.Row{{sip.Str("a"), sip.Float(1e6 + 1)}, {sip.Str("b"), sip.Float(1.0)}}); err == nil {
		t.Error("a different sum matched")
	}
	if err := ref.matches([]sip.Row{{sip.Str("a"), sip.Float(1e6)}}); err == nil {
		t.Error("a missing row matched")
	}
	if err := ref.matches([]sip.Row{{sip.Str("a"), sip.Int(1000000)}, {sip.Str("b"), sip.Float(1.0)}}); err == nil {
		t.Error("an int matched a float")
	}
}

func TestGroupByAnswerHoldsEachGroupOnce(t *testing.T) {
	want := [][2]sip.Value{{sip.Str("A"), sip.Int(1)}, {sip.Str("B"), sip.Int(2)}}
	if err := matchGroups([]sip.Row{{sip.Str("B"), sip.Int(2)}, {sip.Str("A"), sip.Int(1)}}, want); err != nil {
		t.Errorf("reordered groups: %v", err)
	}
	if err := matchGroups([]sip.Row{{sip.Str("A"), sip.Int(1)}, {sip.Str("A"), sip.Int(1)}}, want); err == nil {
		t.Error("a repeated group standing in for a missing one matched")
	}
	if err := matchGroups([]sip.Row{{sip.Str("A"), sip.Int(1)}, {sip.Str("B"), sip.Int(3)}}, want); err == nil {
		t.Error("a wrong aggregate matched")
	}
	if err := matchGroups([]sip.Row{{sip.Str("A"), sip.Int(1)}}, want); err == nil {
		t.Error("a missing group matched")
	}
	if err := matchGroups([]sip.Row{{sip.Str("A"), sip.Int(1)}, {}}, want); err == nil {
		t.Error("an empty row matched")
	}
}
