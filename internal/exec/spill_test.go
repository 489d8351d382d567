package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// spillJoin builds a join whose state is dominated by a wide string payload
// column, with duplicate keys (multi-match chains) and a residual predicate,
// so the spill path is exercised on the same shape the differential morsel
// tests use. With hot > 0 the first hot left rows share one key, which
// eight right rows also carry, so that key's chain crosses entry chunks
// through probe, eviction and merge. The right input then starts only
// after the left is stored whole (a 300 ms delay), so the unbounded peak
// is the left side's state rather than a race between the inputs, and its
// payload is eight times as wide, making the left the merge's build side.
func spillJoin(n, pad, hot int) *HashJoin {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "x", Kind: types.KindString},
		types.Column{Table: "t", Name: "p", Kind: types.KindInt},
	)
	lfill, rfill := strings.Repeat("x", pad), strings.Repeat("x", pad)
	if hot > 0 {
		rfill = strings.Repeat("x", 8*pad)
	}
	const hotKey = 211 // no other row's key: they are taken mod 211
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lkey, rkey := int64(i%211), int64((n-1-i)%211)
		if i < hot {
			lkey = hotKey
		}
		if hot > 0 && i%(n/8) == 0 {
			rkey = hotKey
		}
		lrows[i] = types.Tuple{types.Int(lkey), types.Str(lfill), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(rkey), types.Str(rfill), types.Int(int64(i))}
	}
	l := &Scan{Name: "l", Rows: lrows, Sch: sch}
	r := &Scan{Name: "r", Rows: rrows, Sch: sch}
	if hot > 0 {
		r.Delay = &DelayConfig{Initial: 300 * time.Millisecond}
	}
	res := &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 2, Col: types.Column{Kind: types.KindInt}},
		R: &expr.ColRef{Idx: 5, Col: types.Column{Kind: types.KindInt}},
	}
	return NewHashJoin("j", l, r, []int{0}, []int{0}, res)
}

// runSpill runs op under the given scheduler and memory budget, returning
// the rows and the Context so callers can read the accounting counters.
func runSpill(op Op, budget int64, parallelism int, scheduler string) ([]types.Tuple, *Context, error) {
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = parallelism
	ctx.Scheduler = scheduler
	ctx.MemBudget = budget
	rows, err := Run(ctx, op)
	ctx.Cleanup()
	return rows, ctx, err
}

// TestJoinSpillDifferential is the core out-of-core acceptance property:
// a budget-capped run must produce byte-identical results to the unbounded
// run, on both schedulers, while actually spilling, and with the tracked
// peak held near the budget. The second input has fewer, fuller partitions,
// so the merge must split a partition's build side into F ≥ 4 sub-buckets
// (one build table and one probe scan per sub-bucket). The third stores a
// hot key's chain across more than three entry chunks; one key cannot be
// split into sub-buckets, so its merge table alone is about half the left
// side's state, and its budget is peak/2.
func TestJoinSpillDifferential(t *testing.T) {
	for _, in := range []struct {
		n, pad, P, hot int
		divs           []int64
		minFanout      int64 // some partition's merge fans out at least this far
	}{
		{n: 4000, pad: 64, P: 4, divs: []int64{4, 16}, minFanout: 1},
		{n: 6000, pad: 128, P: 2, divs: []int64{4}, minFanout: 4},
		{n: 6000, pad: 16, P: 2, hot: 3*joinChunkSize + 500, divs: []int64{2}, minFanout: 1},
	} {
		want, base, err := runSpill(spillJoin(in.n, in.pad, in.hot), 0, in.P, SchedulerChan)
		if err != nil {
			t.Fatalf("n=%d unbounded run: %v", in.n, err)
		}
		if base.SpillEvents() != 0 {
			t.Fatalf("n=%d unbounded run spilled %d times", in.n, base.SpillEvents())
		}
		peak := base.PeakTrackedBytes()
		if peak == 0 {
			t.Fatalf("n=%d unbounded run tracked no state bytes", in.n)
		}
		wantS := rowStrings(want)
		if in.hot > 0 {
			j := spillJoin(in.n, in.pad, in.hot)
			ref := nestedLoopJoin(j.Left.(*Scan).Rows, j.Right.(*Scan).Rows, j.Residual)
			sameRows(t, fmt.Sprintf("n=%d unbounded vs nested loop", in.n), rowStrings(ref), wantS)
		}

		for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
			for _, div := range in.divs {
				label := fmt.Sprintf("%s n=%d hot=%d budget=peak/%d", sched, in.n, in.hot, div)
				budget := peak / div
				got, ctx, err := runSpill(spillJoin(in.n, in.pad, in.hot), budget, in.P, sched)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameRows(t, label, wantS, rowStrings(got))
				if ctx.SpillEvents() == 0 {
					t.Fatalf("%s: no spill events at budget %d (peak %d)", label, budget, peak)
				}
				if ctx.SpillBytes() == 0 {
					t.Fatalf("%s: spill events but no spill bytes", label)
				}
				// The budget is honored up to one batch of transient growth per
				// partition (growth is checked after each scatter is absorbed).
				slack := budget/2 + 128<<10
				if p := ctx.PeakTrackedBytes(); p > budget+slack {
					t.Fatalf("%s: peak tracked %d exceeds budget %d + slack %d",
						label, p, budget, slack)
				}
				// Passes sum F over at most P spilled partitions, so
				// minFanout·P passes means some partition reached it.
				var passes int64
				for _, op := range ctx.Stats.Ops() {
					passes += op.SpillPasses.Load()
				}
				if passes < in.minFanout*int64(in.P) {
					t.Fatalf("%s: %d merge passes over %d partitions, want F ≥ %d",
						label, passes, in.P, in.minFanout)
				}
			}
		}
	}
}

// spillAgg builds a grouped aggregation whose state is dominated by wide
// string group keys, with sum/count/min/max/avg accumulators.
func spillAgg(n, groups int) *HashAgg {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "g", Kind: types.KindInt},
		types.Column{Table: "t", Name: "s", Kind: types.KindString},
		types.Column{Table: "t", Name: "v", Kind: types.KindInt},
	)
	keys := make([]string, groups)
	for i := range keys {
		keys[i] = fmt.Sprintf("group-%04d-%s", i, strings.Repeat("k", 64))
	}
	rows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		g := i % groups
		rows[i] = types.Tuple{types.Int(int64(g)), types.Str(keys[g]), types.Int(int64(i % 1000))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: sch}
	gb := []expr.Expr{
		&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}},
		&expr.ColRef{Idx: 1, Col: types.Column{Name: "s", Kind: types.KindString}},
	}
	v := func() expr.Expr { return &expr.ColRef{Idx: 2, Col: types.Column{Kind: types.KindInt}} }
	aggs := []plan.AggSpec{
		{Func: plan.AggSum, Arg: v(), Name: "sum"},
		{Func: plan.AggCountStar, Name: "cnt"},
		{Func: plan.AggMin, Arg: v(), Name: "min"},
		{Func: plan.AggMax, Arg: v(), Name: "max"},
		{Func: plan.AggAvg, Arg: v(), Name: "avg"},
	}
	osch := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "sum", Kind: types.KindInt},
		types.Column{Name: "cnt", Kind: types.KindInt},
		types.Column{Name: "min", Kind: types.KindInt},
		types.Column{Name: "max", Kind: types.KindInt},
		types.Column{Name: "avg", Kind: types.KindFloat},
	)
	return NewHashAgg("a", scan, gb, aggs, osch)
}

// spillDistinct builds a dedup over wide two-column tuples with duplicates.
func spillDistinct(n, uniq int) *Distinct {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "s", Kind: types.KindString},
	)
	keys := make([]string, uniq)
	for i := range keys {
		keys[i] = fmt.Sprintf("val-%04d-%s", i, strings.Repeat("d", 64))
	}
	rows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		u := i % uniq
		rows[i] = types.Tuple{types.Int(int64(u)), types.Str(keys[u])}
	}
	return &Distinct{Name: "d", Child: &Scan{Name: "t", Rows: rows, Sch: sch}}
}

// TestAggSpillDifferential: capped aggregation must merge spilled group
// snapshots back to exactly the unbounded result, on both schedulers.
func TestAggSpillDifferential(t *testing.T) {
	const n, groups = 24000, 1500
	want, base, err := runSpill(spillAgg(n, groups), 0, 4, SchedulerChan)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if len(want) != groups {
		t.Fatalf("baseline groups = %d, want %d", len(want), groups)
	}
	peak := base.PeakTrackedBytes()
	if peak == 0 {
		t.Fatal("unbounded run tracked no state bytes")
	}
	wantS := rowStrings(want)
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		for _, div := range []int64{4, 16} {
			budget := peak / div
			got, ctx, err := runSpill(spillAgg(n, groups), budget, 4, sched)
			if err != nil {
				t.Fatalf("%s budget=peak/%d: %v", sched, div, err)
			}
			sameRows(t, sched, wantS, rowStrings(got))
			if ctx.SpillEvents() == 0 {
				t.Fatalf("%s budget=peak/%d: no spill events at budget %d (peak %d)",
					sched, div, budget, peak)
			}
			slack := budget/2 + 128<<10
			if p := ctx.PeakTrackedBytes(); p > budget+slack {
				t.Fatalf("%s budget=peak/%d: peak tracked %d exceeds budget %d + slack %d",
					sched, div, p, budget, slack)
			}
		}
	}
}

// TestDistinctSpillDifferential: capped dedup must emit each distinct tuple
// exactly once — pipelined before the first eviction, replayed from the run
// after — on both schedulers.
func TestDistinctSpillDifferential(t *testing.T) {
	const n, uniq = 20000, 2500
	want, base, err := runSpill(spillDistinct(n, uniq), 0, 4, SchedulerChan)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if len(want) != uniq {
		t.Fatalf("baseline distinct = %d, want %d", len(want), uniq)
	}
	peak := base.PeakTrackedBytes()
	wantS := rowStrings(want)
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		for _, div := range []int64{4, 16} {
			budget := peak / div
			got, ctx, err := runSpill(spillDistinct(n, uniq), budget, 4, sched)
			if err != nil {
				t.Fatalf("%s budget=peak/%d: %v", sched, div, err)
			}
			sameRows(t, sched, wantS, rowStrings(got))
			if ctx.SpillEvents() == 0 {
				t.Fatalf("%s budget=peak/%d: no spill events at budget %d (peak %d)",
					sched, div, budget, peak)
			}
			slack := budget/2 + 128<<10
			if p := ctx.PeakTrackedBytes(); p > budget+slack {
				t.Fatalf("%s budget=peak/%d: peak tracked %d exceeds budget %d + slack %d",
					sched, div, p, budget, slack)
			}
		}
	}
}

// TestAggSpillTinyBudget: grouped aggregation under an unworkable budget
// fails with the typed error on both schedulers.
func TestAggSpillTinyBudget(t *testing.T) {
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		_, _, err := runSpill(spillAgg(24000, 1500), 2<<10, 4, sched)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError", sched, err)
		}
	}
}

// TestDistinctSpillTinyBudget: dedup under an unworkable budget fails with
// the typed error on both schedulers.
func TestDistinctSpillTinyBudget(t *testing.T) {
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		_, _, err := runSpill(spillDistinct(20000, 2500), 1<<10, 4, sched)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError", sched, err)
		}
	}
}

// TestJoinSpillTinyBudget: a budget too small for even the maximum merge
// fan-out must fail promptly with a typed *BudgetError, not thrash.
func TestJoinSpillTinyBudget(t *testing.T) {
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		rows, ctx, err := runSpill(spillJoin(3000, 128, 0), 4<<10, 4, sched)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError (rows=%d spills=%d spillBytes=%d peak=%d)",
				sched, err, len(rows), ctx.SpillEvents(), ctx.SpillBytes(), ctx.PeakTrackedBytes())
		}
		if be.Need <= 4<<10 {
			t.Fatalf("%s: BudgetError.Need = %d, not above the budget", sched, be.Need)
		}
	}
}
