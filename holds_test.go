package sip

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/workload"
)

// holdQueries are the paper queries the hold-plan properties are checked on;
// Q1A and Q2A scan a table twice.
var holdQueries = []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A", "Q2E", "Q4B"}

// scansOf lists the base-table scans of a physical plan.
func scansOf(op exec.Op) []*exec.Scan {
	switch v := op.(type) {
	case *exec.Scan:
		return []*exec.Scan{v}
	case *exec.Filter:
		return scansOf(v.Child)
	case *exec.Project:
		return scansOf(v.Child)
	case *exec.Ship:
		return scansOf(v.Child)
	case *exec.HashJoin:
		return append(scansOf(v.Left), scansOf(v.Right)...)
	case *exec.HashAgg:
		return scansOf(v.Child)
	case *exec.Distinct:
		return scansOf(v.Child)
	}
	return nil
}

// holdEdge is one wait edge of a plan's hold plan.
type holdEdge struct {
	scan *exec.Scan
	p    *exec.Point
}

func holdEdges(t *testing.T, e *Engine, sql string, opts Options) (edges []holdEdge, tables []string) {
	t.Helper()
	p, err := e.buildPlan(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scansOf(p.built.Root) {
		if !slices.Contains(tables, s.Table) {
			tables = append(tables, s.Table)
		}
		for _, pt := range s.Await {
			edges = append(edges, holdEdge{s, pt})
		}
	}
	return edges, tables
}

// TestHoldPlanProperties checks the hold plan's safety rules on the paper
// queries: every wait edge points from a scan to producers over strictly
// smaller, different tables (so no cycle can form and a self-join never
// waits on itself), producers fed by a delayed or faulted source are never
// waited on, and a paced plan or one reading a remote relation holds
// nothing.
func TestHoldPlanProperties(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngine(cat)
	rows := func(name string) int64 {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.NumRows()
	}
	for _, id := range holdQueries {
		spec, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		sql := spec.SQL(cat)
		for _, s := range []Strategy{FeedForward, CostBased} {
			edges, tables := holdEdges(t, e, sql, Options{Strategy: s})
			if len(edges) == 0 {
				t.Errorf("%s/%v: no scan holds", id, s)
			}
			for _, ed := range edges {
				for _, tbl := range ed.p.Tables {
					if tbl == ed.scan.Table {
						t.Errorf("%s/%v: %s waits on %s, which %s itself feeds", id, s, ed.scan.Name, ed.p.Name, tbl)
					}
					if rows(tbl) >= rows(ed.scan.Table) {
						t.Errorf("%s/%v: %s (%d rows) waits on %s over %s (%d rows)",
							id, s, ed.scan.Name, rows(ed.scan.Table), ed.p.Name, tbl, rows(tbl))
					}
				}
			}
			for _, x := range tables {
				variants := map[string]Options{
					"delayed": {Strategy: s, DelayedTables: []string{x}},
					"faulted": {Strategy: s, DelayedTables: []string{x}, Delay: &DelayConfig{},
						Faults: &FaultProfile{Seed: 1, TransientRate: 0.1}},
				}
				for name, opts := range variants {
					edges, _ := holdEdges(t, e, sql, opts)
					for _, ed := range edges {
						if slices.Contains(ed.p.Tables, x) {
							t.Errorf("%s/%v with %s %s: %s waits on %s", id, s, name, x, ed.scan.Name, ed.p.Name)
						}
					}
				}
			}
			holdNothing := map[string]Options{
				"paced":  {Strategy: s, SourceBytesPerSec: 1 << 30},
				"remote": {Strategy: s, RemoteTables: map[string]int{tables[0]: 1}},
			}
			for name, opts := range holdNothing {
				if edges, _ := holdEdges(t, e, sql, opts); len(edges) > 0 {
					t.Errorf("%s/%v %s: %d wait edges, want none", id, s, name, len(edges))
				}
			}
		}
	}
}

// lineitemSide returns the stats name of the join input fed by lineitem
// alone: the side Q4A's holds keep from buffering.
func lineitemSide(t *testing.T, points []*exec.Point) string {
	t.Helper()
	for _, p := range points {
		if p.Stateful && len(p.Tables) == 1 && p.Tables[0] == "lineitem" {
			return "join:" + p.Name
		}
	}
	t.Fatal("plan has no lineitem-only join input")
	return ""
}

func stateRows(res *Result, op string) int64 {
	for _, o := range res.Stats.Ops() {
		if o.Name == op {
			return o.StateRows.Load()
		}
	}
	return -1
}

// TestHoldPreparedConcurrent executes one prepared Q4A twice at once under
// Feed-forward. Both runs must finish with the Baseline answer, and both
// must show the hold's effect — lineitem starts after the other side of
// its join has published, so it buffers almost nothing — which only
// happens when each run's scans wait on that run's own points, not the
// template's.
func TestHoldPreparedConcurrent(t *testing.T) {
	e := testEngine(t)
	spec, _ := workload.ByID("Q4A")
	sql := spec.SQL(e.Catalog())
	want := canon(mustRows(t, e, sql, Options{}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stmt, err := e.PrepareWithOptions(ctx, sql, Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	side := lineitemSide(t, stmt.plan.built.Points)
	li, _ := e.Catalog().Table("lineitem")
	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = stmt.Query(ctx)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := canon(res.Rows); !equalStrings(got, want) {
			t.Fatalf("run %d: answer differs from Baseline", i)
		}
		if n := stateRows(res, side); n < 0 || n > li.NumRows()/4 {
			t.Fatalf("run %d: %s buffered %d of %d lineitem tuples; the scan did not hold", i, side, n, li.NumRows())
		}
	}
}

// TestHoldPaperEffect: at SF 0.05 on one core, Feed-forward Q4A without
// holds buffered ~168k lineitem tuples in the lineitem side of its top
// join, because lineitem raced ahead of the orders- and supplier-side
// filters. Held until they publish, it must buffer well under half that.
func TestHoldPaperEffect(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.05})
	e := NewEngine(cat)
	spec, _ := workload.ByID("Q4A")
	sql := spec.SQL(cat)
	p, err := e.buildPlan(sql, Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	side := lineitemSide(t, p.built.Points)
	res, err := e.Query(context.Background(), sql, Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	const unheldStored = 168_000
	n := stateRows(res, side)
	t.Logf("%s stored %d tuples; pruned %d; peak state %.1f MB", side, n, res.TuplesPruned, float64(res.PeakStateBytes)/(1<<20))
	if n < 0 || n > unheldStored/2 {
		t.Fatalf("%s stored %d tuples, want < %d", side, n, unheldStored/2)
	}
}
