package optimizer

import (
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// awaitsByTable maps each scanned table to the points its scan awaits
// (tables scanned once only).
func awaitsByTable(op exec.Op, out map[string][]*exec.Point) {
	switch v := op.(type) {
	case *exec.Scan:
		out[v.Table] = v.Await
	case *exec.Filter:
		awaitsByTable(v.Child, out)
	case *exec.Project:
		awaitsByTable(v.Child, out)
	case *exec.HashJoin:
		awaitsByTable(v.Left, out)
		awaitsByTable(v.Right, out)
	case *exec.HashAgg:
		awaitsByTable(v.Child, out)
	case *exec.Distinct:
		awaitsByTable(v.Child, out)
	}
}

// TestHoldPlanQ4A pins the hold plan of TPC-H Q5 (Q4A): lineitem, the
// largest input, waits for the join input that carries the filtered orders
// and the supplier side (its l_orderkey and l_suppkey filters); orders
// waits for the customer/supplier side; region, the smallest, never waits.
func TestHoldPlanQ4A(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.01})
	spec, _ := workload.ByID("Q4A")
	blk, err := plan.BindSQL(cat, spec.SQL(cat))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	awaits := map[string][]*exec.Point{}
	awaitsByTable(res.Root, awaits)

	covers := func(scan string, tables ...string) bool {
		for _, p := range awaits[scan] {
			if !p.Stateful {
				t.Fatalf("%s awaits stateless point %s", scan, p.Name)
			}
			ok := true
			for _, tbl := range tables {
				ok = ok && slices.Contains(p.Tables, tbl)
			}
			if ok {
				return true
			}
		}
		return false
	}
	if !covers("lineitem", "orders", "supplier") {
		t.Errorf("lineitem should await the orders/supplier side; awaits %v", names(awaits["lineitem"]))
	}
	if !covers("orders", "customer", "supplier") {
		t.Errorf("orders should await the customer/supplier side; awaits %v", names(awaits["orders"]))
	}
	if len(awaits["region"]) != 0 {
		t.Errorf("region, the smallest input, awaits %v", names(awaits["region"]))
	}
}

func names(ps []*exec.Point) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestHoldInstantiateRemapsAwait: a run's scans must hold on the run's own
// points. Points are matched by name, and no clone may point back into the
// template.
func TestHoldInstantiateRemapsAwait(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.01})
	spec, _ := workload.ByID("Q4A")
	blk, err := plan.BindSQL(cat, spec.SQL(cat))
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tmpl.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, got := map[string][]*exec.Point{}, map[string][]*exec.Point{}
	awaitsByTable(tmpl.Root, want)
	awaitsByTable(run.Root, got)
	for tbl, ps := range want {
		if len(got[tbl]) != len(ps) {
			t.Fatalf("%s: %d awaited points after Instantiate, want %d", tbl, len(got[tbl]), len(ps))
		}
		for i, p := range got[tbl] {
			if p == ps[i] || p.Name != ps[i].Name || !slices.Contains(run.Points, p) {
				t.Fatalf("%s: awaited point %s not remapped to the run's clone", tbl, p.Name)
			}
		}
	}
}
