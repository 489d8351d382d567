package sip

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

// TestAdhocParameterizationSharesPlans pins the literal-parameterization
// contract: ad-hoc queries differing only in constants compile once and
// share a single cached template, and the parameterized execution returns
// exactly what the literal plan would have.
func TestAdhocParameterizationSharesPlans(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{})
	ctx := context.Background()

	// Reference results from an engine with the cache disabled (every call
	// takes the literal path).
	ref := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})

	for i := 0; i < 5; i++ {
		sql := fmt.Sprintf(`SELECT n_name FROM nation WHERE n_nationkey = %d`, i)
		got, err := e.Query(ctx, sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(ctx, sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("q%d: %d rows, want %d", i, len(got.Rows), len(want.Rows))
		}
		for r := range got.Rows {
			if got.Rows[r].String() != want.Rows[r].String() {
				t.Fatalf("q%d row %d: %v, want %v", i, r, got.Rows[r], want.Rows[r])
			}
		}
	}
	cs := e.PlanCacheStats()
	if cs.Entries != 1 || cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("5 literal variants should share one template: %+v", cs)
	}

	// Mixed literal kinds (float, string, date) parameterize too.
	for _, sql := range []string{
		`SELECT count(*) FROM part WHERE p_retailprice > 901.00`,
		`SELECT count(*) FROM part WHERE p_retailprice > 1200.50`,
		`SELECT count(*) FROM orders WHERE o_orderdate < '1995-03-15'`,
		`SELECT count(*) FROM orders WHERE o_orderdate < '1996-01-02'`,
		// The paper's loose date form must bind as an argument too.
		`SELECT count(*) FROM orders WHERE o_orderdate < '1995-1-1'`,
	} {
		if _, err := e.Query(ctx, sql, Options{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	cs = e.PlanCacheStats()
	if cs.Entries != 3 { // nation template + price template + date template
		t.Fatalf("expected 3 templates, got %+v", cs)
	}
}

// TestAdhocParameterizationFallbacks covers the statements that must NOT
// parameterize: LIKE patterns (the grammar requires a literal pattern),
// user placeholders (prepared-statement territory), and literal-free text.
func TestAdhocParameterizationFallbacks(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{})
	ctx := context.Background()

	// LIKE keeps its pattern inline; the remaining literal still lifts.
	res, err := e.Query(ctx, `SELECT count(*) FROM part WHERE p_type LIKE '%BRASS%' AND p_size > 0`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I == 0 {
		t.Fatalf("LIKE query returned %v", res.Rows)
	}

	// Ad-hoc text with a user `?` still refuses with the Prepare hint.
	_, err = e.Query(ctx, `SELECT n_name FROM nation WHERE n_nationkey = ?`, Options{})
	if err == nil || !strings.Contains(err.Error(), "Prepare") {
		t.Fatalf("placeholder query error = %v, want Prepare hint", err)
	}

	// Literal-free queries run on the plain path and still cache.
	if _, err := e.Query(ctx, `SELECT count(*) FROM nation`, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, `SELECT count(*) FROM nation`, Options{}); err != nil {
		t.Fatal(err)
	}
	if cs := e.PlanCacheStats(); cs.Hits == 0 {
		t.Fatalf("literal-free repeat did not hit: %+v", cs)
	}

	// A syntactically invalid statement reports the error against the
	// user's own source, not the normalized text.
	_, err = e.Query(ctx, `SELECT FROM nation WHERE n_nationkey = 1`, Options{})
	if err == nil {
		t.Fatal("invalid SQL did not error")
	}
}

// TestSlowQueryLog pins the engine-level slow-query log: queries at or over
// the threshold are recorded with their source text, most recent first, and
// fast queries stay out.
func TestSlowQueryLog(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{SlowQueryThreshold: 1}) // 1ns: everything is slow
	ctx := context.Background()

	sqls := []string{
		`SELECT count(*) FROM nation WHERE n_nationkey = 1`,
		`SELECT count(*) FROM region WHERE r_regionkey = 2`,
	}
	for _, sql := range sqls {
		if _, err := e.Query(ctx, sql, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.SlowQueryCount(); n != 2 {
		t.Fatalf("SlowQueryCount = %d, want 2", n)
	}
	got := e.SlowQueries()
	if len(got) != 2 {
		t.Fatalf("SlowQueries returned %d entries, want 2", len(got))
	}
	// Most recent first.
	if got[0].SQL != sqls[1] || got[1].SQL != sqls[0] {
		t.Fatalf("slow log order: %q then %q", got[0].SQL, got[1].SQL)
	}
	if got[0].Duration <= 0 || got[0].At.IsZero() {
		t.Fatalf("slow entry not stamped: %+v", got[0])
	}

	// Threshold zero disables the log.
	off := NewEngineWithConfig(cat, EngineConfig{})
	if _, err := off.Query(ctx, sqls[0], Options{}); err != nil {
		t.Fatal(err)
	}
	if n := off.SlowQueryCount(); n != 0 {
		t.Fatalf("disabled slow log recorded %d", n)
	}

	// The ring keeps only the newest slowLogSize entries but counts all.
	for i := 0; i < slowLogSize+10; i++ {
		if _, err := e.Query(ctx, fmt.Sprintf(`SELECT count(*) FROM nation WHERE n_nationkey = %d`, i), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.SlowQueryCount(); n != int64(2+slowLogSize+10) {
		t.Fatalf("SlowQueryCount = %d, want %d", n, 2+slowLogSize+10)
	}
	if got := e.SlowQueries(); len(got) != slowLogSize {
		t.Fatalf("ring held %d entries, want %d", len(got), slowLogSize)
	}
}

// TestAdhocUnparameterizableShapeBuildsOnce pins the literal-only cache
// entry: a statement whose normalized text fails to build (a literal divisor
// of an aggregate, the shape of Q2A/Q2E) pays the failing normalized build
// on its first execution only. Later executions hit the shape's entry and
// the literal plan, so they miss nothing and therefore build nothing.
func TestAdhocUnparameterizableShapeBuildsOnce(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{})
	ref := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})
	ctx := context.Background()

	const sql = `SELECT sum(l_extendedprice) / 7.0 FROM lineitem WHERE l_quantity < 10`
	norm, _, ok := sqlparser.Normalize(sql)
	if !ok {
		t.Fatal("statement did not normalize")
	}
	if _, err := e.buildPlan(norm, Options{}); err == nil {
		t.Fatalf("normalized text %q built; the test needs a shape that does not parameterize", norm)
	}

	want, err := ref.Query(ctx, sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := e.Query(ctx, sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 1 || got.Rows[0].String() != want.Rows[0].String() {
			t.Fatalf("execution %d: rows %v, want %v", i, got.Rows, want.Rows)
		}
		cs := e.PlanCacheStats()
		// First execution: the normalized and the literal lookups both miss.
		// Every later one: both hit.
		if cs.Misses != 2 || cs.Hits != int64(2*i) {
			t.Fatalf("execution %d: cache stats %+v, want 2 misses and %d hits", i, cs, 2*i)
		}
	}

	// An invalid statement leaves no literal-only entry behind.
	before := e.PlanCacheStats().Entries
	if _, err := e.Query(ctx, `SELECT sum(no_such_column) / 7.0 FROM lineitem WHERE l_quantity < 10`, Options{}); err == nil {
		t.Fatal("invalid statement did not error")
	}
	if after := e.PlanCacheStats().Entries; after != before {
		t.Fatalf("invalid statement added %d cache entries", after-before)
	}

	// The normalized text itself still fails to build, prepared or ad hoc:
	// the literal-only entry under its key is never handed out as a plan.
	if _, err := e.Prepare(ctx, norm); err == nil {
		t.Fatalf("Prepare(%q) succeeded", norm)
	}
	if _, err := e.Query(ctx, norm, Options{}); err == nil {
		t.Fatalf("Query(%q) succeeded", norm)
	}
}
