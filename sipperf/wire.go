package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	sip "repro"
	"repro/internal/server"
)

// Query kinds of the wire mix, with their shares in tenths.
const (
	kindNation   = iota // prepared nation lookup by key: 6/10
	kindSupplier        // ad-hoc supplier point lookup: 3/10
	kindGroupBy         // ad-hoc supplier⋈nation GROUP BY, plan-cache miss: 1/10
)

const nationSQL = "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = ?"

// gbShape is one ad-hoc GROUP BY statement shape. The shapes differ in
// their normalized text, so each is its own plan-cache entry; there are
// more of them than the engine's 64-plan cache holds.
type gbShape struct {
	agg, group, pred int
	region           bool
}

var (
	gbAggs   = []string{"count(*)", "sum(s_acctbal)", "min(s_acctbal)", "max(s_acctbal)"}
	gbGroups = []string{"n_name", "n_regionkey"}
	gbPreds  = []string{"s_acctbal > ", "s_acctbal < ", "s_suppkey < ", "s_suppkey > ", "s_nationkey < ", "s_nationkey > "}
)

func allShapes() []gbShape {
	var out []gbShape
	for a := range gbAggs {
		for g := range gbGroups {
			for p := range gbPreds {
				for _, r := range []bool{false, true} {
					out = append(out, gbShape{a, g, p, r})
				}
			}
		}
	}
	return out
}

// wireQuery is one generated query of the wire mix.
type wireQuery struct {
	kind  int
	key   int64 // nation or supplier key
	shape gbShape
	lit   string  // the shape's supplier predicate literal
	litF  float64 // the same literal as a number
	reg   int64   // the shape's region bound, when it has one
	sql   string  // ad-hoc text; empty for the prepared lookup
}

// wireWorkload drives an in-process server over loopback with a fixed
// number of connections, as an application's connection pool would.
type wireWorkload struct {
	sf       float64
	nclients int

	cat    *sip.Catalog
	eng    *sip.Engine
	srv    *server.Server
	served chan struct{}
	conns  []*server.Client
	stmts  []*server.Stmt

	// The catalog's answers, for checking.
	nations   [][2]sip.Value // by key: n_name, n_regionkey
	suppliers [][2]sip.Value // by key-1: s_name, s_acctbal
	supNation []int64        // by key-1

	shapes    []gbShape
	order     []int // seeded permutation of shapes
	nextShape atomic.Int64
	rngs      []*rand.Rand
}

func (w *wireWorkload) kinds() []string {
	return []string{"nation_prepared", "supplier_point", "groupby_miss"}
}

func (w *wireWorkload) clients() int    { return w.nclients }
func (w *wireWorkload) chunk() int      { return 2000 }
func (w *wireWorkload) minSamples() int { return 100000 } // ~600k in 30 s

func (w *wireWorkload) setup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	w.cat = sip.GenerateTPCH(sip.DataConfig{ScaleFactor: w.sf, Seed: dataSeed(seed)})
	gen := time.Since(t0)
	// Configured as the sipserver command configures it by default.
	w.eng = sip.NewEngineWithConfig(w.cat, sip.EngineConfig{PooledStats: true})
	srv, ln, served, err := startServer(w.eng, sip.CostBased)
	if err != nil {
		return gen, err
	}
	w.srv, w.served = srv, served
	w.conns, w.stmts = nil, nil
	for c := 0; c < w.nclients; c++ {
		cl, err := server.Dial(ln.Addr().String(), server.DialConfig{Tenant: "bench"})
		if err != nil {
			return gen, err
		}
		st, err := cl.Prepare(nationSQL)
		if err != nil {
			return gen, err
		}
		w.conns, w.stmts = append(w.conns, cl), append(w.stmts, st)
	}
	return gen, nil
}

// startServer serves eng on a loopback port; served closes when Serve
// returns.
func startServer(eng *sip.Engine, strat sip.Strategy) (*server.Server, net.Listener, chan struct{}, error) {
	srv, err := server.New(server.Config{Engine: eng, BaseOptions: sip.Options{Strategy: strat}})
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		// Serve returns once Shutdown has closed the listener; an accept
		// failure before that shows up as failed dials and queries.
		_ = srv.Serve(ln)
	}()
	return srv, ln, served, nil
}

// stopServer closes the clients, drains the server and waits for Serve to
// return.
func stopServer(srv *server.Server, served chan struct{}, conns []*server.Client) error {
	for _, c := range conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	<-served
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

func (w *wireWorkload) teardown() {
	if w.srv != nil {
		if err := stopServer(w.srv, w.served, w.conns); err != nil {
			fmt.Fprintln(os.Stderr, "sipperf:", err)
		}
	}
	w.srv, w.conns, w.stmts, w.cat, w.eng = nil, nil, nil, nil, nil
}

// prepare indexes the catalog for answer checking and seeds the query
// generators.
func (w *wireWorkload) prepare(seed int64) error {
	nat, err := w.cat.Table("nation")
	if err != nil {
		return err
	}
	sup, err := w.cat.Table("supplier")
	if err != nil {
		return err
	}
	nk, nn, nr := nat.ColumnIndex("n_nationkey"), nat.ColumnIndex("n_name"), nat.ColumnIndex("n_regionkey")
	w.nations = make([][2]sip.Value, len(nat.Rows))
	for _, r := range nat.Rows {
		w.nations[r[nk].I] = [2]sip.Value{r[nn], r[nr]}
	}
	sk, sn, sa, snk := sup.ColumnIndex("s_suppkey"), sup.ColumnIndex("s_name"), sup.ColumnIndex("s_acctbal"), sup.ColumnIndex("s_nationkey")
	w.suppliers = make([][2]sip.Value, len(sup.Rows))
	w.supNation = make([]int64, len(sup.Rows))
	for _, r := range sup.Rows {
		i := r[sk].I - 1
		w.suppliers[i] = [2]sip.Value{r[sn], r[sa]}
		w.supNation[i] = r[snk].I
	}
	w.shapes = allShapes()
	rng := rand.New(rand.NewSource(seed))
	w.order = rng.Perm(len(w.shapes))
	w.rngs = make([]*rand.Rand, w.nclients+1) // the last one drives the in-process replay
	for c := range w.rngs {
		w.rngs[c] = rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
	}
	return nil
}

// gen draws the next query from rng.
func (w *wireWorkload) gen(rng *rand.Rand) wireQuery {
	u := rng.Intn(10)
	switch {
	case u < 6:
		return wireQuery{kind: kindNation, key: rng.Int63n(int64(len(w.nations)))}
	case u < 9:
		k := 1 + rng.Int63n(int64(len(w.suppliers)))
		return wireQuery{kind: kindSupplier, key: k,
			sql: "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = " + strconv.FormatInt(k, 10)}
	}
	q := wireQuery{kind: kindGroupBy, shape: w.shapes[w.order[int(w.nextShape.Add(1))%len(w.shapes)]]}
	switch q.shape.pred {
	case 0, 1:
		q.lit = strconv.FormatFloat(float64(rng.Intn(900000))/100, 'f', 2, 64)
	case 2, 3:
		q.lit = strconv.FormatInt(1+rng.Int63n(int64(len(w.suppliers))), 10)
	default:
		q.lit = strconv.FormatInt(1+rng.Int63n(int64(len(w.nations)-1)), 10)
	}
	q.litF, _ = strconv.ParseFloat(q.lit, 64)
	if q.shape.region {
		q.reg = 1 + rng.Int63n(4)
	}
	q.sql = w.shapeSQL(q)
	return q
}

// shapeSQL renders a GROUP BY query's text.
func (w *wireWorkload) shapeSQL(q wireQuery) string {
	sql := "SELECT " + gbGroups[q.shape.group] + ", " + gbAggs[q.shape.agg] +
		" FROM supplier, nation WHERE s_nationkey = n_nationkey AND " + gbPreds[q.shape.pred] + q.lit
	if q.shape.region {
		sql += " AND n_regionkey < " + strconv.FormatInt(q.reg, 10)
	}
	return sql + " GROUP BY " + gbGroups[q.shape.group]
}

// check compares a wire-mix answer with the catalog.
func (w *wireWorkload) check(q wireQuery, got []sip.Row) error {
	var want [][2]sip.Value
	switch q.kind {
	case kindNation:
		want = w.nations[q.key : q.key+1]
	case kindSupplier:
		want = w.suppliers[q.key-1 : q.key]
	default:
		want = w.groupBy(q)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%q: %d rows, want %d", q.sql, len(got), len(want))
	}
	if q.kind != kindGroupBy {
		if !sameRow(got[0], want[0][:]) {
			return fmt.Errorf("key %d: got %v, want %v", q.key, got[0], want[0])
		}
		return nil
	}
	if err := matchGroups(got, want); err != nil {
		return fmt.Errorf("%q: %v", q.sql, err)
	}
	return nil
}

// matchGroups reports whether a GROUP BY answer holds each wanted (group,
// aggregate) row exactly once, in any order.
func matchGroups(got []sip.Row, want [][2]sip.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	byGroup := make(map[string]sip.Value, len(want))
	for _, r := range want {
		byGroup[r[0].String()] = r[1]
	}
	for _, r := range got {
		if len(r) != 2 {
			return fmt.Errorf("unexpected row %v", r)
		}
		g := r[0].String()
		v, ok := byGroup[g]
		if !ok || !sameValue(r[1], v) {
			return fmt.Errorf("unexpected or repeated row %v", r)
		}
		delete(byGroup, g)
	}
	return nil
}

// groupBy evaluates a GROUP BY shape directly over the catalog rows.
func (w *wireWorkload) groupBy(q wireQuery) [][2]sip.Value {
	type acc struct {
		n        int64
		sum      float64
		min, max float64
	}
	groups := map[int64]*acc{} // by group column value
	var order []int64
	for i, nat := range w.supNation {
		key, acct := int64(i+1), w.suppliers[i][1].F
		var keep bool
		switch q.shape.pred {
		case 0:
			keep = acct > q.litF
		case 1:
			keep = acct < q.litF
		case 2:
			keep = float64(key) < q.litF
		case 3:
			keep = float64(key) > q.litF
		case 4:
			keep = float64(nat) < q.litF
		case 5:
			keep = float64(nat) > q.litF
		}
		region := w.nations[nat][1].I
		if !keep || (q.shape.region && region >= q.reg) {
			continue
		}
		g := nat
		if q.shape.group == 1 {
			g = region
		}
		a := groups[g]
		if a == nil {
			a = &acc{min: acct, max: acct}
			groups[g] = a
			order = append(order, g)
		}
		a.n++
		a.sum += acct
		a.min, a.max = min(a.min, acct), max(a.max, acct)
	}
	out := make([][2]sip.Value, 0, len(order))
	for _, g := range order {
		a := groups[g]
		gv := w.nations[g][0]
		if q.shape.group == 1 {
			gv = sip.Int(g)
		}
		var v sip.Value
		switch q.shape.agg {
		case 0:
			v = sip.Int(a.n)
		case 1:
			v = sip.Float(a.sum)
		case 2:
			v = sip.Float(a.min)
		default:
			v = sip.Float(a.max)
		}
		out = append(out, [2]sip.Value{gv, v})
	}
	return out
}

func (w *wireWorkload) warmup(ts []*tally) {
	for c := range ts {
		for i := 0; i < 1000; i++ {
			w.run(c, nil, 0, ts[c])
		}
	}
}

func (w *wireWorkload) snapshot() layerCounters {
	s := w.eng.PlanCacheStats()
	m := w.srv.Metrics()
	return layerCounters{cacheHits: s.Hits, cacheMisses: s.Misses,
		wireBytes: m.BytesSent.Load(), wireBatches: m.BatchesSent.Load(),
		wireScanned: m.TuplesScanned.Load(), wireQueries: m.QueriesOK.Load()}
}

func (w *wireWorkload) run(c int, rec *recorder, qid int64, t *tally) {
	q := w.gen(w.rngs[c])
	got, lat, ok := runWire(func() (*server.Rows, error) {
		if q.kind == kindNation {
			return w.stmts[c].Query(context.Background(), sip.Int(q.key))
		}
		return w.conns[c].Query(context.Background(), q.sql)
	}, rec, qid, t)
	if !ok {
		return
	}
	if err := w.check(q, got); err != nil {
		t.fail(true, err)
		return
	}
	t.out.ok++
	t.lat[q.kind] = append(t.lat[q.kind], lat)
}

// runWire runs one query over a client connection, timing the request
// until the stream opens and the receipt of the rows, and folds the
// server's summary into t. The caller records the returned latency once it
// has checked the answer.
func runWire(open func() (*server.Rows, error), rec *recorder, qid int64, t *tally) ([]sip.Row, time.Duration, bool) {
	root := rec.begin("bench.query", noSpan, qid)
	t0 := time.Now()
	sp := rec.begin("wire.send", root, qid)
	rows, err := open()
	rec.end(sp)
	if err != nil {
		rec.end(root)
		t.fail(false, err)
		return nil, 0, false
	}
	sp = rec.begin("wire.recv", root, qid)
	var got []sip.Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	lat := time.Since(t0)
	rec.end(sp)
	rec.end(root)
	if err := rows.Err(); err != nil {
		t.fail(false, err)
		return nil, 0, false
	}
	t.addSummary(rows.Summary())
	t.wireOH = append(t.wireOH, lat-rows.Duration())
	return got, lat, true
}
