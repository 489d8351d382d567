package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	sip "repro"
)

// olapKind is one query kind of an olap mix: a paper query under one
// strategy.
type olapKind struct {
	id    string
	strat sip.Strategy
	sql   string
}

func (k olapKind) String() string { return k.id + "/" + k.strat.String() }

// olapWorkload cycles paper queries under a set of strategies with a fixed
// number of closed-loop clients, unpaced, on one engine.
type olapWorkload struct {
	name      string
	sf        float64
	nclients  int
	memBudget int64 // EngineConfig.MemBudget; 0 = unbounded
	samples   int   // the latency samples a 30 s phase is sure to collect
	ids       []string
	strats    []sip.Strategy

	ks   []olapKind // every id under every strategy
	cat  *sip.Catalog
	eng  *sip.Engine
	refs map[string]answer // by query id: the Baseline, unbounded answer

	// Each client runs every kind once per cycle, in a seeded random order
	// per cycle, so concurrent clients meet every pairing of kinds instead
	// of locking into one.
	rngs  []*rand.Rand
	decks [][]int
}

func newOlap(w *olapWorkload) *olapWorkload {
	for _, id := range w.ids {
		for _, s := range w.strats {
			w.ks = append(w.ks, olapKind{id: id, strat: s, sql: paperQueries[id]})
		}
	}
	return w
}

func (w *olapWorkload) kinds() []string {
	out := make([]string, len(w.ks))
	for i, k := range w.ks {
		out[i] = k.String()
	}
	return out
}

func (w *olapWorkload) clients() int    { return w.nclients }
func (w *olapWorkload) chunk() int      { return len(w.ks) }
func (w *olapWorkload) minSamples() int { return w.samples }

func (w *olapWorkload) setup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	w.cat = sip.GenerateTPCH(sip.DataConfig{ScaleFactor: w.sf, Seed: dataSeed(seed)})
	gen := time.Since(t0)
	w.eng = sip.NewEngineWithConfig(w.cat, sip.EngineConfig{MemBudget: w.memBudget})
	w.rngs, w.decks = make([]*rand.Rand, w.nclients), make([][]int, w.nclients)
	for c := range w.rngs {
		w.rngs[c] = rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
	}
	return gen, nil
}

func (w *olapWorkload) teardown() { w.cat, w.eng = nil, nil }

// prepare computes each query's Baseline answer on a separate unbounded
// engine over the same catalog, and checks it against the recorded
// fingerprint when one exists for this seed.
func (w *olapWorkload) prepare(seed int64) error {
	ref := sip.NewEngine(w.cat)
	w.refs = map[string]answer{}
	for _, id := range w.ids {
		res, err := ref.Query(context.Background(), paperQueries[id], sip.Options{Strategy: sip.Baseline})
		if err != nil {
			return fmt.Errorf("%s reference: %w", id, err)
		}
		a := canon(res.Rows)
		if want, ok := recordedFingerprint(w.name, seed, id); ok && want != a.fingerprint() {
			return fmt.Errorf("%s reference answer fingerprint %s, recorded %s", id, a.fingerprint(), want)
		}
		w.refs[id] = a
	}
	runtime.GC()
	return nil
}

// fingerprints returns the reference answers' fingerprints by query id.
func (w *olapWorkload) fingerprints() map[string]string {
	out := map[string]string{}
	for id, a := range w.refs {
		out[id] = a.fingerprint()
	}
	return out
}

func (w *olapWorkload) warmup(ts []*tally) {
	for c := range ts {
		for range w.ks {
			w.run(c, nil, 0, ts[c])
		}
	}
}

func (w *olapWorkload) snapshot() layerCounters {
	s := w.eng.PlanCacheStats()
	return layerCounters{cacheHits: s.Hits, cacheMisses: s.Misses}
}

func (w *olapWorkload) run(c int, rec *recorder, qid int64, t *tally) {
	if len(w.decks[c]) == 0 {
		w.decks[c] = w.rngs[c].Perm(len(w.ks))
	}
	ki := w.decks[c][0]
	w.decks[c] = w.decks[c][1:]
	k := w.ks[ki]
	got, lat, ok := runInProcess(func() (*sip.Rows, error) {
		return w.eng.QueryStream(context.Background(), k.sql, sip.Options{Strategy: k.strat})
	}, rec, qid, t)
	if !ok {
		return
	}
	if err := w.refs[k.id].matches(got); err != nil {
		t.fail(true, fmt.Errorf("%s: wrong answer: %v", k, err))
		return
	}
	t.out.ok++
	t.lat[ki] = append(t.lat[ki], lat)
}

// runInProcess runs one query in process, timing the call into the engine
// (Engine.QueryStream or Stmt.QueryStream, made by open), the wait for the
// first row and the drain, and folds the result's counters into t. The
// caller records the returned latency once it has checked the answer.
func runInProcess(open func() (*sip.Rows, error), rec *recorder, qid int64, t *tally) ([]sip.Row, time.Duration, bool) {
	root := rec.begin("bench.query", noSpan, qid)
	t0 := time.Now()
	sp := rec.begin("engine.start", root, qid)
	rows, err := open()
	t1 := time.Now()
	rec.end(sp)
	if err != nil {
		rec.end(root)
		t.fail(false, err)
		return nil, 0, false
	}
	sp = rec.begin("exec.first_row", root, qid)
	var got []sip.Row
	var t2 time.Time
	for rows.Next() {
		if got == nil {
			t2 = time.Now()
			rec.end(sp)
			sp = rec.begin("exec.drain", root, qid)
		}
		got = append(got, rows.Row())
	}
	t3 := time.Now()
	rec.end(sp)
	rec.end(root)
	rows.Close()
	if err := rows.Err(); err != nil {
		t.fail(false, err)
		return nil, 0, false
	}
	if t2.IsZero() {
		t2 = t3
	}
	t.start = append(t.start, t1.Sub(t0))
	t.first = append(t.first, t2.Sub(t1))
	t.drain = append(t.drain, t3.Sub(t2))
	t.addResult(rows.Result())
	return got, t3.Sub(t0), true
}
