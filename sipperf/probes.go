package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	sip "repro"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sqlparser"
)

// The probes replay a workload's statements through a layer its closed
// loop reaches only from inside the program, timing the calls from outside
// like the loop does: the front end for every workload, and the in-process
// engine behind the wire mix.

// Query ids of the probes' spans, above those of the timed phases.
const (
	frontendQIDs = 5 << 56
	replayQIDs   = 6 << 56
)

// frontendStats is the replayed front-end cost, per distinct statement.
type frontendStats struct {
	texts                               int
	normalizeUs, parseUs, bindUs, optUs float64 // mean over texts of the per-text median
	allocsPerPlan                       float64
}

// frontendProbe replays, for each distinct SQL text, what the engine's
// ad-hoc path runs on a plan-cache miss: sqlparser.Normalize, then Parse,
// plan.Bind and optimizer.Build of the normalized text. When that text
// does not build, the engine falls back to the literal text, and so does
// the probe; the failed attempt then counts toward parse. magic.Rewrite
// runs only under the Magic strategy, which no workload uses.
func frontendProbe(cat *sip.Catalog, texts []string, reps int, rec *recorder) (frontendStats, error) {
	var fs frontendStats
	steps := make([][]float64, 4)
	plan1 := func(text string, timed bool, qid int64) error {
		root := noSpan
		if timed {
			root = rec.begin("bench.plan", noSpan, qid)
			defer rec.end(root)
		}
		var ts [5]time.Time
		ts[0] = time.Now()
		sp := rec.begin("frontend.normalize", root, qid)
		norm, _, ok := sqlparser.Normalize(text)
		rec.end(sp)
		ts[1] = time.Now()
		build := func(src string) error {
			sp := rec.begin("frontend.parse", root, qid)
			stmt, err := sqlparser.Parse(src)
			rec.end(sp)
			ts[2] = time.Now()
			if err != nil {
				return err
			}
			sp = rec.begin("frontend.bind", root, qid)
			blk, err := plan.Bind(cat, stmt)
			rec.end(sp)
			ts[3] = time.Now()
			if err != nil {
				return err
			}
			sp = rec.begin("frontend.optimize", root, qid)
			_, err = optimizer.Build(optimizer.Config{}, blk)
			rec.end(sp)
			ts[4] = time.Now()
			return err
		}
		if !ok || build(norm) != nil {
			if err := build(text); err != nil {
				return err
			}
		}
		if timed {
			for i := range steps {
				steps[i] = append(steps[i], float64(ts[i+1].Sub(ts[i]))/float64(time.Microsecond))
			}
		}
		return nil
	}
	var sums [4]float64
	for i, text := range texts {
		for j := range steps {
			steps[j] = steps[j][:0]
		}
		for r := 0; r < reps; r++ {
			if err := plan1(text, true, frontendQIDs+int64(i*reps+r)); err != nil {
				return fs, fmt.Errorf("front end on %q: %w", text, err)
			}
		}
		for j := range steps {
			sums[j] += medianFloat(steps[j])
		}
	}
	n := float64(len(texts))
	fs.texts = len(texts)
	fs.normalizeUs, fs.parseUs, fs.bindUs, fs.optUs = sums[0]/n, sums[1]/n, sums[2]/n, sums[3]/n

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < reps; r++ {
		for _, text := range texts {
			_ = plan1(text, false, 0) // the timed pass has reported any error
		}
	}
	runtime.ReadMemStats(&m1)
	fs.allocsPerPlan = float64(m1.Mallocs-m0.Mallocs) / float64(reps*len(texts))
	return fs, nil
}

// engineProbe replays n queries of the wire mix in process against the
// server's engine, the prepared lookup through Engine.Prepare, and checks
// every answer.
func engineProbe(w *wireWorkload, n int, rec *recorder, t *tally) error {
	stmt, err := w.eng.Prepare(context.Background(), nationSQL)
	if err != nil {
		return err
	}
	rng := w.rngs[len(w.rngs)-1]
	for i := 0; i < n; i++ {
		q := w.gen(rng)
		open := func() (*sip.Rows, error) {
			if q.kind == kindNation {
				return stmt.QueryStream(context.Background(), sip.Int(q.key))
			}
			return w.eng.QueryStream(context.Background(), q.sql, sip.Options{Strategy: sip.CostBased})
		}
		got, _, ok := runInProcess(open, rec, replayQIDs+int64(i), t)
		if !ok {
			continue
		}
		if err := w.check(q, got); err != nil {
			t.fail(true, fmt.Errorf("in process: %v", err))
			continue
		}
		t.out.ok++
	}
	return nil
}

// distinctTexts lists the statements of the wire mix once each: the
// prepared lookup, one supplier lookup (all share a normalized text) and
// every GROUP BY shape.
func (w *wireWorkload) distinctTexts() []string {
	texts := []string{nationSQL, "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = 1"}
	for _, s := range w.shapes {
		q := wireQuery{kind: kindGroupBy, shape: s, lit: "1", reg: 1}
		texts = append(texts, w.shapeSQL(q))
	}
	return texts
}
