package optimizer

import "repro/internal/exec"

// holdPlan fills Scan.Await for every scan of a built plan: the stateful
// injection points the scan should wait for, under an AIP controller,
// before emitting its first tuple. The paper's benefit is set by when a
// filter is published relative to the scan it prunes; a large scan that
// starts with everything else races ahead of the filters meant for it and
// buffers tuples they would have dropped. Holding it until the small
// producers have published lets their filters see its whole input.
//
// Scan S over table T awaits point P only when all of these hold:
//
//   - Acyclic by construction: P's base tables exclude T and each has
//     strictly fewer rows than T. Every wait edge goes from a larger table
//     to smaller ones, so no cycle (and no deadlock) can form, and the
//     smallest inputs never wait.
//   - A filter can reach S: a class of P's key columns equals a class of
//     S's consumer point, the first stateful input above S — the interest
//     rule Feed-forward and Cost-based inject by.
//   - It is expected to prune: P's row estimate is below the consumer
//     column's domain size. A producer holding most of the domain would
//     only delay S without dropping much of it.
//   - Waiting never idles the engine behind a modelled sleep: no scan
//     under P is delayed, faulted or paced, and the plan reads no remote
//     relation (Cost-based ships filters to remote consumers inside
//     PointDone, over modelled links). Those runs keep the all-at-once
//     schedule, so the paper's delayed-source and distributed experiments
//     are unchanged.
//
// The policy reads only the plan and its source configuration; it has no
// knob of its own.
func holdPlan(root exec.Op, points []*exec.Point) {
	w := &holdWalk{under: map[*exec.Point][]*exec.Scan{}, rows: map[string]int{}}
	w.walk(root, nil, nil)
	for _, sc := range w.scans {
		if sc.scan.Site != 0 {
			return
		}
	}
	for _, sc := range w.scans {
		s, c := sc.scan, sc.consumer
		if c == nil || s.Table == "" {
			continue
		}
		for _, p := range points {
			if p.Stateful && w.smallerInputs(p, s) && w.unpaced(p) && prunes(p, c) {
				s.Await = append(s.Await, p)
			}
		}
	}
}

// holdWalk collects, in one pass over the plan tree, each scan's consumer
// point, the scans feeding each stateful point, and every table's rows.
type holdWalk struct {
	scans []scanUse
	under map[*exec.Point][]*exec.Scan
	rows  map[string]int
}

// scanUse is one scan with the first stateful input above it (nil when
// no stateful operator consumes it).
type scanUse struct {
	scan     *exec.Scan
	consumer *exec.Point
}

// walk visits op, whose nearest stateful input above is consumer and whose
// stateful ancestors' inputs are above.
func (w *holdWalk) walk(op exec.Op, consumer *exec.Point, above []*exec.Point) {
	// into descends through a stateful input point.
	into := func(child exec.Op, p *exec.Point) {
		if p == nil {
			w.walk(child, consumer, above)
			return
		}
		w.walk(child, p, append(above[:len(above):len(above)], p))
	}
	switch v := op.(type) {
	case *exec.Scan:
		w.scans = append(w.scans, scanUse{v, consumer})
		w.rows[v.Table] = len(v.Rows)
		for _, p := range above {
			w.under[p] = append(w.under[p], v)
		}
	case *exec.Filter:
		w.walk(v.Child, consumer, above)
	case *exec.Project:
		w.walk(v.Child, consumer, above)
	case *exec.Ship:
		w.walk(v.Child, consumer, above)
	case *exec.HashJoin:
		into(v.Left, v.LPoint)
		into(v.Right, v.RPoint)
	case *exec.HashAgg:
		into(v.Child, v.Point)
	case *exec.Distinct:
		into(v.Child, v.Point)
	}
}

// smallerInputs reports whether every base table feeding p differs from
// s's table and has strictly fewer rows.
func (w *holdWalk) smallerInputs(p *exec.Point, s *exec.Scan) bool {
	if len(p.Tables) == 0 {
		return false
	}
	for _, t := range p.Tables {
		if n, ok := w.rows[t]; !ok || t == s.Table || n >= len(s.Rows) {
			return false
		}
	}
	return true
}

// unpaced reports whether every scan feeding p streams at full speed: no
// delay or fault model, no pacing.
func (w *holdWalk) unpaced(p *exec.Point) bool {
	for _, s := range w.under[p] {
		if s.Delay != nil || s.BytesPerSec > 0 {
			return false
		}
	}
	return true
}

// prunes reports whether a filter built from p's key state can be injected
// at consumer c and is expected to drop tuples there: some key class of p
// is a class of one of c's columns whose domain exceeds p's row estimate.
func prunes(p, c *exec.Point) bool {
	for _, k := range p.KeyCols {
		id := p.StateEqIDs[k]
		if id < 0 {
			continue
		}
		for col, cid := range c.EqIDs {
			if cid == id && p.EstRows < c.DomainDistinct[col] {
				return true
			}
		}
	}
	return false
}
