package main

import (
	"time"

	sip "repro"
	"repro/internal/server"
)

// stateClasses are the operator classes that buffer state; flowClasses
// only pass tuples on. Scans receive nothing (their output is
// TuplesScanned) and no workload runs DISTINCT, so neither is listed.
// Per-class figures come from Result.Stats, which engines running with
// PooledStats do not keep.
var (
	stateClasses = []string{"join", "agg"}
	flowClasses  = []string{"filter", "project"}
)

// tally is what one client observed during one phase. Clients fill their
// own tally; phases merge them.
type tally struct {
	out      outcomes
	firstErr error

	lat    [][]time.Duration // by query kind, successful queries only
	start  []time.Duration   // QueryStream call (in-process queries)
	first  []time.Duration   // QueryStream return to first row
	drain  []time.Duration   // first row to exhaustion
	wireOH []time.Duration   // round trip minus server-reported duration

	// Engine counters, summed over the queries that reported them.
	counted                          int64
	execTime                         time.Duration
	peakState, filtersCreated        int64
	filtersInjected, pruned          int64
	processed, scanned               int64
	filterBytes, peakWorking         int64
	peakMem, spillBytes, spillEvents int64
	spilled                          int64
	classIn, classState              map[string]int64
}

func newTally(kinds int) *tally {
	return &tally{lat: make([][]time.Duration, kinds), classIn: map[string]int64{}, classState: map[string]int64{}}
}

func (t *tally) fail(wrong bool, err error) {
	if wrong {
		t.out.wrong++
	} else {
		t.out.refused++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// addResult folds an in-process result's counters in.
func (t *tally) addResult(r *sip.Result) {
	t.counted++
	t.execTime += r.Duration
	t.peakState += r.PeakStateBytes
	t.filtersCreated += r.FiltersCreated
	t.filtersInjected += r.FiltersInjected
	t.pruned += r.TuplesPruned
	t.processed += r.TuplesProcessed
	t.scanned += r.TuplesScanned
	t.filterBytes += r.FilterBytes
	t.peakWorking += r.PeakFilterWorkingBytes
	t.addSpill(r.PeakMemBytes, r.SpillBytes, r.SpillEvents)
	if r.Stats == nil {
		return
	}
	for _, op := range r.Stats.Ops() {
		t.classIn[op.Class] += op.In.Load()
		t.classState[op.Class] += op.StateBytes.Peak()
	}
}

// addSummary folds a wire Done-frame summary in. The summary carries no
// scanned or processed tuple counts and no per-operator breakdown, so a
// tally of wire queries reports those as zero.
func (t *tally) addSummary(s *server.Summary) {
	t.counted++
	t.execTime += time.Duration(s.DurationMicros) * time.Microsecond
	t.peakState += s.PeakStateBytes
	t.filtersCreated += s.FiltersCreated
	t.filtersInjected += s.FiltersInjected
	t.pruned += s.TuplesPruned
	t.addSpill(s.PeakMemBytes, s.SpillBytes, s.SpillEvents)
}

func (t *tally) addSpill(peakMem, bytes, events int64) {
	t.peakMem += peakMem
	t.spillBytes += bytes
	t.spillEvents += events
	if bytes > 0 || events > 0 {
		t.spilled++
	}
}

func (t *tally) merge(o *tally) {
	t.out.add(o.out)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	for k := range o.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.start = append(t.start, o.start...)
	t.first = append(t.first, o.first...)
	t.drain = append(t.drain, o.drain...)
	t.wireOH = append(t.wireOH, o.wireOH...)
	t.counted += o.counted
	t.execTime += o.execTime
	t.peakState += o.peakState
	t.filtersCreated += o.filtersCreated
	t.filtersInjected += o.filtersInjected
	t.pruned += o.pruned
	t.processed += o.processed
	t.scanned += o.scanned
	t.filterBytes += o.filterBytes
	t.peakWorking += o.peakWorking
	t.peakMem += o.peakMem
	t.spillBytes += o.spillBytes
	t.spillEvents += o.spillEvents
	t.spilled += o.spilled
	for k, v := range o.classIn {
		t.classIn[k] += v
	}
	for k, v := range o.classState {
		t.classState[k] += v
	}
}

// allLat is every successful query's latency.
func (t *tally) allLat() []time.Duration {
	var all []time.Duration
	for _, l := range t.lat {
		all = append(all, l...)
	}
	return all
}

// perQuery divides a counter by the queries that reported counters.
func (t *tally) perQuery(v int64) float64 { return ratio(float64(v), float64(t.counted)) }

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds)) / float64(time.Millisecond)
}

func p50Us(ds []time.Duration) float64 { return median(sortedMs(ds)) * 1000 }
