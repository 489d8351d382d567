package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// workload is one traffic mix. A workload owns its data, engine and (for
// the wire mix) server; the closed loop only calls run.
type workload interface {
	kinds() []string
	clients() int
	// chunk is the number of a client's completions whose rate is one
	// sample of queries_per_s: a whole cycle of the mix, or a fixed count.
	chunk() int
	// minSamples is the latency sample count a timed phase is sized for;
	// it fixes the reported tail percentile.
	minSamples() int
	// setup generates the data and builds everything the timed phase
	// needs, returning the generation share of the time it took.
	setup(seed int64) (generate time.Duration, err error)
	teardown()
	// prepare computes the reference answers; it is not part of set-up.
	prepare(seed int64) error
	// warmup runs one untimed pass of the mix.
	warmup(t []*tally)
	// run executes client c's next query.
	run(c int, rec *recorder, qid int64, t *tally)
	// snapshot reads the layer counters phases take deltas of.
	snapshot() layerCounters
}

// layerCounters are cumulative counters read at phase boundaries.
type layerCounters struct {
	cacheHits, cacheMisses   int64
	wireBytes, wireBatches   int64
	wireScanned, wireQueries int64
}

func (a layerCounters) sub(b layerCounters) layerCounters {
	return layerCounters{
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		wireBytes: a.wireBytes - b.wireBytes, wireBatches: a.wireBatches - b.wireBatches,
		wireScanned: a.wireScanned - b.wireScanned, wireQueries: a.wireQueries - b.wireQueries,
	}
}

func (a *layerCounters) add(b layerCounters) {
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.wireBytes += b.wireBytes
	a.wireBatches += b.wireBatches
	a.wireScanned += b.wireScanned
	a.wireQueries += b.wireQueries
}

// phase is one timed closed-loop interval.
type phase struct {
	t        *tally
	elapsed  time.Duration
	qps      float64 // Σ over clients of chunkRate
	alloc    uint64  // TotalAlloc delta
	gcCPU    float64
	totalCPU float64
	layers   layerCounters
	recs     []*recorder
}

func (p *phase) completed() int64 { return p.t.out.ok }

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// maxSpansPerClient bounds the in-memory span buffer of one client in one
// traced quarter, and of the probes. It holds a whole quarter of the
// fastest workload with room to spare (wire_point: ~90k queries of 3 spans
// per client in a 7.5 s quarter).
const maxSpansPerClient = 1 << 19

// closedLoop runs the workload's clients for d, each sending its next
// query only after the previous one has completed. With traced set, every
// client records spans from epoch on; query ids are unique per run through
// qidBase.
func closedLoop(w workload, d time.Duration, traced bool, epoch time.Time, qidBase int64) *phase {
	n := w.clients()
	tallies := make([]*tally, n)
	recs := make([]*recorder, n)
	for c := range tallies {
		tallies[c] = newTally(len(w.kinds()))
		if traced {
			recs[c] = newRecorder(epoch, maxSpansPerClient)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := cpuSeconds()
	before := w.snapshot()
	ends := make([][]time.Duration, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int64(0); time.Now().Before(deadline); i++ {
				w.run(c, recs[c], qidBase+int64(c)<<32+i, tallies[c])
				ends[c] = append(ends[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	layers := w.snapshot().sub(before)
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	p := &phase{t: newTally(len(w.kinds())), elapsed: elapsed, alloc: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCPU: gc1 - gc0, totalCPU: cpu1 - cpu0, layers: layers, recs: recs}
	for c, t := range tallies {
		p.t.merge(t)
		p.qps += chunkRate(ends[c], w.chunk())
	}
	return p
}

// mergePhases pools several phases into one; its rate is the phases' mean.
func mergePhases(kinds int, ps ...*phase) *phase {
	out := &phase{t: newTally(kinds)}
	for _, p := range ps {
		out.t.merge(p.t)
		out.elapsed += p.elapsed
		out.qps += p.qps / float64(len(ps))
		out.alloc += p.alloc
		out.gcCPU += p.gcCPU
		out.totalCPU += p.totalCPU
		out.layers.add(p.layers)
		out.recs = append(out.recs, p.recs...)
	}
	return out
}
