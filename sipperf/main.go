// Command sipperf is the repository's benchmark. It runs one workload —
// olap_aip, olap_spill or wire_point — as a closed loop against the
// engine's public API for a fixed time, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) by
// name and unit, ending with one JSON line. METRICS.md maps the metrics to
// the modules they measure.
//
//	go run . -workload olap_aip -seed 1 -seconds 30 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	sip "repro"
)

// spillBudget is olap_spill's engine-wide memory pool in bytes. It is a
// constant, never derived from the engine under test: a budget sized from
// the program's own peak would shrink with any change that shrinks state
// and hide the gain. When it was fixed, the grant two concurrent queries
// each receive (a third of the pool) came to about a quarter of the mean
// unbounded Baseline peak of the mix's queries at SF 0.02 (Q2E 38 MB, Q4A
// 27 MB, Q5A 24 MB), and every Baseline query spilled.
const spillBudget = 24 << 20

// setupReps is how many times a run sets the workload up; setup_s is the
// median. Each set-up after the first reuses heap pages the collector has
// freed, so the median measures the work of building the data and engine
// rather than the kernel's page faults, whose cost moves with the load of
// the shared machine.
const setupReps = 7

// fingerprintSeeds is how many seeds, from 0, fingerprints.go covers.
const fingerprintSeeds = 64

func newWorkload(name string) (workload, bool) {
	switch name {
	// samples: olap_aip completes ~500 queries in 30 s, olap_spill ~180.
	case "olap_aip":
		return newOlap(&olapWorkload{name: name, sf: 0.05, nclients: 1, samples: 300,
			ids:    []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A"},
			strats: []sip.Strategy{sip.FeedForward, sip.CostBased}}), true
	case "olap_spill":
		return newOlap(&olapWorkload{name: name, sf: 0.02, nclients: 2, memBudget: spillBudget, samples: 120,
			ids:    []string{"Q2E", "Q4A", "Q5A"},
			strats: []sip.Strategy{sip.Baseline, sip.FeedForward}}), true
	case "wire_point":
		return &wireWorkload{sf: 0.05, nclients: 2}, true
	}
	return nil, false
}

// dataSeed maps the workload seed to the TPC-H generator's seed (whose 0
// means "the default").
func dataSeed(seed int64) uint64 { return uint64(seed) + 1 }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	metrics map[string]metric
	order   []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
}

func main() {
	name := flag.String("workload", "", "olap_aip | olap_spill | wire_point")
	seed := flag.Int64("seed", 1, "workload seed: data, keys, literals and shape order")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := flag.String("out", ".", "directory the traced run writes its spans to")
	fpMode := flag.Bool("fingerprints", false, "print the olap workloads' reference-answer fingerprints, as the source of fingerprints.go")
	flag.Parse()

	if *fpMode {
		printFingerprints()
		return
	}
	w, ok := newWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: sipperf -workload olap_aip|olap_spill|wire_point -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "sipperf:", err)
		os.Exit(1)
	}
}

func run(w workload, name string, seed int64, d time.Duration, traced bool, outDir string) error {
	var setups, gens []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		gen, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
	}
	defer w.teardown()
	if err := w.prepare(seed); err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}
	kinds := w.kinds()
	warm := make([]*tally, w.clients())
	for c := range warm {
		warm[c] = newTally(len(kinds))
	}
	w.warmup(warm)
	all := newTally(len(kinds)) // every query the run made, for the outcome counts
	for _, t := range warm {
		all.merge(t)
	}

	var rep report
	fmt.Printf("workload %s  seed %d  clients %d  timed %.0fs  trace %v\n", name, seed, w.clients(), d.Seconds(), traced)
	if !traced {
		p := closedLoop(w, d, false, time.Now(), 0)
		all.merge(p.t)
		endToEnd(&rep, w, p, kinds, setups)
	} else {
		if err := perLayer(&rep, w, d, kinds, gens, all, filepath.Join(outDir, "spans-"+name+".csv")); err != nil {
			return err
		}
	}

	correct := all.out.failed() == 0
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-36s %14.6g frac (failed %d of %d attempted)\n", "failed_frac", all.out.failedFrac(), all.out.failed(), all.out.attempted())
	if all.firstErr != nil {
		fmt.Fprintln(os.Stderr, "sipperf: first failure:", all.firstErr)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, all.out.attempted(), all.out.failed(), rep.metrics})
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d of %d queries failed or answered wrongly", all.out.failed(), all.out.attempted())
	}
	return nil
}

// endToEnd reports what a user of the engine sees, from an untraced phase.
func endToEnd(rep *report, w workload, p *phase, kinds []string, setups []float64) {
	lat := sortedMs(p.t.allLat())
	done := float64(p.completed())
	rep.add("queries_per_s", p.qps, "1/s")
	fmt.Printf("  %d queries in %.2fs: %.6g/s overall\n", p.completed(), p.elapsed.Seconds(), done/p.elapsed.Seconds())
	// The median of a mix of well-separated query classes sits on a class
	// boundary and flips between runs, so the p50 is printed but not
	// reported; latency_geomean_ms is the mix's central figure.
	fmt.Printf("  latency_p50_ms %.6g ms over %d samples\n", median(lat), len(lat))
	tp, _ := tailPercentile(w.minSamples())
	fmt.Printf("  tail is latency_p%g_ms over %d samples, %d beyond it\n", tp, len(lat), beyond(len(lat), tp))
	if beyond(len(lat), tp) < tailMinBeyond {
		fmt.Fprintf(os.Stderr, "sipperf: warning: fewer than %d samples beyond p%g\n", tailMinBeyond, tp)
	}
	rep.add("latency_tail_ms", percentile(lat, tp), "ms")
	rep.add("latency_geomean_ms", geomeanOfMedians(p.t.lat), "ms")
	for k, l := range p.t.lat {
		fmt.Printf("  kind %-28s n=%-7d p50 %.4g ms\n", kinds[k], len(l), median(sortedMs(l)))
	}
	rep.add("peak_state_mb", p.t.perQuery(p.t.peakState)/1e6, "MB")
	rep.add("alloc_mb_per_query", ratio(float64(p.alloc), done)/1e6, "MB")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("setup_s", medianFloat(setups), "s")
}

// perLayer runs the traced measurement: untraced and traced quarters of the
// timed phase, alternating, then the layer probes. Counters and timings
// come from all four quarters; spans, and the trace's own overhead, from
// the comparison of the traced quarters with the untraced ones.
func perLayer(rep *report, w workload, d time.Duration, kinds []string, gens []float64, all *tally, spansPath string) error {
	epoch := time.Now()
	var plain, traced []*phase
	for q := 0; q < 4; q++ {
		p := closedLoop(w, d/4, q%2 == 1, epoch, int64(q)<<48)
		all.merge(p.t)
		if q%2 == 1 {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	u, tr := mergePhases(len(kinds), plain...), mergePhases(len(kinds), traced...)
	p := mergePhases(len(kinds), u, tr)
	t := p.t

	// Probes.
	probeRec := newRecorder(epoch, maxSpansPerClient)
	probe := newTally(len(kinds))
	var texts []string
	var cat *sip.Catalog
	inproc := t // where the in-process timings come from
	switch w := w.(type) {
	case *olapWorkload:
		cat = w.cat
		for _, id := range w.ids {
			texts = append(texts, paperQueries[id])
		}
	case *wireWorkload:
		cat = w.cat
		texts = w.distinctTexts()
		if err := engineProbe(w, 3000, probeRec, probe); err != nil {
			return err
		}
		inproc = probe
	}
	fs, err := frontendProbe(cat, texts, 15, probeRec)
	if err != nil {
		return err
	}
	fmt.Printf("  front end replayed over %d distinct texts\n", fs.texts)
	all.out.add(probe.out)
	if all.firstErr == nil {
		all.firstErr = probe.firstErr
	}

	// engine
	rep.add("engine.start_us", p50Us(inproc.start), "us")
	lookups := p.layers.cacheHits + p.layers.cacheMisses
	rep.add("engine.plan_cache_hit_ratio", ratio(float64(p.layers.cacheHits), float64(lookups)), "frac")
	rep.add("engine.plan_cache_lookups", float64(lookups), "count")
	// frontend
	rep.add("frontend.normalize_us", fs.normalizeUs, "us")
	rep.add("frontend.parse_us", fs.parseUs, "us")
	rep.add("frontend.bind_us", fs.bindUs, "us")
	rep.add("frontend.optimize_us", fs.optUs, "us")
	rep.add("frontend.allocs_per_plan", fs.allocsPerPlan, "count")
	// exec
	rep.add("exec.first_row_ms", meanMs(inproc.first), "ms")
	rep.add("exec.drain_ms", meanMs(inproc.drain), "ms")
	scanned, scannedQ := t.scanned, t.counted
	if _, ok := w.(*wireWorkload); ok {
		scanned, scannedQ = p.layers.wireScanned, p.layers.wireQueries
	}
	rep.add("exec.input_tuples_per_s", ratio(float64(scanned), t.execTime.Seconds()), "1/s")
	rep.add("exec.tuples_scanned_per_query", ratio(float64(scanned), float64(scannedQ)), "count")
	rep.add("exec.tuples_processed_per_query", inproc.perQuery(inproc.processed), "count")
	for _, c := range append(append([]string(nil), flowClasses...), stateClasses...) {
		rep.add("exec."+c+".in_per_query", t.perQuery(t.classIn[c]), "count")
	}
	for _, c := range stateClasses {
		rep.add("exec."+c+".state_mb", t.perQuery(t.classState[c])/1e6, "MB")
	}
	// aip
	rep.add("aip.filters_created_per_query", t.perQuery(t.filtersCreated), "count")
	rep.add("aip.filters_injected_per_query", t.perQuery(t.filtersInjected), "count")
	rep.add("aip.pruned_per_query", t.perQuery(t.pruned), "count")
	rep.add("aip.pruned_frac", ratio(t.perQuery(t.pruned), ratio(float64(scanned), float64(scannedQ))), "frac")
	rep.add("aip.pruned_frac.base", ratio(float64(scanned), float64(scannedQ)), "count")
	rep.add("aip.filter_mb_per_query", t.perQuery(t.filterBytes)/1e6, "MB")
	rep.add("aip.peak_working_mb", t.perQuery(t.peakWorking)/1e6, "MB")
	// spill
	rep.add("spill.mb_per_query", t.perQuery(t.spillBytes)/1e6, "MB")
	rep.add("spill.events_per_query", t.perQuery(t.spillEvents), "count")
	rep.add("spill.query_frac", t.perQuery(t.spilled), "frac")
	rep.add("spill.query_frac.base", float64(t.counted), "count")
	rep.add("spill.peak_mem_mb", t.perQuery(t.peakMem)/1e6, "MB")
	// wire: 0 on the olap workloads, which never go through it
	rep.add("wire.overhead_us", p50Us(t.wireOH), "us")
	rep.add("wire.bytes_per_query", ratio(float64(p.layers.wireBytes), float64(p.layers.wireQueries)), "B")
	rep.add("wire.batches_per_query", ratio(float64(p.layers.wireBatches), float64(p.layers.wireQueries)), "count")
	// process, tpch
	rep.add("process.gc_cpu_frac", ratio(u.gcCPU, u.totalCPU), "frac")
	rep.add("tpch.generate_s", medianFloat(gens), "s")

	// The trace itself: overhead, then self time per layer.
	rep.add("trace.qps_overhead_frac", ratio(u.qps-tr.qps, u.qps), "frac")
	gu, gt := geomeanOfMedians(u.t.lat), geomeanOfMedians(tr.t.lat)
	rep.add("trace.geomean_overhead_frac", ratio(gt-gu, gu), "frac")
	spans, dropped := merge(append(tr.recs, probeRec))
	rep.add("trace.spans", float64(len(spans)), "count")
	rep.add("trace.spans_dropped", float64(dropped), "count")
	total, count := layerSelf(spans)
	for _, l := range []string{"bench", "engine", "exec", "frontend", "wire"} {
		rep.add("trace.self_us."+l, ratio(float64(total[l]), float64(count[l]))/1e3, "us")
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", spansPath)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// printFingerprints computes the olap workloads' reference answers for
// seeds 0..fingerprintSeeds-1 and prints them as the source of
// fingerprints.go.
func printFingerprints() {
	var b bytes.Buffer
	b.WriteString("package main\n\n// Code generated by sipperf -fingerprints; DO NOT EDIT.\n" +
		"// Regenerate in this directory with\n" +
		"//\n" +
		"//\tgo run . -fingerprints > fingerprints.go.new && mv fingerprints.go.new fingerprints.go\n\n" +
		"// recorded holds the fingerprints of the olap workloads' Baseline\n" +
		"// reference answers by workload, seed and query.\n" +
		"var recorded = map[string]map[int64]map[string]string{\n")
	for _, name := range []string{"olap_aip", "olap_spill"} {
		fmt.Fprintf(&b, "%q: {\n", name)
		for s := int64(0); s < fingerprintSeeds; s++ {
			w, _ := newWorkload(name)
			ow := w.(*olapWorkload)
			if _, err := ow.setup(s); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// Seed -1 has no recorded fingerprints to check against.
			if err := ow.prepare(-1); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(&b, "%d: %#v,\n", s, ow.fingerprints())
			ow.teardown()
			runtime.GC()
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(src)
}
