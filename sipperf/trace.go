package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Span ids are indexes into one recorder's slice. noSpan marks a root's
// parent; droppedSpan is returned once the recorder is full, and a child of
// a dropped span is dropped too.
const (
	noSpan      = -1
	droppedSpan = -2
)

// span is one timed call the benchmark made into a layer. Its name is
// "<layer>.<step>"; times are nanoseconds since the recorder's epoch.
type span struct {
	name       string
	start, end int64
	parent     int
	query      int64
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// recorder keeps the spans of one client goroutine in memory. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	epoch   time.Time
	spans   []span
	max     int
	dropped int64
}

func newRecorder(epoch time.Time, max int) *recorder {
	return &recorder{epoch: epoch, max: max}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int, query int64) int {
	if r == nil {
		return noSpan
	}
	if parent == droppedSpan || len(r.spans) >= r.max {
		r.dropped++
		return droppedSpan
	}
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)), parent: parent, query: query})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.epoch))
}

// merge concatenates the recorders' spans, rebasing parent ids.
func merge(recs []*recorder) (all []span, dropped int64) {
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := len(all)
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
		dropped += r.dropped
	}
	return all, dropped
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerSelf sums self time per layer and counts that layer's spans.
func layerSelf(spans []span) (total map[string]int64, count map[string]int64) {
	total, count = map[string]int64{}, map[string]int64{}
	for i, st := range selfTimes(spans) {
		l := spans[i].layer()
		total[l] += st
		count[l]++
	}
	return total, count
}

// writeSpans writes the spans as CSV, once, at the end of a run. A span's
// id is its row number, counted from 0; a root's parent is -1.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,query")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.query)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
