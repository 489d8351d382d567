package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "bench.query", start: 0, end: 100, parent: noSpan},
		{name: "engine.start", start: 10, end: 30, parent: 0},
		{name: "exec.first_row", start: 20, end: 50, parent: 0}, // overlaps the previous child
		{name: "exec.drain", start: 60, end: 70, parent: 0},
		{name: "wire.recv", start: 90, end: 120, parent: 0}, // runs past its parent
		{name: "frontend.parse", start: 62, end: 65, parent: 3},
	}
	want := []int64{
		100 - (40 + 10 + 10), // children cover [10,50], [60,70] and [90,100]
		20, 30,
		10 - 3,
		30,
		3,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	total, count := layerSelf(spans)
	if total["exec"] != 30+7 || count["exec"] != 2 {
		t.Errorf("exec layer self = %d over %d spans, want 37 over 2", total["exec"], count["exec"])
	}
	if total["bench"] != 40 || count["bench"] != 1 {
		t.Errorf("bench layer self = %d over %d spans, want 40 over 1", total["bench"], count["bench"])
	}
}

func TestRecorderNestsAndDrops(t *testing.T) {
	var off *recorder
	if id := off.begin("bench.query", noSpan, 1); id != noSpan {
		t.Fatalf("nil recorder returned span %d", id)
	}
	off.end(0) // must not panic

	r := newRecorder(time.Now(), 2)
	root := r.begin("bench.query", noSpan, 7)
	child := r.begin("engine.start", root, 7)
	r.end(child)
	full := r.begin("exec.drain", root, 7)
	if full != droppedSpan {
		t.Fatalf("span past the limit got id %d", full)
	}
	if id := r.begin("frontend.parse", full, 7); id != droppedSpan {
		t.Fatalf("child of a dropped span got id %d", id)
	}
	r.end(full)
	r.end(root)
	if r.dropped != 2 || len(r.spans) != 2 {
		t.Fatalf("kept %d spans, dropped %d; want 2 and 2", len(r.spans), r.dropped)
	}
	if s := r.spans[child]; s.parent != root || s.query != 7 || s.end < s.start {
		t.Errorf("child span = %+v", s)
	}

	r2 := newRecorder(r.epoch, 4)
	c := r2.begin("engine.start", r2.begin("bench.query", noSpan, 8), 8)
	r2.end(c)
	all, dropped := merge([]*recorder{r, nil, r2})
	if len(all) != 4 || dropped != 2 {
		t.Fatalf("merged %d spans, %d dropped", len(all), dropped)
	}
	if all[3].parent != 2 {
		t.Errorf("merged child parent = %d, want 2 (rebased)", all[3].parent)
	}
}
