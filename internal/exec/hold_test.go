package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/types"
)

// pruneAllController injects an empty exact summary — one that rejects
// every key — into the other join input when a point completes, so a scan
// that starts only after the injection has every tuple pruned.
type pruneAllController struct {
	into map[*Point]*Point // completed point -> point to inject into
}

func (c *pruneAllController) RegisterPoint(*Point) {}
func (c *pruneAllController) Begin()               {}
func (c *pruneAllController) End()                 {}
func (c *pruneAllController) PointDone(p *Point) {
	if q := c.into[p]; q != nil {
		// A slow controller: the held scan must still wait for the attach.
		time.Sleep(5 * time.Millisecond)
		q.Bank.Attach([]int{0}, filter.NewHashSet(4))
	}
}

// seqRows returns n rows (i, i) for i in [0, n).
func seqRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
	}
	return rows
}

// TestHoldWakesAfterPublish pins the wake ordering: a held scan starts only
// after the controller's PointDone for the awaited point has returned, so
// every tuple it emits meets the filters that PointDone injected.
func TestHoldWakesAfterPublish(t *testing.T) {
	j := buildJoin(seqRows(10), seqRows(5000))
	big := j.Right.(*Scan)
	big.Await = []*Point{j.LPoint}
	ctl := &pruneAllController{into: map[*Point]*Point{j.LPoint: j.RPoint}}
	ctx := NewContext(stats.NewRegistry(), ctl)
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	rows, err := Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("join emitted %d rows; the held side should have been fully pruned", len(rows))
	}
	for _, op := range ctx.Stats.Ops() {
		switch op.Name {
		case "join:j.right":
			if op.Pruned.Load() != 5000 {
				t.Fatalf("held side pruned %d of 5000 tuples", op.Pruned.Load())
			}
		case "scan:r":
			if op.Held.Load() <= 0 {
				t.Fatal("held scan reports no hold time")
			}
		case "scan:l":
			if op.Held.Load() != 0 {
				t.Fatalf("unheld scan reports hold time %d", op.Held.Load())
			}
		}
	}
}

// TestHoldIgnoredWithoutController: Baseline runs have no controller and
// therefore nothing to wait for; the hold list must not stall them even
// when the points were never registered.
func TestHoldIgnoredWithoutController(t *testing.T) {
	j := buildJoin(seqRows(10), seqRows(300))
	j.Right.(*Scan).Await = []*Point{j.LPoint}
	rows := runOp(t, j, nil)
	if len(rows) != 10 {
		t.Fatalf("join emitted %d rows, want 10", len(rows))
	}
}

// TestHoldCancel cancels a query while a scan is held on a producer that
// never completes (its source sleeps for an hour): the query must return
// promptly with the cancellation cause and leave no goroutine behind.
func TestHoldCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	j := buildJoin(seqRows(10), seqRows(1000))
	j.Left.(*Scan).Delay = &DelayConfig{Initial: time.Hour}
	held := j.Right.(*Scan)
	held.Await = []*Point{j.LPoint}
	ctx := NewContext(stats.NewRegistry(), &controllerRecorder{})
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	go func() {
		time.Sleep(20 * time.Millisecond)
		ctx.Cancel()
	}()
	start := time.Now()
	rows, err := Run(ctx, j)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) != 0 {
		t.Fatalf("cancelled query returned %d rows", len(rows))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled query took %v", d)
	}
	for _, op := range ctx.Stats.Ops() {
		if op.Name == "scan:r" && op.Held.Load() < int64(10*time.Millisecond) {
			t.Fatalf("held scan reports %v held; it should have waited until the cancel", time.Duration(op.Held.Load()))
		}
	}
	waitGoroutines(t, baseline)
}

// TestHoldOverlapsOwnDelay: a delayed scan's initial delay runs during its
// hold, so it waits max(delay, hold), not their sum.
func TestHoldOverlapsOwnDelay(t *testing.T) {
	j := buildJoin(seqRows(10), seqRows(100))
	j.Left.(*Scan).Delay = &DelayConfig{Initial: 100 * time.Millisecond}
	held := j.Right.(*Scan)
	held.Delay = &DelayConfig{Initial: 100 * time.Millisecond}
	held.Await = []*Point{j.LPoint}
	ctx := NewContext(stats.NewRegistry(), &controllerRecorder{})
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	start := time.Now()
	if _, err := Run(ctx, j); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 180*time.Millisecond {
		t.Fatalf("query took %v: the held scan's delay ran after its hold", d)
	}
}
