package exec

import (
	"errors"
	"time"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/types"
)

// DelayConfig reproduces the paper's §VI-B source-delay model: an initial
// delay before the first tuple, then a fixed pause every N tuples ("delayed
// by 100msec and rate-limited by injecting a 5msec delay every 1000
// tuples"). The Burst and Fault fields extend the model to flaky sources:
// bursty silence and injected failures the recovery policy must outlast.
type DelayConfig struct {
	Initial time.Duration
	EveryN  int
	Pause   time.Duration

	// BurstEveryN / BurstPause model a bursty source: after every
	// BurstEveryN tuples the stream goes quiet for BurstPause — coarse
	// stop-and-go on top of EveryN's fine-grained rate limit.
	BurstEveryN int
	BurstPause  time.Duration

	// Fault, when active, injects per-batch source failures (transient
	// errors, stalls) drawn deterministically from the profile's seed. The
	// Context's Recovery policy drives retries; an exhausted source fails
	// the query or degrades it to a partial result per the FailureMode.
	Fault *network.FaultProfile
}

// Scan streams a base table.
type Scan struct {
	Name  string
	Rows  []types.Tuple
	Sch   *types.Schema
	Delay *DelayConfig

	// Table is the base table this scan streams; it names the source in
	// SourceError and ties the scan to the abandoned-source set under
	// PartialOnSourceError. Empty for synthetic scans.
	Table string
	// Site is the executing node, keying the per-site circuit breaker.
	Site int

	// BytesPerSec paces the scan like a disk or source stream (the paper's
	// non-delayed experiments "streamed data directly from disk"): large
	// relations finish proportionally later than small ones, which is what
	// staggers subexpression completion times. Zero means unpaced.
	BytesPerSec int64
	// RowBytes is types.BytePrefix(Rows), the table's precomputed running
	// footprint: pacing reads the bytes emitted so far with one lookup per
	// flushed batch instead of a MemSize call per tuple. Nil (or stale) is
	// recomputed once per run when the scan is paced.
	RowBytes []int64

	// Await lists the stateful injection points this scan holds for before
	// emitting its first tuple, under an AIP controller: each is an input
	// whose published filter is expected to prune this scan. The optimizer
	// computes it per plan template (see optimizer.holdPlan); Instantiate
	// remaps it to the run's own points. Baseline runs (no controller)
	// ignore it.
	Await []*Point
}

// rowBytes returns the scan's byte prefix sums, computing them when the
// plan did not carry valid ones.
func (s *Scan) rowBytes() []int64 {
	if len(s.RowBytes) == len(s.Rows)+1 {
		return s.RowBytes
	}
	return types.BytePrefix(s.Rows)
}

// hold blocks until every awaited point has published (its controller's
// PointDone returned) and reports the time spent waiting; false means the
// query was cancelled first.
func (s *Scan) hold(ctx *Context) (time.Duration, bool) {
	if ctx.Ctl == nil || len(s.Await) == 0 {
		return 0, true
	}
	t0 := time.Now()
	for _, p := range s.Await {
		if p.published == nil { // not registered with this context
			continue
		}
		select {
		case <-p.published:
		case <-ctx.Cancelled():
			return time.Since(t0), false
		}
	}
	return time.Since(t0), true
}

// Schema returns the scan's output schema.
func (s *Scan) Schema() *types.Schema { return s.Sch }

// Start launches the scan goroutine. All per-run state (the stats handle
// included) lives in the goroutine, so one Scan value can back many
// concurrent executions of a prepared plan.
func (s *Scan) Start(ctx *Context) <-chan Batch {
	out := make(chan Batch, ctx.pipeDepth())
	op := ctx.Stats.NewOp("scan:" + s.Name)
	// Fault plumbing: one deterministic injector and one retry driver per
	// run, both derived from the scan's name so (plan, seed) reproduces the
	// same failure sequence.
	var inj *network.FaultInjector
	var ret *retrier
	if s.Delay != nil && s.Delay.Fault.Active() {
		inj = s.Delay.Fault.Injector("scan:" + s.Name)
		ret = newRetrier(ctx, op, s.Site, "scan:"+s.Name)
	}
	partialMode := ctx.Recovery.Mode == PartialOnSourceError && s.Table != ""
	ctx.Spawn(func() {
		defer close(out)
		// The scan's own initial delay runs concurrently with its hold:
		// a delayed source waits max(delay, hold), not their sum.
		begin := time.Now()
		held, ok := s.hold(ctx)
		if held > 0 {
			op.Held.Add(int64(held))
		}
		if !ok {
			return
		}
		if s.Delay != nil && s.Delay.Initial > 0 {
			if rest := s.Delay.Initial - time.Since(begin); rest > 0 {
				select {
				case <-time.After(rest):
				case <-ctx.Cancelled():
					return
				}
			}
		}
		batch := GetBatch()
		count := 0
		var prefix []int64
		if s.BytesPerSec > 0 {
			prefix = s.rowBytes()
		}
		start := time.Now()
		// readAttempt models one read from the flaky source: it draws the
		// injected fault decision for this attempt. A stalled read blocks on
		// the retrier's stop channel (per-attempt timeout or cancellation).
		readAttempt := func(stop <-chan struct{}) error {
			switch k := inj.Next(); k {
			case network.FaultNone:
				return nil
			case network.FaultStall:
				<-stop
				return network.ErrCancelled // timeout converts this to ErrAttemptTimeout
			default:
				return &network.FaultError{Kind: k}
			}
		}
		// flush sends the current batch (counting output per flushed batch,
		// so cancelled or short-circuited scans still report what they
		// emitted) and pays any accumulated pacing debt. The final flush
		// passes last=true to recycle instead of refilling the batch.
		flush := func(last bool) bool {
			if len(batch.Tuples) == 0 {
				// Pacing debt was settled by the preceding non-empty flush
				// (count is unchanged since), so just recycle.
				if last {
					PutBatch(batch)
				}
				return true
			}
			// A sibling stream of the same table may have been abandoned;
			// stop producing rather than feed a query that gave up on us.
			if partialMode && ctx.SourceAbandoned(s.Table) {
				PutBatch(batch)
				batch = Batch{}
				return false
			}
			if ret != nil {
				if err := ret.do(readAttempt); err != nil {
					PutBatch(batch)
					batch = Batch{}
					if !errors.Is(err, network.ErrCancelled) {
						ctx.FailSource(&SourceError{
							Table: s.Table, Site: s.Site,
							Attempts: ret.attempts, Cause: err,
						})
					}
					return false
				}
			}
			n := int64(len(batch.Tuples))
			if !send(ctx, out, batch) {
				return false
			}
			op.Out.Add(n)
			if s.BytesPerSec > 0 {
				// Pace against a cumulative deadline; sleeping only when
				// the debt exceeds a couple of milliseconds keeps the rate
				// accurate despite coarse timer granularity. prefix[count]
				// is the footprint of every row emitted so far.
				target := time.Duration(float64(prefix[count]) / float64(s.BytesPerSec) * float64(time.Second))
				if debt := target - time.Since(start); debt > 2*time.Millisecond {
					select {
					case <-time.After(debt):
					case <-ctx.Cancelled():
						return false
					}
				}
			}
			if last {
				batch = Batch{}
			} else {
				batch = GetBatch()
			}
			return true
		}
		for _, t := range s.Rows {
			batch.Tuples = append(batch.Tuples, t)
			count++
			if s.Delay != nil && s.Delay.EveryN > 0 && count%s.Delay.EveryN == 0 {
				if !flush(false) {
					return
				}
				select {
				case <-time.After(s.Delay.Pause):
				case <-ctx.Cancelled():
					return
				}
				continue
			}
			if s.Delay != nil && s.Delay.BurstEveryN > 0 && count%s.Delay.BurstEveryN == 0 {
				if !flush(false) {
					return
				}
				select {
				case <-time.After(s.Delay.BurstPause):
				case <-ctx.Cancelled():
					return
				}
				continue
			}
			if len(batch.Tuples) == BatchSize {
				if !flush(false) {
					return
				}
			}
		}
		flush(true)
	})
	return out
}

// Filter applies a predicate by narrowing each batch's selection vector:
// survivors are marked, not copied, so the tuple slice flows through
// untouched and the steady-state filter path performs zero allocations per
// batch. The predicate runs through the vectorized EvalBool kernels; stats
// are flushed once per batch.
type Filter struct {
	Child Op
	Pred  expr.Expr
	Name  string
}

// Schema returns the child schema.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Start launches the filter goroutine.
func (f *Filter) Start(ctx *Context) <-chan Batch {
	in := f.Child.Start(ctx)
	out := make(chan Batch, ctx.pipeDepth())
	op := ctx.Stats.NewOp("filter:" + f.Name)
	pred := expr.Compile(f.Pred)
	ctx.Spawn(func() {
		defer close(out)
		for b := range in {
			op.In.Add(int64(b.Len()))
			var sel []int32
			if b.Sel != nil {
				// Narrow the incoming selection in place: EvalBool only
				// appends lanes it has already read, so the output may share
				// the input's backing array.
				sel = pred.EvalBool(b.Tuples, b.Sel, b.Sel)
			} else {
				sel = pred.EvalBool(b.Tuples, identSel(len(b.Tuples)), getSel())
			}
			b.Sel = sel
			if len(sel) == 0 {
				PutBatch(b)
				continue
			}
			n := int64(len(sel))
			if !send(ctx, out, b) {
				return
			}
			op.Out.Add(n)
		}
	})
	return out
}

// Project computes output expressions one expression at a time over the
// whole batch (vectorized EvalBatch into a lane-indexed column scratch),
// then scatters the column into arena-backed output rows: one backing
// allocation per ~BatchSize rows rather than one per row, and no per-tuple
// expression-tree walks.
type Project struct {
	Child Op
	Exprs []expr.Expr
	Sch   *types.Schema
	Name  string
}

// Schema returns the projection schema.
func (p *Project) Schema() *types.Schema { return p.Sch }

// Start launches the projection goroutine.
func (p *Project) Start(ctx *Context) <-chan Batch {
	in := p.Child.Start(ctx)
	out := make(chan Batch, ctx.pipeDepth())
	op := ctx.Stats.NewOp("project:" + p.Name)
	compiled := make([]*expr.Compiled, len(p.Exprs))
	for i, e := range p.Exprs {
		compiled[i] = expr.Compile(e)
	}
	ctx.Spawn(func() {
		defer close(out)
		var (
			arena rowArena
			col   []types.Value // lane-indexed column scratch
			rows  []types.Tuple // per-batch output row scratch
		)
		width := len(compiled)
		for b := range in {
			sel := b.Live()
			n := len(sel)
			op.In.Add(int64(n))
			if n == 0 {
				PutBatch(b)
				continue
			}
			rows = rows[:0]
			for k := 0; k < n; k++ {
				rows = append(rows, arena.alloc(width))
			}
			col = growVals(col, len(b.Tuples))
			for j, c := range compiled {
				c.EvalBatch(b.Tuples, sel, col)
				for k, lane := range sel {
					rows[k][j] = col[lane]
				}
			}
			res := GetBatch()
			res.Tuples = append(res.Tuples, rows...)
			PutBatch(b)
			if !send(ctx, out, res) {
				return
			}
			op.Out.Add(int64(n))
		}
	})
	return out
}
