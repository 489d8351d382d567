package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: a tail backed by fewer samples is one or two stray requests,
// not a property of the system.
const tailMinBeyond = 10

// tailGrid is the set of tail percentiles the benchmark may report, highest
// last.
var tailGrid = []float64{90, 95, 99}

// sortedMs returns the samples in milliseconds, ascending.
func sortedMs(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of ascending
// samples by the nearest-rank rule: the smallest sample with at least p%
// of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the 50th percentile.
func median(sorted []float64) float64 { return percentile(sorted, 50) }

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest grid percentile with at least
// tailMinBeyond samples beyond it in n samples; ok is false when even the
// lowest grid point lacks them. A workload picks its percentile from the
// sample count it is sized for, not from each run's count, so that the
// reported percentile does not change between runs.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailGrid) - 1; i >= 0; i-- {
		if beyond(n, tailGrid[i]) >= tailMinBeyond {
			return tailGrid[i], true
		}
	}
	return 0, false
}

// chunkRate is a client's completion rate: the median, over consecutive
// chunks of k completions, of k divided by the chunk's duration. ends are
// the completion times since the phase started. A run with no whole chunk
// falls back to its overall rate. The median keeps a stall of the shared
// machine from moving the figure.
func chunkRate(ends []time.Duration, k int) float64 {
	if len(ends) == 0 {
		return 0
	}
	if len(ends) < k {
		return float64(len(ends)) / ends[len(ends)-1].Seconds()
	}
	var rates []float64
	var from time.Duration
	for i := k - 1; i < len(ends); i += k {
		rates = append(rates, float64(k)/(ends[i]-from).Seconds())
		from = ends[i]
	}
	return medianFloat(rates)
}

// geomeanOfMedians is the geometric mean, over query kinds, of each kind's
// median latency in ms (the TPC-H power-test form). Kinds without samples
// are skipped; a mix of fast and slow kinds therefore cannot flip the
// figure between classes the way a plain p50 does.
func geomeanOfMedians(byKind [][]time.Duration) float64 {
	sum, n := 0.0, 0
	for _, lat := range byKind {
		if len(lat) == 0 {
			continue
		}
		m := median(sortedMs(lat))
		if m <= 0 {
			continue
		}
		sum += math.Log(m)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// outcomes counts the fate of every attempted query. attempted includes
// queries the engine or server refused and queries that returned a wrong
// answer; both count as failed.
type outcomes struct {
	ok, refused, wrong int64
}

func (o outcomes) attempted() int64 { return o.ok + o.refused + o.wrong }
func (o outcomes) failed() int64    { return o.refused + o.wrong }

// failedFrac is failed ÷ attempted (0 when nothing was attempted).
func (o outcomes) failedFrac() float64 {
	if o.attempted() == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted())
}

func (o *outcomes) add(p outcomes) {
	o.ok += p.ok
	o.refused += p.refused
	o.wrong += p.wrong
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianFloat is the median of unsorted values (mean of the middle two for
// an even count), used where the benchmark repeats a whole measurement.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
