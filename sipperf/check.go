package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	sip "repro"
	"repro/internal/types"
)

// roundDigits is the significant-digit rounding applied to floats in
// canonical answers and their fingerprints.
const roundDigits = 8

// floatTol is the relative tolerance for comparing float columns row by
// row. Parallel aggregation adds floats in a nondeterministic order, so the
// last bits of a SUM differ between runs; rounding alone would still flip
// a digit now and then when a value sits on a rounding boundary.
const floatTol = 1e-9

// answer is a query result in canonical form: rows sorted by their rounded
// rendering, with the raw values kept for tolerant comparison.
type answer struct {
	keys []string
	rows []sip.Row
}

func rowKey(r sip.Row) string {
	var sb strings.Builder
	for i, v := range r {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(sip.FormatValueRounded(v, roundDigits))
	}
	return sb.String()
}

func canon(rows []sip.Row) answer {
	idx := make([]int, len(rows))
	keys := make([]string, len(rows))
	for i, r := range rows {
		idx[i] = i
		keys[i] = rowKey(r)
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	a := answer{keys: make([]string, len(rows)), rows: make([]sip.Row, len(rows))}
	for i, j := range idx {
		a.keys[i], a.rows[i] = keys[j], rows[j]
	}
	return a
}

// fingerprint hashes the canonical rendering of an answer.
func (a answer) fingerprint() string {
	h := sha256.New()
	for _, k := range a.keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// sameValue compares two values exactly, except floats, which compare
// within floatTol (relative) or 1e-6 (absolute, near zero).
func sameValue(a, b sip.Value) bool {
	if a.K == types.KindFloat && b.K == types.KindFloat {
		d := math.Abs(a.F - b.F)
		return d <= 1e-6 || d <= floatTol*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.K == b.K && a.String() == b.String()
}

func sameRow(a, b sip.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// matches reports whether got equals the reference answer as a multiset of
// rows.
func (a answer) matches(got []sip.Row) error {
	if len(got) != len(a.rows) {
		return fmt.Errorf("%d rows, want %d", len(got), len(a.rows))
	}
	g := canon(got)
	for i := range g.rows {
		if !sameRow(g.rows[i], a.rows[i]) {
			return fmt.Errorf("row %d is %s, want %s", i, g.keys[i], a.keys[i])
		}
	}
	return nil
}

// recordedFingerprint looks up the recorded fingerprint of a reference
// answer (see fingerprints.go).
func recordedFingerprint(workload string, seed int64, id string) (string, bool) {
	fp, ok := recorded[workload][seed][id]
	return fp, ok
}
