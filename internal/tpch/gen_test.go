package tpch

import (
	"math"
	"testing"

	"repro/internal/types"
)

func TestDeterminism(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.002})
	b := Generate(Config{ScaleFactor: 0.002})
	for _, name := range a.Names() {
		ta, _ := a.Table(name)
		tb, _ := b.Table(name)
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("%s cardinality differs", name)
		}
		for i := range ta.Rows {
			if ta.Rows[i].String() != tb.Rows[i].String() {
				t.Fatalf("%s row %d differs", name, i)
			}
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.002, Seed: 1})
	b := Generate(Config{ScaleFactor: 0.002, Seed: 2})
	sa, _ := a.Table("supplier")
	sb, _ := b.Table("supplier")
	same := true
	for i := range sa.Rows {
		if sa.Rows[i].String() != sb.Rows[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestCardinalities(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.01})
	want := map[string]int64{
		"region":   5,
		"nation":   25,
		"supplier": 100,
		"part":     2000,
		"partsupp": 8000,
		"customer": 1500,
		"orders":   15000,
	}
	for name, n := range want {
		tbl, err := c.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.NumRows() != n {
			t.Errorf("%s rows = %d, want %d", name, tbl.NumRows(), n)
		}
	}
	li, _ := c.Table("lineitem")
	// 1-7 lines per order, mean ≈ 4.
	if li.NumRows() < 45000 || li.NumRows() > 75000 {
		t.Errorf("lineitem rows = %d, want ≈60000", li.NumRows())
	}
}

func TestReferentialIntegrity(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.005})
	for _, name := range c.Names() {
		tbl, _ := c.Table(name)
		for _, fk := range tbl.ForeignKeys {
			ref, err := c.Table(fk.RefTable)
			if err != nil {
				t.Fatalf("%s FK references missing table %s", name, fk.RefTable)
			}
			// Build the referenced key set.
			refIdx := ref.ColumnIndex(fk.RefCols[0])
			keys := map[int64]bool{}
			for _, r := range ref.Rows {
				v, _ := r[refIdx].AsInt()
				keys[v] = true
			}
			colIdx := tbl.ColumnIndex(fk.Cols[0])
			for i, r := range tbl.Rows {
				v, _ := r[colIdx].AsInt()
				if !keys[v] {
					t.Fatalf("%s row %d: %s=%d has no match in %s.%s",
						name, i, fk.Cols[0], v, fk.RefTable, fk.RefCols[0])
				}
			}
		}
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.005})
	for _, name := range []string{"part", "supplier", "customer", "orders", "nation", "region"} {
		tbl, _ := c.Table(name)
		idx := tbl.ColumnIndex(tbl.PrimaryKey[0])
		seen := map[int64]bool{}
		for _, r := range tbl.Rows {
			v, _ := r[idx].AsInt()
			if seen[v] {
				t.Fatalf("%s duplicate key %d", name, v)
			}
			seen[v] = true
		}
	}
	// partsupp composite key.
	ps, _ := c.Table("partsupp")
	seen := map[[2]int64]bool{}
	for _, r := range ps.Rows {
		p, _ := r[0].AsInt()
		s, _ := r[1].AsInt()
		k := [2]int64{p, s}
		if seen[k] {
			t.Fatalf("partsupp duplicate (%d,%d)", p, s)
		}
		seen[k] = true
	}
}

func TestPartsuppFourPerPart(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.01})
	ps, _ := c.Table("partsupp")
	counts := map[int64]int{}
	for _, r := range ps.Rows {
		p, _ := r[0].AsInt()
		counts[p]++
	}
	for p, n := range counts {
		if n != 4 {
			t.Fatalf("part %d has %d suppliers, want 4", p, n)
		}
	}
}

func TestValueDomains(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.005})
	part, _ := c.Table("part")
	sizeIdx := part.ColumnIndex("p_size")
	brandIdx := part.ColumnIndex("p_brand")
	for _, r := range part.Rows {
		size, _ := r[sizeIdx].AsInt()
		if size < 1 || size > 50 {
			t.Fatalf("p_size out of domain: %d", size)
		}
		b := r[brandIdx].S
		if len(b) != 8 || b[:6] != "Brand#" {
			t.Fatalf("p_brand malformed: %q", b)
		}
	}
	li, _ := c.Table("lineitem")
	qIdx := li.ColumnIndex("l_quantity")
	dIdx := li.ColumnIndex("l_discount")
	for _, r := range li.Rows {
		q, _ := r[qIdx].AsFloat()
		if q < 1 || q > 50 {
			t.Fatalf("l_quantity out of domain: %v", q)
		}
		d, _ := r[dIdx].AsFloat()
		if d < 0 || d > 0.10001 {
			t.Fatalf("l_discount out of domain: %v", d)
		}
	}
	orders, _ := c.Table("orders")
	oIdx := orders.ColumnIndex("o_orderdate")
	for _, r := range orders.Rows {
		if r[oIdx].K != types.KindDate {
			t.Fatal("o_orderdate not a date")
		}
		if r[oIdx].I < dateLo || r[oIdx].I > dateHi {
			t.Fatalf("o_orderdate out of range: %v", r[oIdx])
		}
	}
}

func TestReceiptAfterOrder(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.005})
	orders, _ := c.Table("orders")
	odates := map[int64]int64{}
	for _, r := range orders.Rows {
		k, _ := r[0].AsInt()
		odates[k] = r[2].I
	}
	li, _ := c.Table("lineitem")
	for _, r := range li.Rows {
		ok, _ := r[0].AsInt()
		if r[6].I <= odates[ok] {
			t.Fatalf("l_receiptdate %d not after o_orderdate %d", r[6].I, odates[ok])
		}
	}
}

func TestNationsMatchTPCH(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.005})
	nation, _ := c.Table("nation")
	if nation.NumRows() != 25 {
		t.Fatal("must have 25 nations")
	}
	byName := map[string]int64{}
	for _, r := range nation.Rows {
		byName[r[1].S] = r[2].I
	}
	// Spot-check assignments the workload depends on.
	if byName["FRANCE"] != 3 {
		t.Fatal("FRANCE must be in EUROPE (3)")
	}
	if byName["ALGERIA"] != 0 {
		t.Fatal("ALGERIA must be in AFRICA (0)")
	}
	if byName["IRAN"] != 4 {
		t.Fatal("IRAN must be in MIDDLE EAST (4)")
	}
}

// TestZipfSkewConcentration verifies that the skewed generator concentrates
// lineitem foreign keys: the most popular part must receive many more
// lineitems than the uniform generator's most popular part.
func TestZipfSkewConcentration(t *testing.T) {
	count := func(cfg Config) (max int, gini float64) {
		c := Generate(cfg)
		li, _ := c.Table("lineitem")
		counts := map[int64]int{}
		for _, r := range li.Rows {
			p, _ := r[1].AsInt()
			counts[p]++
		}
		var total, sq float64
		for _, n := range counts {
			if n > max {
				max = n
			}
			total += float64(n)
			sq += float64(n) * float64(n)
		}
		// Herfindahl-style concentration index.
		return max, sq / (total * total)
	}
	uMax, uConc := count(Config{ScaleFactor: 0.01})
	sMax, sConc := count(Config{ScaleFactor: 0.01, Skew: true, Z: 0.5})
	if sMax <= uMax {
		t.Fatalf("skewed max %d should exceed uniform max %d", sMax, uMax)
	}
	if sConc <= uConc {
		t.Fatalf("skewed concentration %g should exceed uniform %g", sConc, uConc)
	}
}

func TestZipfSampler(t *testing.T) {
	z := newZipf(100, 0.5)
	r := newRNG(42)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.draw(r)]++
	}
	// Rank 0 must dominate rank 99 by roughly (100/1)^0.5 = 10x.
	ratio := float64(counts[0]) / math.Max(1, float64(counts[99]))
	if ratio < 5 || ratio > 20 {
		t.Fatalf("zipf(0.5) rank ratio = %.1f, want ≈10", ratio)
	}
	// Degenerate sizes.
	z1 := newZipf(0, 0.5)
	if z1.draw(r) != 0 {
		t.Fatal("degenerate zipf must return 0")
	}
}

func TestPermutedKeyBijective(t *testing.T) {
	const n = 997
	seen := map[int64]bool{}
	for rank := int64(0); rank < n; rank++ {
		k := permutedKey(rank, n)
		if k < 1 || k > n {
			t.Fatalf("key %d out of [1,%d]", k, n)
		}
		if seen[k] {
			t.Fatalf("permutation collision at rank %d", rank)
		}
		seen[k] = true
	}
	if permutedKey(0, 1) != 1 {
		t.Fatal("n=1 must map to 1")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.rangeInclusive(5, 10)
		if v < 5 || v > 10 {
			t.Fatalf("rangeInclusive out of bounds: %d", v)
		}
	}
	if r.intn(0) != 0 || r.intn(-5) != 0 {
		t.Fatal("intn of non-positive must be 0")
	}
	for i := 0; i < 1000; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of [0,1): %v", f)
		}
	}
}

func TestDefaultConfigs(t *testing.T) {
	if DefaultConfig().ScaleFactor != 0.01 {
		t.Fatal("default SF changed")
	}
	sc := SkewedConfig()
	if !sc.Skew || sc.Z != 0.5 {
		t.Fatal("skewed config wrong")
	}
	// Zero scale factor falls back.
	c := Generate(Config{})
	if _, err := c.Table("lineitem"); err != nil {
		t.Fatal("zero-config generation failed")
	}
}

// TestBytePrefixMatchesMemSize: the cached per-table byte prefix sum
// (paced scans charge batches from it) equals the running Σ MemSize over
// every row of every TPC-H table.
func TestBytePrefixMatchesMemSize(t *testing.T) {
	c := Generate(Config{ScaleFactor: 0.002})
	for _, name := range c.Names() {
		tbl, _ := c.Table(name)
		p := tbl.BytePrefix()
		if len(p) != len(tbl.Rows)+1 {
			t.Fatalf("%s: prefix has %d entries for %d rows", name, len(p), len(tbl.Rows))
		}
		var sum int64
		for i, row := range tbl.Rows {
			if p[i] != sum {
				t.Fatalf("%s: prefix[%d] = %d, want %d", name, i, p[i], sum)
			}
			sum += int64(row.MemSize())
		}
		if p[len(tbl.Rows)] != sum || tbl.MemBytes() != sum {
			t.Fatalf("%s: total %d / MemBytes %d, want %d", name, p[len(tbl.Rows)], tbl.MemBytes(), sum)
		}
	}
}
