package main

// The paper's experiment queries the olap workloads run (Table I of Ives &
// Taylor). The texts are pinned here rather than rendered from the engine's
// own query table, so that a change to the program under test cannot change
// the benchmark's inputs. None of them depends on the scale factor.
var paperQueries = map[string]string{
	// TPC-H Q2, normal.
	"Q1A": `
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 1 AND p_type LIKE '%TIN'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'AFRICA'
  AND ps_supplycost = (SELECT min(ps_supplycost)
       FROM partsupp, supplier, nation, region
       WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
         AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
         AND r_name = 'AFRICA')`,

	// TPC-H Q17, normal.
	"Q2A": `
SELECT sum(l_extendedprice) / 7.0
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND p_brand = 'Brand#34'
  AND p_container = 'MED CAN'
  AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem
       WHERE l_partkey = p_partkey )`,

	// TPC-H Q17, parent weaker (no brand predicate).
	"Q2E": `
SELECT sum(l_extendedprice) / 7.0
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND p_container = 'MED CAN'
  AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem
       WHERE l_partkey = p_partkey )`,

	// IBM decorrelation query, normal.
	"Q3A": `
SELECT s_name, s_acctbal, s_address, s_phone, s_comment
FROM part, supplier, partsupp
WHERE s_nation = 'FRANCE' AND p_size = 15 AND p_type LIKE '%BRASS'
  AND p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND ps_supplycost = (SELECT min(ps_supplycost) FROM partsupp, supplier
       WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
         AND s_nation = 'FRANCE')`,

	// TPC-H Q5, normal.
	"Q4A": `
SELECT n_name, sum(l_extendedprice * (1 - l_discount))
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'MIDDLE EAST'
  AND o_orderdate >= '1995-01-01' AND o_orderdate < '1996-01-01'
GROUP BY n_name`,

	// TPC-H Q9, normal.
	"Q5A": `
SELECT n_name, o_year, sum(amount)
FROM (SELECT n_name, year(o_orderdate) AS o_year,
        l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity AS amount,
        n_nationkey
      FROM part, supplier, lineitem, partsupp, orders, nation
      WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
        AND ps_partkey = l_partkey AND p_partkey = l_partkey
        AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
        AND p_name LIKE '%black%' ) profit
GROUP BY n_name, o_year`,
}
