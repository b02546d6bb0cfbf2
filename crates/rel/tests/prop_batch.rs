//! Property tests for set-oriented execution: on every generated
//! database, query and binding list, `execute_batch` must agree
//! row-for-row (per binding, in order) with the scalar loop
//! `envs.iter().map(|e| plan.execute(db, e))` — including *which* error
//! surfaces when bindings fail, and the documented `EvalStats`
//! relationships between the two paths.

use proptest::prelude::*;
use xvc_rel::{
    parse_query, prepare, ColumnDef, ColumnType, Database, EvalStats, NamedTuple, ParamEnv,
    PreparedPlan, Relation, Value,
};

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

/// The empty `r(a, b, k)` / `s(c, k2)` schema every case runs on.
fn empty_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        xvc_rel::TableSchema::new(
            "r",
            vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Int),
                ColumnDef::new("k", ColumnType::Int),
            ],
        )
        .unwrap(),
    );
    db.create_table(
        xvc_rel::TableSchema::new(
            "s",
            vec![
                ColumnDef::new("c", ColumnType::Int),
                ColumnDef::new("k2", ColumnType::Int),
            ],
        )
        .unwrap(),
    );
    db
}

fn db_strategy() -> impl Strategy<Value = Database> {
    let row_r = (0i64..5, 0i64..5, 0i64..4);
    let row_s = (0i64..5, 0i64..4);
    (
        prop::collection::vec(row_r, 0..8),
        prop::collection::vec(row_s, 0..8),
    )
        .prop_map(|(rs, ss)| {
            let mut db = empty_db();
            for (a, b, k) in rs {
                db.insert("r", vec![Value::Int(a), Value::Int(b), Value::Int(k)])
                    .unwrap();
            }
            for (c, k) in ss {
                db.insert("s", vec![Value::Int(c), Value::Int(k)]).unwrap();
            }
            db
        })
}

/// Slot-only `EXISTS` / `NOT EXISTS` residuals (with and without GROUP
/// BY / HAVING, alone or after a root key and another residual): each
/// becomes a binding filter whose subquery runs once per batch.
const EXISTS_SHAPES: &[&str] = &[
    "SELECT a, b FROM r WHERE EXISTS (SELECT * FROM s WHERE k2 = $p.v)",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT c FROM s WHERE k2 = $p.v)",
    "SELECT a FROM r WHERE k = $p.v AND a > 1 \
     AND EXISTS (SELECT COUNT(c), c FROM s WHERE k2 = $p.v GROUP BY c)",
    "SELECT a FROM r WHERE NOT EXISTS \
     (SELECT k2 FROM s WHERE k2 = $p.v GROUP BY k2 HAVING COUNT(*) > 1)",
    "SELECT b FROM r WHERE k = $p.v \
     AND EXISTS (SELECT COUNT(*) FROM s WHERE k2 = $p.v HAVING COUNT(*) > 1)",
    "SELECT a FROM r WHERE b = $p.v AND NOT EXISTS (SELECT SUM(c) FROM s WHERE k2 = $p.v)",
];

/// Slot equalities inside a derived table, preserved (`OUTER`) or not,
/// pulled up onto the table's output column.
const DERIVED_SHAPES: &[&str] = &[
    "SELECT r.a, T.c FROM r, OUTER (SELECT * FROM s WHERE k2 = $p.v) AS T WHERE r.k = T.k2",
    "SELECT r.a, T.c FROM r, (SELECT * FROM s WHERE k2 = $p.v) AS T WHERE r.k = T.k2",
    "SELECT COUNT(a), T.c, T.k2 FROM r, OUTER (SELECT * FROM s WHERE k2 = $p.v AND c > 0) AS T \
     WHERE k = T.k2 GROUP BY T.c, T.k2",
    "SELECT T.c, r.b FROM OUTER (SELECT k2, c FROM s WHERE $p.v = k2) AS T, r \
     WHERE T.c = r.a",
];

/// A row-correlated EXISTS (its subquery reads the enclosing row's `k`):
/// it must stay on the per-distinct-binding fallback.
const CORRELATED_EXISTS: &str =
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE k2 = k AND c = $p.v)";

/// A slot key on the inner side of a left-outer join: every binding pads
/// the whole baseline, so it must stay on the fallback too.
const KEY_BESIDE_OUTER: &str =
    "SELECT r.a, T.c FROM r, OUTER (SELECT * FROM s) AS T WHERE r.k = T.k2 AND r.b = $p.v";

/// Queries spanning every batch strategy: separable slot equalities
/// (fast path, alone / fused with other pushdowns / across a join /
/// under aggregation and DISTINCT), slot-only EXISTS binding filters,
/// pulled-up derived-table keys, and non-separable slot predicates
/// (per-distinct-binding fallback).
fn query_pool() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        1 => Just("SELECT a, b FROM r WHERE k = $p.v"),
        1 => Just("SELECT a FROM r WHERE k = $p.v AND a > 1"),
        1 => Just("SELECT r.a, s.c FROM r, s WHERE k = k2 AND b = $p.v"),
        1 => Just("SELECT k, COUNT(*) FROM r WHERE b = $p.v GROUP BY k"),
        1 => Just("SELECT DISTINCT a FROM r WHERE k = $p.v"),
        1 => Just("SELECT a FROM r WHERE k > $p.v"),
        1 => Just("SELECT a FROM r WHERE k = $p.v AND b > $p.v"),
        3 => decorrelated_pool(),
        1 => Just(CORRELATED_EXISTS),
        1 => Just(KEY_BESIDE_OUTER),
    ]
}

/// The decorrelated shapes of the pool, which the batch runs set-oriented.
fn decorrelated_pool() -> impl Strategy<Value = &'static str> {
    let shapes = EXISTS_SHAPES.len() + DERIVED_SHAPES.len();
    (0..shapes).prop_map(|i| {
        EXISTS_SHAPES
            .get(i)
            .copied()
            .unwrap_or_else(|| DERIVED_SHAPES[i - EXISTS_SHAPES.len()])
    })
}

fn env(v: i64) -> ParamEnv {
    let mut env = ParamEnv::new();
    env.insert(
        "p".into(),
        NamedTuple {
            columns: vec!["v".into()],
            values: vec![Value::Int(v)],
        },
    );
    env
}

/// Binding lists: `Some(v)` binds `$p.v = v`, `None` leaves `$p` unbound
/// (the scalar path errors there, and the batch must agree).
fn binding_strategy() -> impl Strategy<Value = Vec<Option<i64>>> {
    prop::collection::vec(
        prop_oneof![4 => (0i64..5).prop_map(Some), 1 => Just(None)],
        0..7,
    )
}

fn envs_of(bindings: &[Option<i64>]) -> Vec<ParamEnv> {
    bindings
        .iter()
        .map(|b| b.map(env).unwrap_or_default())
        .collect()
}

/// The reference semantics: scalar execution per binding, stopping at
/// the first error, accumulating stats over the successes.
fn scalar_loop(
    plan: &PreparedPlan,
    db: &Database,
    envs: &[ParamEnv],
) -> Result<(Vec<Relation>, EvalStats), xvc_rel::Error> {
    let mut stats = EvalStats::default();
    let mut out = Vec::new();
    for e in envs {
        out.push(plan.execute_stats(db, e, &mut stats)?);
    }
    Ok((out, stats))
}

/// The scalar loop over the distinct values of `vs`, in first-occurrence
/// order: what the per-distinct-binding strategy executes.
fn distinct_envs(vs: &[i64]) -> Vec<ParamEnv> {
    let mut distinct: Vec<i64> = Vec::new();
    for v in vs {
        if !distinct.contains(v) {
            distinct.push(*v);
        }
    }
    distinct.into_iter().map(env).collect()
}

fn table_rows(db: &Database, table: &str) -> u64 {
    prepare(
        &parse_query(&format!("SELECT * FROM {table}")).unwrap(),
        &db.catalog(),
    )
    .unwrap()
    .execute(db, &ParamEnv::new())
    .unwrap()
    .len() as u64
}

#[test]
fn decorrelated_shapes_are_batchable_and_unsound_ones_are_not() {
    let db = empty_db();
    for sql in EXISTS_SHAPES.iter().chain(DERIVED_SHAPES) {
        let plan = prepare(&parse_query(sql).unwrap(), &db.catalog()).unwrap();
        assert!(plan.batchable(), "{sql}\n{}", plan.describe());
    }
    for sql in [CORRELATED_EXISTS, KEY_BESIDE_OUTER] {
        let plan = prepare(&parse_query(sql).unwrap(), &db.catalog()).unwrap();
        assert!(!plan.batchable(), "{sql}\n{}", plan.describe());
    }
}

proptest! {
    #![proptest_config(cases(256))]

    /// Row-for-row and error agreement: for every binding `i`,
    /// `batch.rows_for(i)` equals the scalar `execute(db, &envs[i])`
    /// rows in the same order; if any binding errors scalarly, the batch
    /// fails with the first such error and absorbs no stats.
    #[test]
    fn batch_equals_scalar_loop(
        db in db_strategy(),
        sql in query_pool(),
        bindings in binding_strategy(),
    ) {
        let q = parse_query(sql).unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let envs = envs_of(&bindings);
        let mut batch_stats = EvalStats::default();
        let refs: Vec<&ParamEnv> = envs.iter().collect();
        let batch = plan.execute_batch_stats(&db, &refs, &mut batch_stats);
        match (scalar_loop(&plan, &db, &envs), batch) {
            (Ok((scalar, _)), Ok(batch)) => {
                prop_assert_eq!(batch.bindings(), envs.len());
                for (i, rel) in scalar.iter().enumerate() {
                    prop_assert_eq!(
                        batch.rows_for(i),
                        &rel.rows[..],
                        "binding {} of {}", i, sql
                    );
                    prop_assert_eq!(batch.columns(), &rel.columns[..]);
                }
            }
            (Err(se), Err(be)) => {
                prop_assert_eq!(
                    format!("{se:?}"),
                    format!("{be:?}"),
                    "different errors for {}", sql
                );
                prop_assert_eq!(batch_stats, EvalStats::default());
            }
            (Ok(_), Err(e)) => prop_assert!(false, "only the batch failed for {}: {}", sql, e),
            (Err(e), Ok(_)) => {
                prop_assert!(false, "only the scalar loop failed for {}: {}", sql, e)
            }
        }
    }

    /// Stats consistency, fallback strategy: a non-separable slot
    /// predicate makes `execute_batch` run once per *distinct* binding,
    /// so its counters must equal the scalar loop over the deduplicated
    /// binding list.
    #[test]
    fn fallback_stats_equal_distinct_scalar_loop(
        db in db_strategy(),
        vs in prop::collection::vec(0i64..5, 1..7),
    ) {
        let q = parse_query("SELECT a FROM r WHERE k > $p.v").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        prop_assert!(!plan.batchable());
        let envs: Vec<ParamEnv> = vs.iter().copied().map(env).collect();
        let mut batch_stats = EvalStats::default();
        let refs: Vec<&ParamEnv> = envs.iter().collect();
        plan.execute_batch_stats(&db, &refs, &mut batch_stats).unwrap();
        let (_, reference) = scalar_loop(&plan, &db, &distinct_envs(&vs)).unwrap();
        prop_assert_eq!(batch_stats, reference);
    }

    /// Stats consistency, fast path: a separable single-table plan scans
    /// its table exactly once per batch regardless of binding count, the
    /// binding relation counts as one hash-join build probed once per
    /// distinct binding, and `param_queries` counts distinct bindings.
    /// The build side holds exactly the rows some binding matches: the
    /// scan's semijoin with the binding relation drops the others.
    #[test]
    fn fast_path_scans_once(
        db in db_strategy(),
        vs in prop::collection::vec(0i64..5, 1..7),
    ) {
        let q = parse_query("SELECT a, b FROM r WHERE k = $p.v").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        prop_assert!(plan.batchable());
        let envs: Vec<ParamEnv> = vs.iter().copied().map(env).collect();
        let mut stats = EvalStats::default();
        let refs: Vec<&ParamEnv> = envs.iter().collect();
        plan.execute_batch_stats(&db, &refs, &mut stats).unwrap();
        let distinct = distinct_envs(&vs);
        // Distinct values of `k` select disjoint rows.
        let matched: u64 = distinct
            .iter()
            .map(|e| plan.execute(&db, e).unwrap().len() as u64)
            .sum();
        prop_assert_eq!(stats.queries, 1);
        prop_assert_eq!(stats.rows_scanned, table_rows(&db, "r"));
        prop_assert_eq!(stats.param_queries, distinct.len() as u64);
        prop_assert_eq!(stats.hash_join_builds, 1);
        prop_assert_eq!(stats.hash_join_build_rows, matched);
        prop_assert_eq!(stats.hash_join_probe_rows, distinct.len() as u64);
    }

    /// The decorrelated shapes run set-oriented: rows and order agree with
    /// the scalar loop, each table is scanned at most once per batch (the
    /// binding filter's subquery included), the subquery runs at most
    /// once, and no counter exceeds the per-distinct-binding loop's.
    #[test]
    fn decorrelated_shapes_scan_each_table_once(
        db in db_strategy(),
        sql in decorrelated_pool(),
        vs in prop::collection::vec(0i64..5, 1..7),
    ) {
        let plan = prepare(&parse_query(sql).unwrap(), &db.catalog()).unwrap();
        prop_assert!(plan.batchable());
        let envs: Vec<ParamEnv> = vs.iter().copied().map(env).collect();
        let mut stats = EvalStats::default();
        let refs: Vec<&ParamEnv> = envs.iter().collect();
        let batch = plan.execute_batch_stats(&db, &refs, &mut stats).unwrap();
        let (scalar, _) = scalar_loop(&plan, &db, &envs).unwrap();
        for (i, rel) in scalar.iter().enumerate() {
            prop_assert_eq!(batch.rows_for(i), &rel.rows[..], "binding {} of {}", i, sql);
        }
        let distinct = distinct_envs(&vs);
        let (_, reference) = scalar_loop(&plan, &db, &distinct).unwrap();
        prop_assert!(
            stats.rows_scanned <= table_rows(&db, "r") + table_rows(&db, "s"),
            "{}: {:?}", sql, stats
        );
        prop_assert!(stats.rows_scanned <= reference.rows_scanned, "{}: {:?}", sql, stats);
        prop_assert!(stats.queries <= reference.queries, "{}: {:?}", sql, stats);
        prop_assert!(stats.exists_evals <= 1, "{}: {:?}", sql, stats);
        prop_assert_eq!(stats.param_queries, distinct.len() as u64);
    }
}
