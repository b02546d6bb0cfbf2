//! Delta-publish property tests: `Session::republish_delta` absorbs a
//! write through the `xvc_rel` DML path and must be indistinguishable —
//! byte-for-byte — from republishing the whole document, on both the
//! in-memory and paged storage backends. A soundness property pins the
//! delta path to the static analysis: every view node the delta run
//! re-executed must lie inside (the subtree closure of) the
//! [`xvc::core::DependencyMap`]'s affected set for the changed tables.
//!
//! `insert_sql` keys every row far outside the generator's ranges, so its
//! inserts land under no published parent. The *landing* properties
//! instead copy an existing row under a fresh key (or delete one existing
//! row), so the delta reaches an existing parent: these exercise the key
//! targeting that re-runs a node only under the parents a row reaches.
//!
//! The acceptance test at the bottom pins the incremental *win*: on the
//! deep chain workload a single-row insert re-executes under 20% of the
//! full publish's batch count.

use proptest::prelude::*;
use xvc::core::paper_fixtures::figure1_view;
use xvc::core::DependencyMap;
use xvc::prelude::*;
use xvc_bench::experiments::incr_bench;
use xvc_bench::random_stylesheet::{random_stylesheet, StylesheetConfig};
use xvc_bench::synthetic::{all_regions_view, needle_database};
use xvc_bench::workload::{generate, WorkloadConfig};
use xvc_rel::{ColumnType, Table, Value};

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

/// Rotates through the generator presets so every run covers the plain,
/// recursion-heavy, and wide-fanout shapes.
fn preset(seed: u64) -> StylesheetConfig {
    match seed % 3 {
        0 => StylesheetConfig::default(),
        1 => StylesheetConfig::recursion_heavy(),
        _ => StylesheetConfig::wide_fanout(),
    }
}

/// A fresh, type-correct row for `table`, keyed far away from the
/// generator's id ranges so inserts never collide.
fn insert_sql(schema: &TableSchema, seed: u64) -> String {
    let vals: Vec<String> = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| match c.ty {
            ColumnType::Int => format!("{}", 900_000 + seed as i64 * 100 + i as i64),
            ColumnType::Float => format!("{}.5", 900_000 + seed as i64 * 100 + i as i64),
            ColumnType::Str => format!("'delta_{seed}_{i}'"),
        })
        .collect();
    format!("INSERT INTO {} VALUES ({})", schema.name, vals.join(", "))
}

/// The DML statement for this seed: usually an insert into a
/// seed-selected table, every fourth seed a delete that hits real rows.
fn delta_sql(catalog: &Catalog, seed: u64) -> String {
    let tables: Vec<&TableSchema> = catalog.iter().collect();
    let schema = tables[(seed as usize / 4) % tables.len()];
    if seed % 4 == 3 {
        // The generators key every table by an integer first column, so a
        // broad range predicate deletes a real slice of the instance.
        format!(
            "DELETE FROM {} WHERE {} > {}",
            schema.name,
            schema.columns[0].name,
            seed % 7
        )
    } else {
        insert_sql(schema, seed)
    }
}

/// The landing DML for this seed, on a seed-selected non-empty table:
/// on even seeds a copy of an existing row under a fresh first-column
/// key (every other column, foreign keys included, is copied, so the row
/// lands under an already published parent), on odd seeds the delete of
/// one existing row by its first column (the generators' unique key).
fn landing_sql(db: &Database, seed: u64) -> String {
    let tables: Vec<&Table> = db.iter().filter(|t| !t.is_empty()).collect();
    let table = tables[(seed as usize / 2) % tables.len()];
    let schema = &table.schema;
    let rows = table.rows();
    let mut row = rows[(seed as usize / 7) % rows.len()].clone();
    if seed % 2 == 1 {
        return format!(
            "DELETE FROM {} WHERE {} = {}",
            schema.name, schema.columns[0].name, row[0]
        );
    }
    row[0] = match schema.columns[0].ty {
        ColumnType::Int => Value::Int(900_000 + seed as i64),
        ColumnType::Float => Value::Float(900_000.5 + seed as f64),
        ColumnType::Str => Value::Str(format!("landing_{seed}")),
    };
    let vals: Vec<String> = row.iter().map(ToString::to_string).collect();
    format!("INSERT INTO {} VALUES ({})", schema.name, vals.join(", "))
}

/// Composes the workload for `seed`, publishes it incrementally, applies
/// the DML `sql` picks for the seed, and returns `(full, incr, changed
/// tables, composed)` for the properties to inspect. `db` is mutated to
/// the post-delta state.
fn run_delta(
    db: &mut Database,
    seed: u64,
    sql: fn(&Database, u64) -> String,
) -> (Published, Published, Vec<String>, SchemaTree) {
    let view = figure1_view();
    let catalog = db.catalog();
    let stylesheet = random_stylesheet(&view, &catalog, seed, preset(seed));
    let composed = Composer::new(&view, &stylesheet, &catalog)
        .run()
        .expect("generated stylesheets compose")
        .view;
    let (full, incr, changed) = republish_both(&composed, db, &sql(db, seed));
    (full, incr, changed, composed)
}

/// The seed's unlanded DML ([`delta_sql`]).
fn unlanded_sql(db: &Database, seed: u64) -> String {
    delta_sql(&db.catalog(), seed)
}

/// Publishes `tree` incrementally, applies `sql`, and returns the full
/// republish, the delta republish and the changed tables.
fn republish_both(
    tree: &SchemaTree,
    db: &mut Database,
    sql: &str,
) -> (Published, Published, Vec<String>) {
    let mut publisher = Engine::new(tree).incremental(true).session();
    let prev = publisher.publish(db).expect("initial publish");
    let delta = db.execute_dml(sql).expect("delta DML");
    let changed: Vec<String> = delta
        .tables_changed()
        .iter()
        .map(|t| (*t).to_owned())
        .collect();
    let full = publisher.publish(db).expect("full republish");
    let incr = publisher
        .republish_delta(db, &prev, &delta)
        .expect("delta republish");
    (full, incr, changed)
}

proptest! {
    #![proptest_config(cases(128))]

    /// Delta publish ≡ full republish, byte-for-byte, in-memory backend.
    #[test]
    fn delta_equals_full_republish_memory(seed in 0u64..10_000) {
        let mut db = generate(&WorkloadConfig::scale(1));
        let (full, incr, _, _) = run_delta(&mut db, seed, unlanded_sql);
        prop_assert_eq!(
            incr.document.to_xml(),
            full.document.to_xml(),
            "seed {}: delta republish diverged from full republish",
            seed
        );
        // Deltas chain: the returned splice index absorbs the next write.
        prop_assert!(incr.splice.is_some(), "seed {}: no splice index", seed);
    }

    /// The same equivalence against the paged (buffer-pool) backend.
    #[test]
    fn delta_equals_full_republish_paged(seed in 0u64..10_000) {
        let base = generate(&WorkloadConfig::scale(1));
        let mut db = base
            .to_backend(xvc_rel::Backend::paged())
            .expect("paged backend");
        let (full, incr, _, _) = run_delta(&mut db, seed, unlanded_sql);
        prop_assert_eq!(
            incr.document.to_xml(),
            full.document.to_xml(),
            "seed {}: delta republish diverged on the paged backend",
            seed
        );
    }

    /// Soundness against the static analysis: every view node the delta
    /// run re-executed is in the `DependencyMap`'s affected set for some
    /// changed table — or a descendant of one (re-executing a node
    /// re-executes its whole subtree).
    #[test]
    fn reexecuted_nodes_lie_inside_the_dependency_map(seed in 0u64..10_000) {
        let mut db = generate(&WorkloadConfig::scale(1));
        let (_, incr, changed, composed) = run_delta(&mut db, seed, unlanded_sql);
        let catalog = db.catalog();
        let map = DependencyMap::of_view(&composed, &catalog, false);
        let mut affected = std::collections::BTreeSet::new();
        for t in &changed {
            affected.extend(map.affected_views(t));
        }
        for vid in &incr.reexecuted {
            let mut cur = Some(*vid);
            let mut covered = false;
            while let Some(v) = cur {
                if composed.is_root(v) {
                    break;
                }
                if affected.contains(&v) {
                    covered = true;
                    break;
                }
                cur = composed.parent(v);
            }
            prop_assert!(
                covered,
                "seed {}: node {:?} re-executed but the dependency map ties \
                 none of its ancestors to the changed tables {:?}",
                seed,
                vid,
                changed
            );
        }
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// Landing deltas on the Figure 1 compositions: delta ≡ full
    /// republish, byte-for-byte, on the in-memory and paged backends.
    #[test]
    fn landing_delta_equals_full_republish(seed in 0u64..10_000) {
        let base = generate(&WorkloadConfig::scale(1));
        for backend in [xvc_rel::Backend::Memory, xvc_rel::Backend::paged()] {
            let mut db = base.to_backend(backend).expect("backend");
            let (full, incr, _, _) = run_delta(&mut db, seed, landing_sql);
            prop_assert_eq!(
                incr.document.to_xml(),
                full.document.to_xml(),
                "seed {} ({:?}): landing delta diverged from full republish",
                seed,
                backend
            );
        }
    }

    /// Landing deltas on the breadth view, both backends: byte-identical
    /// to a full republish, and a delta below the root re-emits at most
    /// the one group it lands in (an orders row: one customer's orders;
    /// a customer row: one region's customers).
    #[test]
    fn landing_delta_on_breadth_view_reemits_one_group(seed in 0u64..10_000) {
        let (customers, orders) = (3, 2);
        let base = needle_database(12, customers, orders);
        for backend in [xvc_rel::Backend::Memory, xvc_rel::Backend::paged()] {
            let mut db = base.to_backend(backend).expect("backend");
            let sql = landing_sql(&db, seed);
            let (full, incr, changed) = republish_both(&all_regions_view(), &mut db, &sql);
            prop_assert_eq!(
                incr.document.to_xml(),
                full.document.to_xml(),
                "seed {} ({:?}): {}",
                seed,
                backend,
                sql
            );
            let group = match changed[0].as_str() {
                "orders" => orders + 1,
                "customer" => customers + 1,
                _ => continue,
            };
            prop_assert!(
                incr.stats.nodes_respliced <= group,
                "seed {}: {} re-emitted {} elements",
                seed,
                sql,
                incr.stats.nodes_respliced
            );
        }
    }
}

/// The acceptance bar for the incremental path: on the deep chain
/// workload, one inserted row republishes byte-identically (asserted
/// inside `incr_bench`) while re-executing strictly less than 20% of the
/// full publish's batches. The depth-5 chain is also absorbed
/// byte-identically (`incr_bench` panics otherwise).
#[test]
fn chain_single_row_insert_reexecutes_under_a_fifth_of_batches() {
    let shallow = incr_bench(5, 3, 1);
    assert_eq!(shallow.delta_rows_in, 1, "{shallow:?}");
    assert!(shallow.batches_delta < shallow.batches_full, "{shallow:?}");
    let deep = incr_bench(6, 3, 1);
    assert!(
        deep.reexecution_fraction() < 0.2,
        "delta path re-ran {:.0}% of the full batch count: {deep:?}",
        deep.reexecution_fraction() * 100.0
    );
}
