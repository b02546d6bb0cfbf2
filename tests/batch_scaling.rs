//! Scaling gates for set-oriented publishing.
//!
//! The paper's own workload: the Figure 1 view composed with the Figure 4
//! stylesheet. UNBIND/NEST (§4.2) emits its two parameterized tag queries
//! in the shapes the set-oriented executor decorrelates — a slot inside an
//! `OUTER (…) AS TEMP` derived table and a slot inside a sibling `EXISTS`
//! — so each batch must run its tables once, not once per binding.
//!
//! The breadth workload: many root elements, each with a small subtree.
//! The root instances are cut into windows of `ROOT_WINDOW`, and each
//! window's child levels run as one batch per view node, so batches grow
//! with the number of windows, not of roots.
//!
//! A delta on the breadth workload: a new order can only change its own
//! customer's orders, so the delta republish re-runs the order node under
//! that customer alone, whatever the number of regions.
//!
//! The gates are deterministic counters, not times: rows scanned per
//! database row, batches per publish, re-emitted elements per delta, and
//! byte-identity with the per-binding reference walk
//! (`xvc_view::reference`).

use xvc::core::paper_fixtures::figure1_view;
use xvc::prelude::*;
use xvc::view::reference::Reference;
use xvc::view::ROOT_WINDOW;
use xvc::xslt::parse::FIGURE4_XSLT;
use xvc_bench::synthetic::{all_regions_view, needle_database};
use xvc_bench::workload::{generate, WorkloadConfig};

fn composed(catalog: &Catalog) -> SchemaTree {
    let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
    Composer::new(&figure1_view(), &x, catalog)
        .prune(true)
        .run()
        .unwrap()
        .view
}

#[test]
fn composed_figure4_plans_are_batchable() {
    let db = generate(&WorkloadConfig::scale(1));
    let catalog = db.catalog();
    let tree = composed(&catalog);
    let mut parameterized = Vec::new();
    for id in tree.node_ids() {
        let node = tree.node(id).unwrap();
        let Some(q) = &node.query else { continue };
        let plan = prepare(q, &catalog).unwrap();
        if plan.slots().is_empty() {
            continue;
        }
        assert!(
            plan.batchable(),
            "{} is not batchable:\n{}",
            node.tag,
            plan.describe()
        );
        parameterized.push(node.tag.clone());
    }
    parameterized.sort();
    assert_eq!(parameterized, ["confroom", "result_confstat"]);
}

#[test]
fn composed_figure4_scans_each_row_at_most_twice_at_every_scale() {
    for scale in [1, 4, 16] {
        let db = generate(&WorkloadConfig::scale(scale));
        let tree = composed(&db.catalog());
        let batched = Engine::new(&tree).session().publish(&db).unwrap();
        let reference = Reference::prepared(&tree).publish(&db).unwrap();
        assert_eq!(
            batched.document.to_xml(),
            reference.document.to_xml(),
            "scale {scale}: batched and per-binding documents differ"
        );
        let per_row = batched.eval.rows_scanned as f64 / db.total_rows() as f64;
        assert!(
            per_row <= 2.0,
            "scale {scale}: {} rows scanned for {} database rows ({per_row:.2} per row)",
            batched.eval.rows_scanned,
            db.total_rows()
        );
        assert_eq!(
            batched.stats.batches_executed, 3,
            "scale {scale}: {:?}",
            batched.stats
        );
    }
}

#[test]
fn breadth_view_batches_once_per_window_at_every_scale() {
    let view = all_regions_view();
    let (customers_per_region, orders_per_customer) = (5, 4);
    for regions in [20, 200] {
        let db = needle_database(regions, customers_per_region, orders_per_customer);
        let customers = regions * customers_per_region;
        let orders = customers * orders_per_customer;
        let windows = regions.div_ceil(ROOT_WINDOW);

        // Fresh engines, so both runs prepare their plans alike.
        let published = Engine::new(&view).session().publish(&db).unwrap();
        let mut bytes = Vec::new();
        let streamed = Engine::new(&view)
            .session()
            .publish_to(&db, &mut bytes)
            .unwrap();
        let reference = Reference::prepared(&view).publish(&db).unwrap();
        let xml = published.document.to_xml();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            xml,
            "{regions} regions: streamed and materialized documents differ"
        );
        assert_eq!(
            reference.document.to_xml(),
            xml,
            "{regions} regions: batched and per-binding documents differ"
        );
        assert_eq!(streamed.stats, published.stats, "{regions} regions");
        assert_eq!(streamed.eval, published.eval, "{regions} regions");

        // One customer batch and one order batch per window; the root
        // query scans `region` once, each batch its table once.
        assert_eq!(
            published.stats.batches_executed,
            2 * windows,
            "{regions} regions: {:?}",
            published.stats
        );
        assert_eq!(
            published.eval.rows_scanned as usize,
            regions + windows * (customers + orders),
            "{regions} regions: {:?}",
            published.eval
        );
    }
}

#[test]
fn breadth_delta_reemits_only_the_reached_customers_orders() {
    let view = all_regions_view();
    let (customers_per_region, orders_per_customer) = (5, 4);
    for regions in [20, 200] {
        let mut db = needle_database(regions, customers_per_region, orders_per_customer);
        let engine = Engine::new(&view).incremental(true);
        let prev = engine.session().publish(&db).unwrap();
        // Customer 7 lives in region 1 and has `orders_per_customer`
        // orders before the insert.
        let delta = db
            .execute_dml("INSERT INTO orders VALUES (999999, 7, 42)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&db, &prev, &delta)
            .unwrap();
        let full = Engine::new(&view).session().publish(&db).unwrap();
        assert_eq!(
            after.document.to_xml(),
            full.document.to_xml(),
            "{regions} regions: delta and full republish differ"
        );
        assert_eq!(
            after.stats.batches_reexecuted, 1,
            "{regions} regions: {:?}",
            after.stats
        );
        assert_eq!(
            after.stats.nodes_respliced,
            orders_per_customer + 1,
            "{regions} regions: {:?}",
            after.stats
        );
    }
}
