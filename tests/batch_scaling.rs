//! Linear-scaling gate for the paper's own workload: the Figure 1 view
//! composed with the Figure 4 stylesheet. UNBIND/NEST (§4.2) emits its
//! two parameterized tag queries in the shapes the set-oriented executor
//! decorrelates — a slot inside an `OUTER (…) AS TEMP` derived table and
//! a slot inside a sibling `EXISTS` — so each batch must run its tables
//! once, not once per binding. The gates are deterministic counters, not
//! times: rows scanned per database row, batches per publish, and
//! byte-identity with the per-binding reference publisher.

use xvc::core::paper_fixtures::figure1_view;
use xvc::prelude::*;
use xvc::xslt::parse::FIGURE4_XSLT;
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
        let reference = Engine::new(&tree)
            .batched(false)
            .session()
            .publish(&db)
            .unwrap();
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
