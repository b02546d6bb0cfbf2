//! E5: ablations of the relational engine's design choices (DESIGN.md §8).
//!
//! Each ablation runs the same work with one design choice on and off:
//!
//! * hash equi-joins vs nested-loop + post-filter
//!   ([`EvalOptions::hash_joins`]) on a three-way join;
//! * per-query caching of a row-independent `EXISTS` vs evaluating it per
//!   row ([`EvalOptions::cache_uncorrelated_exists`]);
//! * Kim-style unnesting ([`ComposeOptions::optimize`]) of a composition
//!   whose level-skipping select wraps the parent query in a derived
//!   table, published as generated vs optimized.
//!
//! Both sides of every ablation are checked to give equal results before
//! either is timed: equal row multisets for the two query options, equal
//! documents (unordered, the paper's semantics) for the two compositions.

use xvc_core::{ComposeOptions, Composer};
use xvc_rel::{eval_query_with, parse_query, Database, EvalOptions, ParamEnv, Relation};
use xvc_view::{Engine, SchemaTree, ViewNode};
use xvc_xml::documents_equal_unordered;
use xvc_xslt::parse_stylesheet;

use crate::experiments::best_ms;
use crate::workload::{generate, WorkloadConfig};

/// One ablation: a design choice timed on and off over the same input.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which design choice, e.g. `join`.
    pub ablation: &'static str,
    /// The shipped side, e.g. `hash_join`.
    pub on: &'static str,
    /// The ablated side, e.g. `nested_loop`.
    pub off: &'static str,
    /// Best wall time of the shipped side.
    pub on_ms: f64,
    /// Best wall time of the ablated side.
    pub off_ms: f64,
}

impl AblationRow {
    /// How many times slower the ablated side ran.
    pub fn speedup(&self) -> f64 {
        self.off_ms / self.on_ms
    }
}

/// Runs the three E5 ablations on the scale-2 hotel workload, best of
/// `reps` runs per side. Panics if the two sides of an ablation disagree.
pub fn ablation_study(reps: usize) -> Vec<AblationRow> {
    let db = generate(&WorkloadConfig::scale(2));
    vec![
        query_ablation(
            &db,
            "join",
            ("hash_join", "nested_loop"),
            "SELECT metroname, hotelname, capacity \
             FROM metroarea, hotel, confroom \
             WHERE metro_id = metroid AND chotel_id = hotelid AND starrating > 2",
            EvalOptions {
                hash_joins: false,
                ..EvalOptions::default()
            },
            reps,
        ),
        query_ablation(
            &db,
            "exists_cache",
            ("cached", "per_row"),
            // An EXISTS that never reads the outer row: cacheable.
            "SELECT hotelname FROM hotel \
             WHERE EXISTS (SELECT * FROM confroom WHERE capacity > 100)",
            EvalOptions {
                cache_uncorrelated_exists: false,
                ..EvalOptions::default()
            },
            reps,
        ),
        kim_ablation(&db, reps),
    ]
}

/// The rows of `rel`, rendered and sorted: equal for equal multisets.
fn canonical(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Times `sql` under the default options and under `off`.
fn query_ablation(
    db: &Database,
    ablation: &'static str,
    (on, off_label): (&'static str, &'static str),
    sql: &str,
    off: EvalOptions,
    reps: usize,
) -> AblationRow {
    let q = parse_query(sql).expect("ablation query parses");
    let env = ParamEnv::new();
    let run = |opts| eval_query_with(db, &q, &env, opts).expect("ablation query runs");
    let (with, without) = (run(EvalOptions::default()), run(off));
    assert!(!with.is_empty(), "{ablation}: the query selects nothing");
    assert_eq!(
        canonical(&with),
        canonical(&without),
        "{ablation}: {on} and {off_label} disagree — the ablation would be meaningless"
    );
    AblationRow {
        ablation,
        on,
        off: off_label,
        on_ms: best_ms(reps, || {
            std::hint::black_box(run(EvalOptions::default()));
        }),
        off_ms: best_ms(reps, || {
            std::hint::black_box(run(off));
        }),
    }
}

/// Publishes one composition as generated and once Kim-optimized, each
/// through a warm session (plans compiled before timing).
fn kim_ablation(db: &Database, reps: usize) -> AblationRow {
    // The level-skipping select `hotel/confroom` makes UNBIND wrap the
    // hotel query as a (non-preserved, `SELECT *`) derived table, which
    // the optimizer folds back into a plain `hotel AS TEMP` scan. (The
    // paper-figure compositions keep their derived tables: they are
    // preserved-side or projecting, which the conservative rule leaves
    // alone.)
    let mut view = SchemaTree::new();
    let hotel = view
        .add_root_node(ViewNode::new(
            1,
            "hotel",
            "h",
            parse_query("SELECT * FROM hotel WHERE starrating > 2").expect("fixture"),
        ))
        .expect("fixture");
    view.add_child(
        hotel,
        ViewNode::new(
            2,
            "confroom",
            "c",
            parse_query("SELECT * FROM confroom WHERE chotel_id = $h.hotelid").expect("fixture"),
        ),
    )
    .expect("fixture");
    let x = parse_stylesheet(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="hotel/confroom"/></r></xsl:template>
             <xsl:template match="confroom"><xsl:value-of select="."/></xsl:template>
           </xsl:stylesheet>"#,
    )
    .expect("fixture");
    let catalog = db.catalog();
    let compose = |optimize| {
        Composer::new(&view, &x, &catalog)
            .with_options(ComposeOptions {
                optimize,
                ..ComposeOptions::default()
            })
            .run()
            .expect("composes")
            .view
    };
    let (plain, optimized) = (compose(false), compose(true));
    assert_ne!(
        plain.render(),
        optimized.render(),
        "the optimizer must change this composition"
    );
    let mut plain_pub = Engine::new(&plain).session();
    let mut optimized_pub = Engine::new(&optimized).session();
    let a = plain_pub
        .publish(db)
        .expect("publish as generated")
        .document;
    let b = optimized_pub
        .publish(db)
        .expect("publish optimized")
        .document;
    assert!(
        !a.is_empty(),
        "kim_optimizer: the composition publishes nothing"
    );
    assert!(
        documents_equal_unordered(&a, &b),
        "kim_optimizer: optimized and as-generated documents disagree"
    );
    AblationRow {
        ablation: "kim_optimizer",
        on: "optimized",
        off: "as_generated",
        on_ms: best_ms(reps, || {
            std::hint::black_box(optimized_pub.publish(db).expect("publish optimized"));
        }),
        off_ms: best_ms(reps, || {
            std::hint::black_box(plain_pub.publish(db).expect("publish as generated"));
        }),
    }
}

/// Ablation rows as `BENCH_compose.json` objects.
pub fn render_ablation_objects(rows: &[AblationRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"ablation/{}\", \"on\": \"{}\", \"off\": \"{}\", \
                 \"ablation_on_ms\": {:.3}, \"ablation_off_ms\": {:.3}}}",
                r.ablation, r.on, r.off, r.on_ms, r.off_ms,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_verify_both_sides_and_render() {
        // ablation_study itself asserts that both sides agree.
        let rows = ablation_study(1);
        let names: Vec<&str> = rows.iter().map(|r| r.ablation).collect();
        assert_eq!(names, ["join", "exists_cache", "kim_optimizer"]);
        assert!(rows.iter().all(|r| r.on_ms > 0.0 && r.off_ms > 0.0));
        let json = crate::experiments::render_json_array(&render_ablation_objects(&rows));
        assert!(json.contains("\"ablation_on_ms\""));
        assert!(json.contains("ablation/kim_optimizer"));
    }
}
