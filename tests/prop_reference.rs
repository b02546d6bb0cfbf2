//! The engine's publish walk against the tuple-at-a-time reference walk
//! (`xvc::view::reference`, Definition 1 read literally): on randomized
//! workloads the windowed, set-oriented walk must produce the reference's
//! document byte for byte, its trace entry for entry, and its counters
//! once the batch-only ones are zeroed — across generator presets, the
//! in-memory and paged backends, and one or three threads.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xvc::core::paper_fixtures::figure1_view;
use xvc::prelude::*;
use xvc::rel::Backend;
use xvc::view::reference::Reference;
use xvc_bench::random_stylesheet::{random_stylesheet, StylesheetConfig};
use xvc_bench::workload::{generate, WorkloadConfig};

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

/// Up to 19 metros, so the Figure 1 view's metro roots span up to three
/// windows of `ROOT_WINDOW` and `parallel(3)` really runs threads.
fn config_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (
        1usize..20, // metros
        1usize..4,  // hotels per metro
        0u8..=10,   // luxury tenths
        0usize..3,  // rooms
        0usize..3,  // conference rooms
        1usize..3,  // dates
        0usize..3,  // availability per room
        any::<u64>(),
    )
        .prop_map(
            |(metros, hotels, lux, rooms, confs, dates, avail, seed)| WorkloadConfig {
                metros,
                hotels_per_metro: hotels,
                luxury_fraction: lux as f64 / 10.0,
                rooms_per_hotel: rooms,
                conf_rooms_per_hotel: confs,
                dates,
                avail_per_room: avail,
                seed,
            },
        )
}

/// The generator presets: the default mix, the recursion-heavy deep-chain
/// preset, and the wide-fanout batching preset.
fn presets() -> [StylesheetConfig; 3] {
    [
        StylesheetConfig::default(),
        StylesheetConfig::recursion_heavy(),
        StylesheetConfig::wide_fanout(),
    ]
}

/// Publishes `tree` against `db` through the engine at one and three
/// threads and through the reference walk, all traced, and compares them.
fn assert_engine_matches_reference(
    tree: &SchemaTree,
    db: &Database,
    context: &str,
) -> Result<(), TestCaseError> {
    let reference = Reference::prepared(tree)
        .traced(true)
        .publish(db)
        .expect("reference publish");
    let expected_trace = reference.trace.as_ref().expect("traced reference");
    for threads in [1, 3] {
        let published = Engine::new(tree)
            .traced(true)
            .parallel(threads)
            .session()
            .publish(db)
            .expect("engine publish");
        prop_assert_eq!(
            published.document.to_xml(),
            reference.document.to_xml(),
            "{} parallel({}): documents diverged",
            context,
            threads
        );
        let trace = published.trace.as_ref().expect("traced engine");
        prop_assert_eq!(
            trace.entries.len(),
            expected_trace.entries.len(),
            "{} parallel({}): trace lengths diverged",
            context,
            threads
        );
        for (got, want) in trace.entries.iter().zip(&expected_trace.entries) {
            prop_assert_eq!(
                (&got.path, got.view, &got.env),
                (&want.path, want.view, &want.env),
                "{} parallel({}): trace entries diverged",
                context,
                threads
            );
        }
        prop_assert_eq!(
            published.stats.without_batch_counters(),
            reference.stats,
            "{} parallel({}): counters diverged",
            context,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases(32))]

    /// 32 random instances per run, each published under the Figure 1
    /// view and three generated compositions of it, on both backends.
    #[test]
    fn engine_walk_matches_reference_walk_across_backends(
        cfg in config_strategy(),
        sheet_seed in 0u64..10_000,
    ) {
        let mem = generate(&cfg);
        let view = figure1_view();
        let catalog = mem.catalog();
        let paged = mem.to_backend(Backend::paged()).expect("paged backend");

        let mut trees = vec![("view".to_owned(), view.clone())];
        for (p, preset) in presets().iter().enumerate() {
            let stylesheet = random_stylesheet(&view, &catalog, sheet_seed, *preset);
            let composed = Composer::new(&view, &stylesheet, &catalog)
                .run()
                .expect("generated stylesheets compose")
                .view;
            trees.push((format!("preset {p}"), composed));
        }
        for (name, tree) in &trees {
            let ctx = |backend: &str| {
                format!("{name} seed {sheet_seed} cfg {cfg:?} backend {backend}")
            };
            assert_engine_matches_reference(tree, &mem, &ctx("memory"))?;
            assert_engine_matches_reference(tree, &paged, &ctx("paged"))?;
        }
    }
}
