//! The traced run (`--trace 1`): per-layer times from spans around the
//! benchmark's own calls into each layer's public functions, the
//! deterministic per-layer counters and their self-check, and the cost of
//! the tracing itself.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use xvc_core::tvq::DEFAULT_TVQ_LIMIT;
use xvc_core::{build_ctg, build_tvq, prune_tvq, stylesheet_view::build_stylesheet_view};
use xvc_view::Engine;
use xvc_xslt::{parse_stylesheet, process};

use crate::inputs::{self, Generated, Kind};
use crate::run::{self, compose, timed_loop, Env};
use crate::server::{self, Endpoint, StepResult};
use crate::stats::{median, ms, percentile, ratio, Report};
use crate::trace::Tracer;
use crate::Args;

/// Per-layer counters of one fixed set of operations: composing every
/// stylesheet, a fresh engine's first and second publish of every tree,
/// and one INSERT/DELETE pair through the delta path. None depends on
/// time, so for one seed they must repeat exactly.
pub fn counters(kind: Kind, gen: &Generated) -> Result<BTreeMap<String, f64>, String> {
    const NAMES: [&str; 26] = [
        "compose.tvq_nodes",
        "compose.tvq_nodes_pruned",
        "plan.plans_prepared",
        "plan.prepare_failures",
        "plan.cache_hit_rate",
        "exec.rows_scanned",
        "exec.rows_scanned_per_db_row",
        "exec.param_queries",
        "exec.nested_loop_rows",
        "exec.exists_evals",
        "exec.hash_join_build_rows",
        "exec.hash_join_probe_rows",
        "exec.memo_hit_rate",
        "exec.tuples_fetched",
        "exec.batches_executed",
        "exec.bindings_per_batch_max",
        "exec.rows_regrouped",
        "exec.queries_run",
        "exec.index_lookups",
        "emit.bytes",
        "emit.elements",
        "emit.peak_emit_bytes",
        "delta.batches_reexecuted",
        "delta.nodes_respliced",
        "memo.hits",
        "memo.misses",
    ];
    let mut c: BTreeMap<String, f64> = NAMES.iter().map(|n| ((*n).to_owned(), 0.0)).collect();
    let add = |c: &mut BTreeMap<String, f64>, name: &str, v: f64| {
        *c.get_mut(name).expect("declared counter") += v;
    };
    let (view, db) = inputs::load(&gen.view_text, &gen.ddl_text, &gen.tables)?;
    let catalog = db.catalog();
    let mut trees = Vec::new();
    for text in &gen.xslt_texts {
        let x = parse_stylesheet(text).map_err(|e| format!("stylesheet: {e}"))?;
        let composition = xvc_core::Composer::new(&view, &x, &catalog)
            .prune(true)
            .run()
            .map_err(|e| format!("compose: {e}"))?;
        add(
            &mut c,
            "compose.tvq_nodes",
            composition.stats.tvq_nodes as f64,
        );
        add(
            &mut c,
            "compose.tvq_nodes_pruned",
            composition.stats.tvq_nodes_pruned as f64,
        );
        trees.push(composition.view);
    }
    let view_for_serve = view.clone();
    if trees.is_empty() {
        trees.push(view);
    }
    let (mut first_hits, mut first_lookups, mut warm_hits, mut warm_lookups) = (0, 0, 0, 0);
    let (mut bindings_max, mut peak) = (0, 0);
    for tree in &trees {
        let engine = Engine::new(tree);
        let mut session = engine.session();
        let first = session.publish(&db).map_err(|e| format!("publish: {e}"))?;
        let warm = session.publish(&db).map_err(|e| format!("publish: {e}"))?;
        let (f, s, e) = (&first.stats, &warm.stats, &warm.eval);
        add(&mut c, "plan.plans_prepared", f.plans_prepared as f64);
        add(
            &mut c,
            "plan.prepare_failures",
            f.plan_prepare_failures as f64,
        );
        first_hits += f.plan_cache_hits;
        first_lookups += f.plan_cache_hits + f.plans_prepared;
        warm_hits += s.plan_cache_hits;
        warm_lookups += s.plan_cache_hits + s.plans_prepared;
        for (name, v) in [
            ("exec.rows_scanned", e.rows_scanned),
            ("exec.param_queries", e.param_queries),
            ("exec.nested_loop_rows", e.nested_loop_rows),
            ("exec.exists_evals", e.exists_evals),
            ("exec.hash_join_build_rows", e.hash_join_build_rows),
            ("exec.hash_join_probe_rows", e.hash_join_probe_rows),
            ("exec.index_lookups", e.index_lookups),
        ] {
            add(&mut c, name, v as f64);
        }
        for (name, v) in [
            ("exec.tuples_fetched", s.tuples_fetched),
            ("exec.batches_executed", s.batches_executed),
            ("exec.rows_regrouped", s.rows_regrouped),
            ("exec.queries_run", s.queries_run),
            ("emit.elements", s.elements),
            ("memo.hits", s.memo_hits),
            ("memo.misses", s.memo_misses),
        ] {
            add(&mut c, name, v as f64);
        }
        bindings_max = bindings_max.max(s.bindings_per_batch_max);
        add(&mut c, "emit.bytes", warm.document.to_xml().len() as f64);
        let streamed = engine
            .session()
            .publish_to(&db, std::io::sink())
            .map_err(|e| format!("publish: {e}"))?;
        peak = peak.max(streamed.peak_emit_bytes);
    }
    let get = |c: &BTreeMap<String, f64>, name: &str| c[name];
    let per_row = ratio(
        get(&c, "exec.rows_scanned"),
        (db.total_rows() * trees.len()) as f64,
    );
    let memo = ratio(
        get(&c, "memo.hits"),
        get(&c, "memo.hits") + get(&c, "memo.misses"),
    );
    c.insert("exec.rows_scanned_per_db_row".to_owned(), per_row);
    c.insert("exec.memo_hit_rate".to_owned(), memo);
    c.insert(
        "exec.bindings_per_batch_max".to_owned(),
        bindings_max as f64,
    );
    c.insert("emit.peak_emit_bytes".to_owned(), peak as f64);
    // The cache behaviour of the workload's main operation: a first
    // document on `compile`, a warm publish everywhere else (`serve`
    // overrides this with the server's own counters).
    let rate = if kind == Kind::Compile {
        ratio(first_hits as f64, first_lookups as f64)
    } else {
        ratio(warm_hits as f64, warm_lookups as f64)
    };
    c.insert("plan.cache_hit_rate".to_owned(), rate);

    let served = match &gen.served_xslt {
        Some(text) => {
            let x = parse_stylesheet(text).map_err(|e| format!("stylesheet: {e}"))?;
            compose(&view_for_serve, &x, &catalog)?
        }
        None => view_for_serve,
    };
    let (_, mut db) = inputs::load(&gen.view_text, &gen.ddl_text, &gen.served_tables)?;
    let mut session = Engine::new(&served).incremental(true).session();
    let mut prev = session.publish(&db).map_err(|e| format!("publish: {e}"))?;
    for sql in [&gen.insert_sql, &gen.delete_sql] {
        let delta = db.execute_dml(sql).map_err(|e| format!("dml: {e}"))?;
        let next = session
            .republish_delta(&db, &prev, &delta)
            .map_err(|e| format!("delta: {e}"))?;
        add(
            &mut c,
            "delta.batches_reexecuted",
            next.stats.batches_reexecuted as f64,
        );
        add(
            &mut c,
            "delta.nodes_respliced",
            next.stats.nodes_respliced as f64,
        );
        prev = next;
    }
    Ok(c)
}

pub fn run(args: &Args, xvc: &Path, out_dir: &Path, report: &mut Report) -> Result<(), String> {
    let wl = args.workload;
    let mut env = run::setup(args, xvc, out_dir, 0)?;
    run::check(&mut env, report)?;
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut tracer = Tracer::new();

    // Self-check: the counters repeat exactly across two generations of
    // the seed, and the plan cache behaves as the workload claims (warm
    // everywhere but `compile`, where every operation misses).
    let counters = counters(wl.kind, &env.gen)?;
    if counters != self::counters(wl.kind, &inputs::generate_inputs(wl.kind, args.seed))? {
        report.fail_check("counters differ between two passes over the same seed".to_owned());
    }
    for (name, value) in &counters {
        report.set(name, *value);
    }
    let want_rate = if wl.kind == Kind::Compile { 0.0 } else { 1.0 };
    if counters["plan.cache_hit_rate"] != want_rate {
        report.fail_check(format!(
            "plan.cache_hit_rate is {}, expected {want_rate}",
            counters["plan.cache_hit_rate"]
        ));
    }

    let untraced_p50 = publish_overhead(&mut env, &mut tracer, report, budget(0.10));
    span_cost(report);
    layer_publish(&mut env, &mut tracer, report, budget(0.10), untraced_p50);
    first_doc_layers(&env, &mut tracer, report, budget(0.20))?;
    naive(&mut env, &mut tracer, report, budget(0.05), untraced_p50)?;
    dml_replay(&env, &mut tracer, report, budget(0.10))?;
    serve_layers(&mut env, report, budget(0.30), args.seed)?;
    let rps = max_rps(&mut env, report, budget(0.25), args.seed);
    report.set("serve.max_rps", rps);

    let path = out_dir.join(format!("spans-{}-{}.jsonl", wl.name, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{}: spans written to {}", wl.name, path.display());
    Ok(())
}

/// Interleaves untraced and traced warm publishes; the difference of the
/// medians is the tracing overhead. Returns the untraced median.
fn publish_overhead(
    env: &mut Env,
    tracer: &mut Tracer,
    report: &mut Report,
    budget: Duration,
) -> f64 {
    let mut buf = Vec::new();
    let n = env.sessions.len();
    let mut untraced = Vec::new();
    let traced = timed_loop(budget, 20, |i| {
        let k = i % n;
        buf.clear();
        let t = Instant::now();
        let ok = env.sessions[k].publish_to(&env.db, &mut buf).is_ok();
        untraced.push(ms(t.elapsed()));
        report.op(ok && buf == env.expected[k]);
        buf.clear();
        let t = Instant::now();
        let ok = tracer.span("publish", 0, || {
            env.sessions[k].publish_to(&env.db, &mut buf).is_ok()
        });
        let dt = t.elapsed();
        report.op(ok && buf == env.expected[k]);
        dt
    });
    let (u, t) = (median(&untraced), median(&traced));
    report.set("trace.untraced_publish_p50_ms", u);
    report.set("trace.traced_publish_p50_ms", t);
    report.set("trace.overhead_ms", t - u);
    u
}

/// The cost of recording one span, measured directly.
fn span_cost(report: &mut Report) {
    let mut scratch = Tracer::new();
    let n = 100_000;
    let t = Instant::now();
    for _ in 0..n {
        scratch.span("cost", 0, || ());
    }
    report.set(
        "trace.span_cost_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(n),
    );
}

/// Execution and emission apart: a warm materializing `Session::publish`
/// (exec), then `Document::to_xml` of its document (emit).
fn layer_publish(
    env: &mut Env,
    tracer: &mut Tracer,
    report: &mut Report,
    budget: Duration,
    untraced_p50: f64,
) {
    let n = env.sessions.len();
    timed_loop(budget, 20, |i| {
        let k = i % n;
        let t = Instant::now();
        let published = tracer.span("exec.publish", 0, || env.sessions[k].publish(&env.db));
        let xml = published
            .as_ref()
            .ok()
            .map(|p| tracer.span("emit.serialize", 0, || p.document.to_xml()));
        report.op(xml.is_some_and(|x| x.as_bytes() == env.expected[k].as_slice()));
        t.elapsed()
    });
    let exec = median(&tracer.durations("exec.publish"));
    let emit = median(&tracer.durations("emit.serialize"));
    report.set("exec.publish_ms", exec);
    report.set("emit.serialize_ms", emit);
    report.set("trace.unaccounted_publish_ms", untraced_p50 - exec - emit);
}

/// A first document split into its calls: parse, compose, `Engine::new`,
/// first publish (under one `first_doc` span), then the same engine's
/// second publish, and the composition stages called one by one.
fn first_doc_layers(
    env: &Env,
    tracer: &mut Tracer,
    report: &mut Report,
    budget: Duration,
) -> Result<(), String> {
    let texts = env.first_doc_texts();
    let mut buf = Vec::new();
    let mut prepare = Vec::new();
    let mut error = None;
    timed_loop(budget, 10, |i| {
        let k = i % texts.len();
        let t = Instant::now();
        if let Err(e) = first_doc_traced(env, tracer, texts[k], &mut buf, &mut prepare) {
            error = Some(e);
        }
        report.op(buf == env.expected[k]);
        t.elapsed()
    });
    if let Some(e) = error {
        return Err(e);
    }
    report.set("xslt.parse_ms", median(&tracer.durations("xslt.parse")));
    for (metric, span) in [
        ("compose.ctg_ms", "compose.ctg"),
        ("compose.tvq_ms", "compose.tvq"),
        ("compose.prune_ms", "compose.prune"),
        ("compose.sv_ms", "compose.sv"),
        ("compose.total_ms", "compose.total"),
    ] {
        report.set(metric, median(&tracer.durations(span)));
    }
    report.set("plan.prepare_ms", median(&prepare));
    report.set(
        "trace.first_doc_p50_ms",
        median(&tracer.durations("first_doc")),
    );
    report.set(
        "trace.unaccounted_first_doc_ms",
        median(&tracer.self_times("first_doc")),
    );
    Ok(())
}

fn first_doc_traced(
    env: &Env,
    tracer: &mut Tracer,
    text: &str,
    buf: &mut Vec<u8>,
    prepare: &mut Vec<f64>,
) -> Result<(), String> {
    buf.clear();
    let root = tracer.open("first_doc", 0);
    let (tree, stylesheet) = if env.wl.kind == Kind::Breadth {
        let tree = tracer
            .span("view.parse", root, || xvc_view::parse_view(text))
            .map_err(|e| format!("view: {e}"))?;
        (tree, None)
    } else {
        let x = tracer
            .span("xslt.parse", root, || parse_stylesheet(text))
            .map_err(|e| format!("stylesheet: {e}"))?;
        let catalog = tracer.span("catalog", root, || env.db.catalog());
        let tree = tracer.span("compose.total", root, || compose(&env.view, &x, &catalog))?;
        (tree, Some(x))
    };
    let engine = tracer.span("plan.engine_new", root, || Engine::new(&tree));
    let mut session = engine.session();
    let first = tracer.open("first_publish", root);
    let result = session.publish_to(&env.db, &mut *buf);
    tracer.close(first);
    tracer.close(root);
    result.map_err(|e| format!("publish: {e}"))?;

    let second = tracer.open("second_publish", 0);
    let result = session.publish_to(&env.db, std::io::sink());
    tracer.close(second);
    result.map_err(|e| format!("publish: {e}"))?;
    prepare.push(tracer.duration_ms(first) - tracer.duration_ms(second));

    if let Some(x) = stylesheet {
        let (view, catalog) = (&env.view, &env.catalog);
        let ctg = tracer
            .span("compose.ctg", 0, || build_ctg(view, &x))
            .map_err(|e| format!("ctg: {e}"))?;
        let mut tvq = tracer
            .span("compose.tvq", 0, || {
                build_tvq(view, &x, &ctg, catalog, DEFAULT_TVQ_LIMIT)
            })
            .map_err(|e| format!("tvq: {e}"))?;
        tracer.span("compose.prune", 0, || prune_tvq(&mut tvq, catalog));
        tracer
            .span("compose.sv", 0, || {
                build_stylesheet_view(view, &x, &tvq, catalog)
            })
            .map_err(|e| format!("stylesheet view: {e}"))?;
    }
    Ok(())
}

/// The paper's reference strategy: publish the whole view `v(I)` (warm)
/// and run the stylesheet over it.
fn naive(
    env: &mut Env,
    tracer: &mut Tracer,
    report: &mut Report,
    budget: Duration,
    untraced_p50: f64,
) -> Result<(), String> {
    if env.stylesheets.is_empty() {
        return Ok(());
    }
    let mut session = Engine::new(&env.view).session();
    let n = env.stylesheets.len();
    timed_loop(budget, 5, |i| {
        let x = &env.stylesheets[i % n];
        let t = Instant::now();
        let ok = tracer.span("naive.x_of_v", 0, || {
            session
                .publish(&env.db)
                .is_ok_and(|full| process(x, &full.document).is_ok())
        });
        report.op(ok);
        t.elapsed()
    });
    let x_of_v = median(&tracer.durations("naive.x_of_v"));
    report.set("naive.x_of_v_ms", x_of_v);
    report.set("naive.speedup", ratio(x_of_v, untraced_p50));
    Ok(())
}

/// The served DML stream replayed in-process: `execute_dml`, then
/// `Session::republish_delta`, alternating INSERT and DELETE.
fn dml_replay(
    env: &Env,
    tracer: &mut Tracer,
    report: &mut Report,
    budget: Duration,
) -> Result<(), String> {
    let mut session = Engine::new(&env.served_tree).incremental(true).session();
    let mut prev = Some(
        session
            .publish(&env.served_db)
            .map_err(|e| format!("publish: {e}"))?,
    );
    let mut db = env.served_db.clone();
    let statements = [
        (&env.gen.insert_sql, &env.state_b),
        (&env.gen.delete_sql, &env.state_a),
    ];
    timed_loop(budget, 10, |i| {
        let (sql, want) = statements[i % 2];
        let t = Instant::now();
        let ok = match (
            tracer.span("dml.execute", 0, || db.execute_dml(sql)),
            prev.take(),
        ) {
            (Ok(delta), Some(p)) => {
                match tracer.span("delta.republish", 0, || {
                    session.republish_delta(&db, &p, &delta)
                }) {
                    Ok(next) => {
                        let ok = next.document.to_xml().as_bytes() == want.as_slice();
                        prev = Some(next);
                        ok
                    }
                    Err(_) => false,
                }
            }
            _ => false,
        };
        report.op(ok);
        t.elapsed()
    });
    report.set("dml.execute_ms", median(&tracer.durations("dml.execute")));
    report.set(
        "delta.republish_ms",
        median(&tracer.durations("delta.republish")),
    );
    Ok(())
}

/// The served mix at the fixed rate, seen from the client: the tail of
/// each endpoint, `/doc` requests that overlap a `/dml`, transport overhead over the in-process
/// publish, the generator's own lateness and backlog, the server's peak
/// resident set, and its plan-cache hit rate from `/stats` (checked).
fn serve_layers(
    env: &mut Env,
    report: &mut Report,
    budget: Duration,
    seed: u64,
) -> Result<(), String> {
    // The in-process baseline: the served tree's warm publish.
    let mut buf = Vec::new();
    let in_process = timed_loop(Duration::ZERO, 50, |_| {
        buf.clear();
        let t = Instant::now();
        let ok = env
            .served_session
            .publish_to(&env.served_db, &mut buf)
            .is_ok();
        let dt = t.elapsed();
        report.op(ok && buf == env.state_a);
        dt
    });
    let (hits0, prepared0) = env.server.plan_counts()?;
    // At least 1,000 `/publish` and `/doc` and 200 `/dml` requests (9, 9
    // and 2 in 20), so that each tail below has 10 samples above it.
    let requests = fixed_requests(budget.as_secs_f64(), 2_250);
    let r: StepResult = fixed_rate(env, report, requests, seed);
    let (hits1, prepared1) = env.server.plan_counts()?;
    // The server's engine is warm: every request must hit its plan cache.
    let rate = ratio(hits1 - hits0, (hits1 - hits0) + (prepared1 - prepared0));
    if rate != 1.0 {
        report.fail_check(format!(
            "the server's plan-cache hit rate is {rate}, expected 1"
        ));
    }
    report.set("serve.peak_rss_mb", env.server.peak_rss_mb());
    let dml: Vec<(f64, f64)> = r
        .outcomes
        .iter()
        .filter(|o| o.endpoint == Endpoint::Dml)
        .map(|o| (o.sent, o.done))
        .collect();
    let overlapping: Vec<f64> = r
        .outcomes
        .iter()
        .filter(|o| {
            o.endpoint == Endpoint::Doc && dml.iter().any(|&(s, d)| o.sent < d && s < o.done)
        })
        .map(|o| o.latency_ms())
        .collect();
    let lateness: Vec<f64> = r.outcomes.iter().map(|o| (o.sent - o.due) * 1e3).collect();
    report.set(
        "serve.doc_overlap_dml_p99_ms",
        percentile(&overlapping, 99.0),
    );
    report.set(
        "serve.publish_overhead_ms",
        percentile(&r.latencies(Some(Endpoint::Publish)), 50.0) - median(&in_process),
    );
    // The open-loop tails: mostly time a request waited behind others on
    // its connection or for the document lock, so they move with how busy
    // the shared host is. The end-to-end run times the served requests
    // closed-loop instead.
    for (metric, endpoint, p) in [
        ("serve.publish_p99_ms", Endpoint::Publish, 99.0),
        ("serve.doc_p99_ms", Endpoint::Doc, 99.0),
        ("serve.dml_p95_ms", Endpoint::Dml, 95.0),
    ] {
        report.set(metric, percentile(&r.latencies(Some(endpoint)), p));
    }
    report.set("serve.gen_lateness_p99_ms", percentile(&lateness, 99.0));
    report.set("serve.backlog_max", r.backlog_max as f64);
    Ok(())
}

/// Offered rate of the fixed-rate served mix, in requests per second over
/// all endpoints. An assumption, not a measured traffic figure: it is set
/// well below the `serve.max_rps` every workload reaches (see README), so
/// the fixed-rate tails time the server rather than a saturated queue.
const FIXED_RATE: f64 = 220.0;

/// The rate ladder: rung `k` offers `LADDER_BASE · LADDER_STEP^k`
/// requests per second (25 to about 51,000). The search climbs
/// `LADDER_STRIDE` rungs at a time, then bisects. Rungs 5% apart keep the
/// result from jumping between coarse steps when the host's speed drifts.
const LADDER_BASE: f64 = 25.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_TOP: usize = 156;
const LADDER_STRIDE: usize = 12;
const LADDER_MAX_STEPS: usize = 10;

/// The p95 latency (from due time) a ladder step must meet. An
/// assumption: about three times the slowest request of the mix (`/dml`,
/// whose p90 at the fixed rate is 8 to 17 ms), so a step fails on
/// queueing, not on the cost of one request. A step near capacity holds
/// about 500 requests, so its p95 has 25 samples above it (a p99 would
/// rest on 5).
const LIMIT_MS: f64 = 50.0;

/// One stretch of the served mix at the workload's fixed rate: `requests`
/// requests, every answer checked.
fn fixed_rate(env: &mut Env, report: &mut Report, requests: usize, seed: u64) -> StepResult {
    let expected = env.served();
    let mut insert_next = env.insert_next;
    let result = server::open_loop(
        &env.server.addr,
        FIXED_RATE,
        requests,
        seed,
        &expected,
        &mut insert_next,
        5.0,
    );
    env.insert_next = insert_next;
    for o in &result.outcomes {
        report.op(o.ok);
    }
    for _ in 0..result.abandoned {
        report.op(false);
    }
    result
}

/// Requests of a fixed-rate phase of `seconds`, and never fewer than `min`.
fn fixed_requests(seconds: f64, min: usize) -> usize {
    ((FIXED_RATE * seconds).round() as usize).max(min)
}

fn rung(k: usize) -> f64 {
    (LADDER_BASE * LADDER_STEP.powi(k as i32)).round()
}

/// The search for `serve.max_rps`: the highest ladder rung whose step
/// passed. From the fixed rate it moves `LADDER_STRIDE` rungs up (or down)
/// until the outcome flips, then bisects, then spends any steps left
/// re-trying the rung just above the best pass and climbing one rung at a
/// time while it passes. A rung that failed during a slow stretch of the
/// shared host therefore gets another chance.
struct Ladder {
    /// Highest passing rung, and lowest failing rung above it.
    lo: Option<usize>,
    hi: Option<usize>,
    /// Whether any step has failed yet (the coarse climb is over).
    flipped: bool,
    next: Option<usize>,
    steps: usize,
}

impl Ladder {
    fn new() -> Ladder {
        let start = (0..LADDER_TOP)
            .find(|&k| rung(k) >= FIXED_RATE)
            .unwrap_or(0);
        Ladder {
            lo: None,
            hi: None,
            flipped: false,
            next: Some(start),
            steps: 0,
        }
    }

    fn record(&mut self, k: usize, passed: bool) {
        self.steps += 1;
        if passed {
            self.lo = Some(self.lo.map_or(k, |l| l.max(k)));
            self.hi = self.hi.filter(|&h| h > k);
        } else {
            self.flipped = true;
            if self.lo.is_none_or(|l| k > l) {
                self.hi = Some(self.hi.map_or(k, |h| h.min(k)));
            }
        }
        let stride = if self.flipped { 1 } else { LADDER_STRIDE };
        self.next = match (self.lo, self.hi) {
            _ if self.steps >= LADDER_MAX_STEPS => None,
            (Some(l), None) => Some((l + stride).min(LADDER_TOP)),
            (None, Some(h)) => (h > 0).then(|| h.saturating_sub(LADDER_STRIDE)),
            (Some(l), Some(h)) => Some(if h > l + 1 { (l + h) / 2 } else { h }),
            (None, None) => None,
        };
    }

    fn max_rps(&self) -> f64 {
        self.lo.map_or(0.0, rung)
    }
}

/// One ladder step: the served mix at `rate` for `seconds`. It passes when
/// every request was sent and answered correctly, the backlog did not grow
/// (at most 1% of the step, or 2 requests, still queued at the end) and
/// the p95 from due time meets the limit.
fn ladder_step(env: &mut Env, report: &mut Report, rate: f64, seconds: f64, seed: u64) -> bool {
    let limit = LIMIT_MS;
    let requests = (rate * seconds).round() as usize;
    let expected = env.served();
    let mut insert_next = env.insert_next;
    let r = server::open_loop(
        &env.server.addr,
        rate,
        requests,
        seed,
        &expected,
        &mut insert_next,
        (4.0 * limit / 1e3).max(0.25),
    );
    env.insert_next = insert_next;
    for o in &r.outcomes {
        report.op(o.ok);
    }
    r.abandoned == 0
        && r.failures() == 0
        && r.backlog_end <= (requests / 100).max(2)
        && percentile(&r.latencies(None), 95.0) <= limit
}

/// `serve.max_rps`: the ladder search, `LADDER_MAX_STEPS` steps sharing
/// `budget`.
fn max_rps(env: &mut Env, report: &mut Report, budget: Duration, seed: u64) -> f64 {
    let step_seconds = (budget.as_secs_f64() / LADDER_MAX_STEPS as f64).max(0.3);
    let mut ladder = Ladder::new();
    while let Some(k) = ladder.next {
        let passed = ladder_step(env, report, rung(k), step_seconds, seed ^ (k as u64) << 32);
        ladder.record(k, passed);
    }
    ladder.max_rps()
}
