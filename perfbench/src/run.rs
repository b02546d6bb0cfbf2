//! Set-up, output checks and the end-to-end measurement (`--trace 0`).
//!
//! Every run measures the same three things on its workload's inputs, in
//! interleaved rounds: warm in-process publishes, first documents from
//! fresh text, and the served mix sent closed-loop on one connection.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xvc_core::Composer;
use xvc_rel::{Catalog, Database};
use xvc_view::{Engine, SchemaTree, Session};
use xvc_xml::documents_equal_unordered;
use xvc_xslt::{parse_stylesheet, process, Stylesheet};

use crate::inputs::{self, Generated, Kind, Workload};
use crate::server::{self, Endpoint, Expected, Server, StepResult};
use crate::stats::{median, ms, percentile, Report};
use crate::Args;

/// Shares of `--seconds` for the warm-publish, first-document and served
/// measurements.
const SHARES: [f64; 3] = [0.3, 0.3, 0.4];

/// Warm publishes and first documents per round at least: 200 over the
/// run, enough for a p95 with 10 samples above it. The served mix sends
/// 10 times as many, so that its 2 `/dml` in 20 reach 200 too.
const TIMED_MIN: usize = 25;

/// Rounds the end-to-end phases are interleaved over.
const ROUNDS: usize = 8;

/// The workload's inputs, loaded, composed and warm, with its server up.
pub struct Env {
    pub wl: &'static Workload,
    pub gen: Generated,
    pub view: SchemaTree,
    pub db: Database,
    pub catalog: Catalog,
    /// Parsed stylesheets, one per published tree (none for `breadth`).
    pub stylesheets: Vec<Stylesheet>,
    /// The published trees: one composed view per stylesheet, or the view
    /// itself for `breadth`.
    pub trees: Vec<SchemaTree>,
    /// One warm session per tree.
    pub sessions: Vec<Session>,
    /// Streamed bytes per tree, checked against `Document::to_xml`.
    pub expected: Vec<Vec<u8>>,
    /// What `xvc serve` publishes: Figure 4 composed over the view, or the
    /// view itself for `breadth`.
    pub served_xslt: Option<Stylesheet>,
    pub served_tree: SchemaTree,
    /// The database `xvc serve` loads: the workload's own, except on
    /// `compile` (see [`inputs::Generated::served_tables`]).
    pub served_db: Database,
    /// A warm session on the served tree.
    pub served_session: Session,
    /// The served document before the INSERT (and after the DELETE).
    pub state_a: Vec<u8>,
    /// The served document after the INSERT.
    pub state_b: Vec<u8>,
    pub server: Server,
    /// Whether the next served DML is the INSERT.
    pub insert_next: bool,
    _work: WorkDir,
}

impl Env {
    /// The text each first-document operation starts from: a stylesheet,
    /// or the view for `breadth`.
    pub fn first_doc_texts(&self) -> Vec<&str> {
        if self.gen.xslt_texts.is_empty() {
            vec![self.gen.view_text.as_str()]
        } else {
            self.gen.xslt_texts.iter().map(String::as_str).collect()
        }
    }

    pub fn served(&self) -> Expected<'_> {
        Expected {
            state_a: &self.state_a,
            state_b: &self.state_b,
            insert_sql: &self.gen.insert_sql,
            delete_sql: &self.gen.delete_sql,
        }
    }
}

/// A scratch directory for the generated files, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Composes `x` over `view` as `xvc run --prune` does.
pub fn compose(view: &SchemaTree, x: &Stylesheet, catalog: &Catalog) -> Result<SchemaTree, String> {
    Composer::new(view, x, catalog)
        .prune(true)
        .run()
        .map(|c| c.view)
        .map_err(|e| format!("compose: {e}"))
}

/// Generates, writes, loads and composes the workload's inputs, warms one
/// session per published tree, and starts `xvc serve` on them.
pub fn setup(args: &Args, xvc: &Path, out_dir: &Path, round: usize) -> Result<Env, String> {
    let wl = args.workload;
    let gen = inputs::generate_inputs(wl.kind, args.seed);
    let dir = out_dir.join(format!(
        "work-{}-{}-{}-{round}",
        wl.name,
        args.seed,
        std::process::id()
    ));
    let work = WorkDir(dir.clone());
    let files = inputs::write_files(&dir, &gen).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (view, db) = inputs::load(&gen.view_text, &gen.ddl_text, &gen.tables)?;
    let catalog = db.catalog();
    let stylesheets = gen
        .xslt_texts
        .iter()
        .map(|t| parse_stylesheet(t).map_err(|e| format!("stylesheet: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let trees = if stylesheets.is_empty() {
        vec![view.clone()]
    } else {
        stylesheets
            .iter()
            .map(|x| compose(&view, x, &catalog))
            .collect::<Result<Vec<_>, _>>()?
    };
    let mut sessions = Vec::with_capacity(trees.len());
    let mut expected = Vec::with_capacity(trees.len());
    for tree in &trees {
        let (session, bytes) = warm(tree, &db)?;
        sessions.push(session);
        expected.push(bytes);
    }
    let served_xslt = gen
        .served_xslt
        .as_deref()
        .map(|t| parse_stylesheet(t).map_err(|e| format!("stylesheet: {e}")))
        .transpose()?;
    let served_tree = match &served_xslt {
        Some(x) => compose(&view, x, &catalog)?,
        None => view.clone(),
    };
    let (_, served_db) = inputs::load(&gen.view_text, &gen.ddl_text, &gen.served_tables)?;
    let (served_session, state_a) = warm(&served_tree, &served_db)?;
    let server = Server::start(xvc, &files)?;
    Ok(Env {
        wl,
        gen,
        view,
        db,
        catalog,
        stylesheets,
        trees,
        sessions,
        expected,
        served_xslt,
        served_tree,
        served_db,
        served_session,
        state_a,
        state_b: Vec::new(),
        server,
        insert_next: true,
        _work: work,
    })
}

/// Checks `tree`'s document on `db`: equal (unordered) to `x(v(I))` when
/// there is a stylesheet `x` (`full` is `v(I)`), and serialized by
/// `Document::to_xml` to exactly the `streamed` bytes.
fn check_tree(
    report: &mut Report,
    what: &str,
    x: Option<&Stylesheet>,
    tree: &SchemaTree,
    full: &xvc_xml::Document,
    db: &Database,
    streamed: &[u8],
) -> Result<(), String> {
    let doc = Engine::new(tree)
        .session()
        .publish(db)
        .map_err(|e| format!("publish: {e}"))?
        .document;
    if let Some(x) = x {
        let naive = process(x, full).map_err(|e| format!("x(v(I)): {e}"))?;
        if !report.op(documents_equal_unordered(&naive, &doc)) {
            eprintln!("{what}: v'(I) != x(v(I))");
        }
    }
    if !report.op(doc.to_xml().as_bytes() == streamed) {
        eprintln!("{what}: streamed bytes differ from Document::to_xml");
    }
    Ok(())
}

/// A fresh engine's session on `tree`, warmed by one streamed publish,
/// and the bytes that publish wrote.
fn warm(tree: &SchemaTree, db: &Database) -> Result<(Session, Vec<u8>), String> {
    let mut session = Engine::new(tree).session();
    let mut bytes = Vec::new();
    session
        .publish_to(db, &mut bytes)
        .map_err(|e| format!("publish: {e}"))?;
    Ok((session, bytes))
}

/// Checks every output the run will time, before timing any: the
/// composed documents against `x(v(I))`, the streamed bytes against
/// `Document::to_xml`, the document after the INSERT (and the delta path
/// that reaches it), and the server's first answers. Fills in `state_b`.
pub fn check(env: &mut Env, report: &mut Report) -> Result<(), String> {
    let fixture = match env.wl.kind {
        Kind::Breadth => xvc_bench::synthetic::all_regions_view(),
        _ => xvc_core::paper_fixtures::figure1_view(),
    };
    if !report.op(env.view.render() == fixture.render()) {
        return Err("the view read back from its file differs from the fixture".to_owned());
    }
    let publish = |tree: &SchemaTree, db: &Database| {
        Engine::new(tree)
            .session()
            .publish(db)
            .map(|p| p.document)
            .map_err(|e| format!("publish: {e}"))
    };
    let full = publish(&env.view, &env.db)?;
    let stylesheets = env
        .stylesheets
        .iter()
        .map(Some)
        .chain(std::iter::repeat(None));
    for (i, (x, (tree, bytes))) in stylesheets
        .zip(env.trees.iter().zip(&env.expected))
        .enumerate()
    {
        check_tree(report, &format!("tree {i}"), x, tree, &full, &env.db, bytes)?;
    }
    let served_full = publish(&env.view, &env.served_db)?;
    let served_x = env.served_xslt.as_ref();
    check_tree(
        report,
        "served",
        served_x,
        &env.served_tree,
        &served_full,
        &env.served_db,
        &env.state_a,
    )?;

    // The served state after the INSERT, by full publish and by the delta
    // path.
    let mut db_b = env.served_db.clone();
    let insert = db_b
        .execute_dml(&env.gen.insert_sql)
        .map_err(|e| format!("insert: {e}"))?;
    let full_b = publish(&env.view, &db_b)?;
    env.state_b = publish(&env.served_tree, &db_b)?.to_xml().into_bytes();
    check_tree(
        report,
        "served after the INSERT",
        served_x,
        &env.served_tree,
        &full_b,
        &db_b,
        &env.state_b,
    )?;
    let mut session = Engine::new(&env.served_tree).incremental(true).session();
    let prev = session
        .publish(&env.served_db)
        .map_err(|e| format!("publish: {e}"))?;
    let after_insert = session
        .republish_delta(&db_b, &prev, &insert)
        .map_err(|e| format!("delta: {e}"))?;
    report.op(after_insert.document.to_xml().as_bytes() == env.state_b.as_slice());
    let delete = db_b
        .execute_dml(&env.gen.delete_sql)
        .map_err(|e| format!("delete: {e}"))?;
    let after_delete = session
        .republish_delta(&db_b, &after_insert, &delete)
        .map_err(|e| format!("delta: {e}"))?;
    report.op(after_delete.document.to_xml().as_bytes() == env.state_a.as_slice());

    let mut conn = server::Conn::open(&env.server.addr).map_err(|e| format!("connect: {e}"))?;
    for path in ["/doc", "/publish"] {
        let (status, body) = conn
            .request("GET", path, b"")
            .map_err(|e| format!("{path}: {e}"))?;
        if !report.op(status == 200 && body == env.state_a) {
            eprintln!("GET {path}: the served document differs from the in-process one");
        }
    }
    if !report.correct() {
        return Err("outputs failed their checks; nothing was timed".to_owned());
    }
    Ok(())
}

/// Starts a new `VmHWM` for this process: hands the heap that set-up and
/// the checks freed back to the system, then resets the high-water mark to
/// the current resident set (Linux 4.0 and later).
fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
        // system; it takes no pointers and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Pins the calling thread to the last core it may run on. Threads and
/// processes it starts afterwards (the `xvc serve` children) inherit the
/// pin. A closed-loop request then passes from client to server and back
/// on one core; on two cores each hand-over wakes the other core, and on
/// a shared virtual machine that wake-up sometimes takes milliseconds.
fn pin_to_one_core() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1,024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no core to run on")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable `cpu_set_t`-sized buffer.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Runs `op` repeatedly for at least `budget` and at least `min` times
/// (but no longer than `3 · budget + 2 s`), returning the times in ms.
pub fn timed_loop(budget: Duration, min: usize, mut op: impl FnMut(usize) -> Duration) -> Vec<f64> {
    let cap = budget * 3 + Duration::from_secs(2);
    let start = Instant::now();
    let mut samples = Vec::new();
    while (start.elapsed() < budget || samples.len() < min) && start.elapsed() < cap {
        samples.push(ms(op(samples.len())));
    }
    samples
}

/// Warm `Session::publish_to` into a byte sink, checked after each call.
/// Tree `offset + i` (cyclically) is published `i`-th.
fn warm_publishes(
    env: &mut Env,
    report: &mut Report,
    budget: Duration,
    min: usize,
    offset: usize,
) -> Vec<f64> {
    let mut buf = Vec::with_capacity(env.expected.iter().map(Vec::len).max().unwrap_or(0));
    let n = env.sessions.len();
    timed_loop(budget, min, |i| {
        let k = (offset + i) % n;
        buf.clear();
        let t = Instant::now();
        let result = env.sessions[k].publish_to(&env.db, &mut buf);
        let dt = t.elapsed();
        report.op(result.is_ok() && buf == env.expected[k]);
        dt
    })
}

/// One new stylesheet (or view, for `breadth`) from text to its first
/// document: parse, compose, `Engine::new`, first `publish_to`.
fn first_doc(env: &Env, text: &str, out: &mut Vec<u8>) -> Result<(), String> {
    let tree = if env.wl.kind == Kind::Breadth {
        xvc_view::parse_view(text).map_err(|e| format!("view: {e}"))?
    } else {
        let x = parse_stylesheet(text).map_err(|e| format!("stylesheet: {e}"))?;
        compose(&env.view, &x, &env.db.catalog())?
    };
    Engine::new(&tree)
        .session()
        .publish_to(&env.db, out)
        .map(drop)
        .map_err(|e| format!("publish: {e}"))
}

fn first_docs(
    env: &Env,
    report: &mut Report,
    budget: Duration,
    min: usize,
    offset: usize,
) -> Vec<f64> {
    let texts = env.first_doc_texts();
    let mut buf = Vec::new();
    timed_loop(budget, min, |i| {
        let k = (offset + i) % texts.len();
        buf.clear();
        let t = Instant::now();
        let result = first_doc(env, texts[k], &mut buf);
        let dt = t.elapsed();
        report.op(result.is_ok() && buf == env.expected[k]);
        dt
    })
}

/// The end-to-end run. The three phases are interleaved over `ROUNDS`
/// rounds, and every timing pools the samples of all of them: the shared
/// host's speed drifts between regimes seconds apart, so each metric then
/// samples the same mix of slow and fast stretches.
pub fn run(args: &Args, xvc: &Path, out_dir: &Path, report: &mut Report) -> Result<(), String> {
    let wl = args.workload;
    pin_to_one_core()?;
    let t = Instant::now();
    let mut env = setup(args, xvc, out_dir, 0)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    check(&mut env, report)?;
    // `peak_rss_mb` covers the timed phases only: neither the set-ups nor
    // the checks, which materialize whole documents.
    reset_peak_rss()?;

    let slice = |i: usize| Duration::from_secs_f64(args.seconds * SHARES[i] / ROUNDS as f64);
    let (mut publish, mut first) = (Vec::new(), Vec::new());
    let mut served = StepResult::default();
    let mut peak_rss_mb: f64 = 0.0;
    for round in 0..ROUNDS {
        let offset = first.len();
        first.extend(first_docs(&env, report, slice(1), TIMED_MIN, offset));
        let offset = publish.len();
        publish.extend(warm_publishes(
            &mut env,
            report,
            slice(0),
            TIMED_MIN,
            offset,
        ));
        let expected = env.served();
        let mut insert_next = env.insert_next;
        let r = server::closed_loop(
            &env.server.addr,
            slice(2),
            10 * TIMED_MIN,
            served.outcomes.len(),
            &expected,
            &mut insert_next,
        );
        env.insert_next = insert_next;
        for o in &r.outcomes {
            report.op(o.ok);
        }
        served.outcomes.extend(r.outcomes);
        // One more set-up per round, timed and thrown away (its server is
        // stopped at once), so that `setup_s`, the median of all of them,
        // samples the whole run as the other metrics do.
        peak_rss_mb = peak_rss_mb.max(server::peak_rss_mb("/proc/self/status"));
        let t = Instant::now();
        drop(setup(args, xvc, out_dir, round + 1)?);
        setup_s.push(t.elapsed().as_secs_f64());
        reset_peak_rss()?;
    }
    peak_rss_mb = peak_rss_mb.max(server::peak_rss_mb("/proc/self/status"));

    report.set("setup_s", median(&setup_s));
    report.set("publish_p95_ms", percentile(&publish, 95.0));
    report.set("first_doc_p95_ms", percentile(&first, 95.0));
    report.set("peak_rss_mb", peak_rss_mb);
    let served_publish = served.latencies(Some(Endpoint::Publish));
    let served_dml = served.latencies(Some(Endpoint::Dml));
    report.set("serve_publish_p95_ms", percentile(&served_publish, 95.0));
    report.set("serve_dml_p95_ms", percentile(&served_dml, 95.0));
    eprintln!(
        "{}: {} warm publishes, {} first documents, {} served /publish, {} served /dml",
        wl.name,
        publish.len(),
        first.len(),
        served_publish.len(),
        served_dml.len()
    );
    Ok(())
}
