//! `xvc-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|breadth|compile --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the released `xvc` binary,
//! generates the workload's inputs from the seed, checks every output it
//! is about to time, measures for `--seconds`, and prints one JSON result
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (from spans around the calls into each layer) with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metrics.

mod inputs;
mod layers;
mod run;
mod server;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use inputs::Workload;
use stats::Report;

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("publish_p95_ms", "ms"),
    ("first_doc_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("serve_publish_p95_ms", "ms"),
    ("serve_dml_p95_ms", "ms"),
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("xslt.parse_ms", "ms"),
    ("compose.ctg_ms", "ms"),
    ("compose.tvq_ms", "ms"),
    ("compose.prune_ms", "ms"),
    ("compose.sv_ms", "ms"),
    ("compose.total_ms", "ms"),
    ("compose.tvq_nodes", "count"),
    ("compose.tvq_nodes_pruned", "count"),
    ("plan.prepare_ms", "ms"),
    ("plan.plans_prepared", "count"),
    ("plan.prepare_failures", "count"),
    ("plan.cache_hit_rate", "ratio"),
    ("exec.publish_ms", "ms"),
    ("exec.rows_scanned", "count"),
    ("exec.rows_scanned_per_db_row", "ratio"),
    ("exec.param_queries", "count"),
    ("exec.nested_loop_rows", "count"),
    ("exec.exists_evals", "count"),
    ("exec.hash_join_build_rows", "count"),
    ("exec.hash_join_probe_rows", "count"),
    ("exec.memo_hit_rate", "ratio"),
    ("exec.tuples_fetched", "count"),
    ("exec.batches_executed", "count"),
    ("exec.bindings_per_batch_max", "count"),
    ("exec.rows_regrouped", "count"),
    ("exec.queries_run", "count"),
    ("exec.index_lookups", "count"),
    ("emit.serialize_ms", "ms"),
    ("emit.bytes", "bytes"),
    ("emit.elements", "count"),
    ("emit.peak_emit_bytes", "bytes"),
    ("dml.execute_ms", "ms"),
    ("delta.republish_ms", "ms"),
    ("delta.batches_reexecuted", "count"),
    ("delta.nodes_respliced", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.publish_p99_ms", "ms"),
    ("serve.doc_p99_ms", "ms"),
    ("serve.dml_p95_ms", "ms"),
    ("serve.doc_overlap_dml_p99_ms", "ms"),
    ("serve.publish_overhead_ms", "ms"),
    ("serve.gen_lateness_p99_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.peak_rss_mb", "MB"),
    ("naive.x_of_v_ms", "ms"),
    ("naive.speedup", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.span_cost_us", "us"),
    ("trace.unaccounted_publish_ms", "ms"),
    ("trace.unaccounted_first_doc_ms", "ms"),
    ("trace.traced_publish_p50_ms", "ms"),
    ("trace.untraced_publish_p50_ms", "ms"),
    ("trace.first_doc_p50_ms", "ms"),
];

/// A run that has not finished by then kills its server and exits
/// nonzero, well inside the 180 s a run may take.
const DEADLINE: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(inputs::workload(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds the released `xvc` binary of the repository at `root` and
/// returns its path (honouring `CARGO_TARGET_DIR`).
fn build_xvc(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "xvc"])
        .arg("--message-format=json")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building xvc failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| {
            l.contains("\"reason\":\"compiler-artifact\"") && l.contains("\"name\":\"xvc\"")
        })
        .find_map(|l| {
            let start = l.find("\"executable\":\"")? + "\"executable\":\"".len();
            let end = start + l[start..].find('"')?;
            Some(PathBuf::from(&l[start..end]))
        })
        .ok_or_else(|| "cargo reported no xvc executable".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload paper|breadth|compile --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(dir)
            if dir.join("perfbench/Cargo.toml").is_file() && dir.join("Cargo.toml").is_file() =>
        {
            dir
        }
        _ => {
            eprintln!("error: run from the repository root");
            return ExitCode::from(2);
        }
    };
    let xvc = match build_xvc(&root) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    // The watchdog is detached on purpose: it either fires or dies with
    // the process.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("error: run exceeded {DEADLINE:?}; stopping");
        server::kill_all();
        std::process::exit(3);
    });
    let out_dir = root.join("perfbench/out");
    let result = std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("{}: {e}", out_dir.display()))
        .and_then(|()| {
            let mut report = Report::default();
            if args.trace {
                layers::run(&args, &xvc, &out_dir, &mut report)?;
            } else {
                run::run(&args, &xvc, &out_dir, &mut report)?;
            }
            Ok(report)
        });
    server::kill_all();
    match result {
        Ok(report) => {
            let keep: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", report.to_json(keep));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
