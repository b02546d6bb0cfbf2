//! The `xvc serve` child process, a minimal HTTP/1.1 client, and the
//! load generators: closed-loop on one connection, and open-loop.
//!
//! The open-loop generator holds two keep-alive connections. Requests fall due as a
//! seeded Poisson process (`rate` requests per second over both
//! connections, taken alternately); a connection sends its next request
//! when it is due, or at once if it is already late, and latency is
//! measured from the due time, so a stall also counts against the requests
//! queued behind it. All
//! `POST /dml` requests go over connection 0, which keeps the alternating
//! INSERT/DELETE stream in order, so the database only ever holds one of
//! two states whose documents are known in advance.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::inputs::{Files, Rng};

/// Every server child still running; the watchdog kills them all if the
/// run overstays its deadline.
static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Kills and reaps every server still running.
pub fn kill_all() {
    let mut children = CHILDREN.lock().unwrap_or_else(PoisonError::into_inner);
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

/// A running `xvc serve`; killed and reaped on drop.
pub struct Server {
    pid: u32,
    pub addr: String,
}

impl Server {
    /// Starts `xvc serve` on an ephemeral port with two worker threads and
    /// returns once `/healthz` answers.
    pub fn start(xvc: &Path, files: &Files) -> Result<Server, String> {
        let mut cmd = Command::new(xvc);
        cmd.arg("serve")
            .arg("--view")
            .arg(&files.view)
            .arg("--ddl")
            .arg(&files.ddl)
            .arg("--data")
            .arg(&files.data)
            .args(["--addr", "127.0.0.1:0", "--threads", "2"]);
        if let Some(xslt) = &files.xslt {
            cmd.arg("--xslt").arg(xslt).arg("--prune");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", xvc.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            pid: child.id(),
            addr: String::new(),
        };
        CHILDREN
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(child);
        // "listening on http://ADDR (N worker threads)"
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("xvc serve did not start: {line:?}"))?
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let healthy = Conn::open(&server.addr)
                .and_then(|mut c| c.request("GET", "/healthz", b""))
                .is_ok_and(|(status, _)| status == 200);
            if healthy {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("xvc serve never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid))
    }

    /// Plan-cache `(hits, prepared)` from `GET /stats`.
    pub fn plan_counts(&self) -> Result<(f64, f64), String> {
        let (_, body) = Conn::open(&self.addr)
            .and_then(|mut c| c.request("GET", "/stats", b""))
            .map_err(|e| format!("/stats: {e}"))?;
        let body = String::from_utf8_lossy(&body);
        let field = |name: &str| -> Result<f64, String> {
            let key = format!("\"{name}\":");
            let start = body.find(&key).ok_or(format!("/stats lacks {name}"))? + key.len();
            let digits: String = body[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            digits.parse().map_err(|e| format!("/stats {name}: {e}"))
        };
        Ok((field("plan_cache_hits")?, field("plans_prepared")?))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let mut children = CHILDREN.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = children.iter().position(|c| c.id() == self.pid) {
            let mut child = children.swap_remove(i);
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/*/status` file, in MB (0 if unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the whole response (`Content-Length`
    /// or chunked body). Returns the status and the body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body);
        stream.write_all(&out)?;

        let mut line = String::new();
        self.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(value.parse::<usize>().map_err(|e| bad(e.to_string()))?);
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                self.read_line(&mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
                if size == 0 {
                    self.read_line(&mut line)?;
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                self.reader.read_exact(&mut body[start..])?;
                self.read_line(&mut line)?;
            }
        } else {
            body.resize(length.unwrap_or(0), 0);
            self.reader.read_exact(&mut body)?;
        }
        Ok((status, body))
    }

    fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Endpoint {
    Doc,
    Publish,
    Dml,
}

/// What the served bodies must be, and the DML pair that moves the
/// database between the two states.
pub struct Expected<'a> {
    /// The document before the INSERT (and after the DELETE).
    pub state_a: &'a [u8],
    /// The document after the INSERT.
    pub state_b: &'a [u8],
    pub insert_sql: &'a str,
    pub delete_sql: &'a str,
}

/// One request of an open-loop step. Times are seconds from the step's
/// start.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub endpoint: Endpoint,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

impl Outcome {
    /// Latency from when the request was due, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// The result of one open-loop step at a fixed rate.
#[derive(Default)]
pub struct StepResult {
    pub outcomes: Vec<Outcome>,
    /// Requests never sent because the connection fell too far behind.
    pub abandoned: usize,
    /// Most requests any connection had due but not yet sent.
    pub backlog_max: usize,
    /// Requests still due but unsent when each connection sent its last.
    pub backlog_end: usize,
}

impl StepResult {
    pub fn latencies(&self, endpoint: Option<Endpoint>) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| endpoint.is_none_or(|e| o.endpoint == e))
            .map(Outcome::latency_ms)
            .collect()
    }

    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }
}

/// The request mix of one 20-slot cycle: 9 `/doc`, 9 `/publish` and 2
/// `/dml`. The ratio is an assumption, as no traffic data exists: a
/// read-mostly mix, reads split evenly between the cached document and a
/// fresh publish. Even slots go to connection 0, which carries every DML;
/// the seed rotates the cycle.
const CYCLE: [Endpoint; 20] = {
    use Endpoint::{Dml as M, Doc as D, Publish as P};
    [M, D, D, P, P, P, D, D, P, P, M, P, D, D, P, D, D, P, P, D]
};

/// Runs the open loop for `requests` requests at `rate` per second.
/// `insert_next` carries the DML alternation across steps. When
/// `abandon_after` is set, a connection more than that late gives up on
/// the rest of its schedule (the step then fails).
pub fn open_loop(
    addr: &str,
    rate: f64,
    requests: usize,
    seed: u64,
    expected: &Expected,
    insert_next: &mut bool,
    abandon_after: f64,
) -> StepResult {
    let mut rng = Rng::new(seed);
    let rotate = rng.below(CYCLE.len() / 2) * 2;
    let mut schedules: [Vec<(f64, Endpoint)>; 2] = [Vec::new(), Vec::new()];
    let mut due = 0.0;
    for i in 0..requests.max(1) {
        let endpoint = CYCLE[(i + rotate) % CYCLE.len()];
        schedules[i % 2].push((due, endpoint));
        // Exponential gaps; `u` is uniform in (0, 1].
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        due += -(1.0 - u).ln() / rate;
    }
    let start = Instant::now();
    let [s0, s1] = &schedules;
    let (r0, r1) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| run_conn(addr, s1, start, expected, &mut true, abandon_after));
        let r0 = run_conn(addr, s0, start, expected, insert_next, abandon_after);
        (r0, h1.join().expect("load generator thread panicked"))
    });
    let mut result = StepResult::default();
    for r in [r0, r1] {
        result.outcomes.extend(r.outcomes);
        result.abandoned += r.abandoned;
        result.backlog_max = result.backlog_max.max(r.backlog_max);
        result.backlog_end += r.backlog_end;
    }
    result
}

/// Runs the mix closed-loop on one connection for at least `budget` and
/// `min` requests: each request is sent as soon as the previous answer
/// is in, so its latency is the server's own time plus transport, with no
/// queueing. Cycle slot `offset + i` goes `i`-th, so successive calls
/// continue one cycle.
pub fn closed_loop(
    addr: &str,
    budget: Duration,
    min: usize,
    offset: usize,
    expected: &Expected,
    insert_next: &mut bool,
) -> StepResult {
    let mut result = StepResult::default();
    let mut conn = Conn::open(addr).ok();
    let start = Instant::now();
    while start.elapsed() < budget || result.outcomes.len() < min {
        let endpoint = CYCLE[(offset + result.outcomes.len()) % CYCLE.len()];
        let sent = start.elapsed().as_secs_f64();
        let ok = match conn.as_mut() {
            Some(c) => send_checked(c, endpoint, expected, insert_next),
            None => false,
        };
        if !ok {
            conn = Conn::open(addr).ok();
        }
        result.outcomes.push(Outcome {
            endpoint,
            due: sent,
            sent,
            done: start.elapsed().as_secs_f64(),
            ok,
        });
    }
    result
}

fn run_conn(
    addr: &str,
    schedule: &[(f64, Endpoint)],
    start: Instant,
    expected: &Expected,
    insert_next: &mut bool,
    abandon_after: f64,
) -> StepResult {
    let mut result = StepResult::default();
    let mut conn = Conn::open(addr).ok();
    for (i, &(due, endpoint)) in schedule.iter().enumerate() {
        let now = start.elapsed().as_secs_f64();
        if now < due {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = start.elapsed().as_secs_f64();
        if sent - due > abandon_after {
            result.abandoned = schedule.len() - i;
            break;
        }
        let overdue = schedule[i..].partition_point(|&(d, _)| d <= sent);
        result.backlog_max = result.backlog_max.max(overdue.saturating_sub(1));
        if i + 1 == schedule.len() {
            result.backlog_end = overdue.saturating_sub(1);
        }
        let ok = match conn.as_mut() {
            Some(c) => send_checked(c, endpoint, expected, insert_next),
            None => false,
        };
        if !ok {
            // Reconnect so one broken connection does not fail the rest.
            conn = Conn::open(addr).ok();
        }
        result.outcomes.push(Outcome {
            endpoint,
            due,
            sent,
            done: start.elapsed().as_secs_f64(),
            ok,
        });
    }
    result
}

/// Sends one request and checks its answer: `/doc` and `/publish` bodies
/// must be byte-equal to one of the two states, and a DML must succeed
/// with exactly one row changed.
fn send_checked(
    conn: &mut Conn,
    endpoint: Endpoint,
    expected: &Expected,
    insert_next: &mut bool,
) -> bool {
    match endpoint {
        Endpoint::Doc | Endpoint::Publish => {
            let path = if endpoint == Endpoint::Doc {
                "/doc"
            } else {
                "/publish"
            };
            match conn.request("GET", path, b"") {
                Ok((200, body)) => body == expected.state_a || body == expected.state_b,
                _ => false,
            }
        }
        Endpoint::Dml => {
            let sql = if *insert_next {
                expected.insert_sql
            } else {
                expected.delete_sql
            };
            *insert_next = !*insert_next;
            match conn.request("POST", "/dml", sql.as_bytes()) {
                Ok((200, body)) => body.windows(14).any(|w| w == b"\"delta_rows\":1"),
                _ => false,
            }
        }
    }
}
