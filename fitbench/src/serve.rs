//! The serving phase: an open loop of single-row `/predict` requests
//! against the in-process server.
//!
//! Each request has a due time fixed before the phase starts (see
//! [`Arrivals`]), whatever happens to earlier requests; its latency is
//! measured from that due time, so a stall also counts against the requests
//! queued behind it. Requests go out round-robin over `nproc / 2` keep-alive
//! connections (at least one), each driven by a writer thread that sleeps
//! until each due time and a reader thread that timestamps the responses, so
//! the load uses at most `nproc` threads. Requests pipeline whenever a
//! response is still outstanding. A connection holds at most
//! [`MAX_INFLIGHT`] requests (the server refuses more), so past that the
//! generator runs late and the lag is reported.

use crate::setup::RequestRow;
use crate::stats::percentile;
use crate::Error;
use fitact_io::JsonValue;
use fitact_serve::Server;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Pipelined requests a connection may hold; the server answers 429 past 64.
const MAX_INFLIGHT: usize = 64;
/// The latency limit a sustainable rate must meet at [`LIMIT_PERCENTILE`].
const LIMIT_MS: f64 = 20.0;
/// The percentile the limit applies to. p99 does not repeat between runs on
/// a shared two-core host, so the limit holds the median.
const LIMIT_PERCENTILE: f64 = 50.0;
/// Arrivals a sustainable phase may still have outstanding at its end:
/// five times the limit's worth, so tail stalls pass and a queue growing at
/// hundreds of requests per second does not.
const BACKLOG_WINDOW_MS: f64 = 5.0 * LIMIT_MS;
/// How long a phase may drain after its last due time.
const DRAIN: Duration = Duration::from_secs(3);

/// How a phase spaces its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Exactly `1 / rate` apart.
    Periodic,
    /// Exponential gaps of mean `1 / rate` (independent users), drawn from
    /// the given seed.
    Poisson(u64),
}

impl Arrivals {
    /// Due offsets, in seconds from the phase start, of `n` requests.
    pub fn offsets(self, rate: f64, n: usize) -> Vec<f64> {
        match self {
            Arrivals::Periodic => (0..n).map(|i| i as f64 / rate).collect(),
            Arrivals::Poisson(seed) => {
                let mut state = seed;
                let mut t = 0.0;
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            state = crate::inputs::splitmix64(state);
                            // A uniform in (0, 1]: never ln(0).
                            let u = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
                            t += -u.ln() / rate;
                        }
                        t
                    })
                    .collect()
            }
        }
    }
}

/// What one request came to.
#[derive(Debug, Clone)]
struct Outcome {
    index: usize,
    status: u16,
    due_ms: f64,
    lag_ms: f64,
    latency_ms: f64,
    body: Vec<u8>,
}

/// The measured result of one open-loop phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: f64,
    pub requests: usize,
    pub sent: usize,
    pub ok: usize,
    /// Requests answered with anything but 200, or never answered.
    pub failed: usize,
    /// Requests refused for load (503 or 429).
    pub shed: usize,
    /// Latency of each successful request from its due time, ms.
    pub latencies_ms: Vec<f64>,
    /// How late each request was sent, ms.
    pub lags_ms: Vec<f64>,
    /// Rows of the batch each successful request ran in.
    pub batch_rows: Vec<f64>,
    /// Successful responses whose logits differ from the expected bits.
    pub mismatches: usize,
    /// Responses received by the last due time.
    pub completed_by_end: usize,
    /// Successful responses per second, first due time to last response.
    pub achieved_rps: f64,
    /// Server-side p50 (enqueue to response ready) over the phase, ms.
    pub server_p50_ms: Option<f64>,
    /// Batches and rows the server executed during the phase.
    pub server_batches: u64,
    pub server_rows: u64,
    pub seconds: f64,
}

impl Phase {
    /// The phases pooled: samples concatenated, counts summed, the server
    /// p50 the median of the phases'.
    pub fn merge(phases: &[Phase]) -> Phase {
        let mut all = phases[0].clone();
        for p in &phases[1..] {
            all.requests += p.requests;
            all.sent += p.sent;
            all.ok += p.ok;
            all.failed += p.failed;
            all.shed += p.shed;
            all.latencies_ms.extend_from_slice(&p.latencies_ms);
            all.lags_ms.extend_from_slice(&p.lags_ms);
            all.batch_rows.extend_from_slice(&p.batch_rows);
            all.mismatches += p.mismatches;
            all.completed_by_end += p.completed_by_end;
            all.server_batches += p.server_batches;
            all.server_rows += p.server_rows;
            all.seconds += p.seconds;
        }
        let server: Vec<f64> = phases.iter().filter_map(|p| p.server_p50_ms).collect();
        all.server_p50_ms = crate::stats::Summary::of(&server).map(|s| s.median);
        all.achieved_rps = all.ok as f64 / all.seconds;
        all
    }

    pub fn p50_ms(&self) -> Option<f64> {
        percentile(&self.latencies_ms, 50.0)
    }

    /// Responses still outstanding at the last due time.
    pub fn backlog(&self) -> usize {
        self.requests - self.completed_by_end
    }

    /// Whether this phase's rate is sustainable: nothing failed, the limit
    /// holds, and at the last due time no more requests are outstanding than
    /// arrive in [`BACKLOG_WINDOW_MS`] (no growing backlog).
    pub fn meets_limit(&self) -> bool {
        let allowed = (self.rate * BACKLOG_WINDOW_MS / 1e3).ceil() as usize;
        self.failed == 0
            && percentile(&self.latencies_ms, LIMIT_PERCENTILE).is_some_and(|t| t <= LIMIT_MS)
            && self.backlog() <= allowed
    }
}

/// Runs one phase of `requests` requests at `rate` per second over
/// `connections` connections, replaying `rows` in `order`.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    server: &Server,
    rows: &[RequestRow],
    order: &[usize],
    arrivals: Arrivals,
    rate: f64,
    requests: usize,
    connections: usize,
) -> Result<Phase, Error> {
    let offsets = arrivals.offsets(rate, requests);
    let addr = server.addr();
    admin_post(addr, "/admin/metrics/reset")?;
    let before = server.metrics();
    // Leave the threads time to connect before the first request is due.
    let t0 = Instant::now() + Duration::from_millis(50);
    let due = |i: usize| t0 + Duration::from_secs_f64(offsets[i]);
    let last_due = due(requests.saturating_sub(1));
    let deadline = last_due + DRAIN;
    let per_connection: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<usize> = (c..requests).step_by(connections).collect();
                let due = &due;
                scope.spawn(move || {
                    drive_connection(addr, &mine, rows, order, t0, due, deadline)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = server.metrics();
    let mut outcomes = Vec::with_capacity(requests);
    for result in per_connection {
        outcomes.extend(result?);
    }
    let end_ms = ms_between(t0, last_due);
    let mut phase = Phase {
        rate,
        requests,
        sent: outcomes.len(),
        ok: 0,
        failed: requests - outcomes.len(),
        shed: 0,
        latencies_ms: Vec::with_capacity(requests),
        lags_ms: outcomes.iter().map(|o| o.lag_ms).collect(),
        batch_rows: Vec::with_capacity(requests),
        mismatches: 0,
        completed_by_end: 0,
        achieved_rps: 0.0,
        server_p50_ms: after.latency_us.map(|l| l.p50 as f64 / 1e3),
        server_batches: after.batches_total - before.batches_total,
        server_rows: after.rows_total - before.rows_total,
        seconds: 0.0,
    };
    let mut last_done_ms: f64 = 0.0;
    for outcome in &outcomes {
        let done_ms = outcome.due_ms + outcome.latency_ms;
        if outcome.status == 0 {
            phase.failed += 1;
            continue;
        }
        phase.completed_by_end += usize::from(done_ms <= end_ms);
        if outcome.status != 200 {
            phase.failed += 1;
            phase.shed += usize::from(matches!(outcome.status, 429 | 503));
            continue;
        }
        phase.ok += 1;
        last_done_ms = last_done_ms.max(done_ms);
        phase.latencies_ms.push(outcome.latency_ms);
        let row = &rows[order[outcome.index % order.len()]];
        match parse_prediction(&outcome.body) {
            Some((logits, batch)) => {
                phase.batch_rows.push(batch);
                let same = logits.len() == row.expected.len()
                    && logits
                        .iter()
                        .zip(&row.expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                phase.mismatches += usize::from(!same);
            }
            None => phase.mismatches += 1,
        }
    }
    phase.seconds = last_done_ms / 1e3;
    phase.achieved_rps = if last_done_ms > 0.0 {
        phase.ok as f64 / phase.seconds
    } else {
        0.0
    };
    Ok(phase)
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Sends this connection's share of the schedule from a writer thread that
/// sleeps until each due time, while this thread reads and timestamps the
/// responses (the server answers pipelined requests in order). Requests
/// unanswered at the deadline come back with status 0.
fn drive_connection(
    addr: SocketAddr,
    mine: &[usize],
    rows: &[RequestRow],
    order: &[usize],
    t0: Instant,
    due: &(dyn Fn(usize) -> Instant + Sync),
    deadline: Instant,
) -> std::io::Result<Vec<Outcome>> {
    let mut reader = TcpStream::connect(addr)?;
    reader.set_nodelay(true)?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = reader.try_clone()?;
    writer.set_write_timeout(Some(Duration::from_secs(10)))?;
    let answered = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // The writer announces each request (index, due ms, lag ms) before its
    // bytes go out, so the reader always finds the entry for a response.
    let (tx, rx) = mpsc::channel::<(usize, f64, f64)>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<()> {
            for (sent, &index) in mine.iter().enumerate() {
                let due_at = due(index);
                loop {
                    let now = Instant::now();
                    if now >= deadline || stop.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    let full = sent - answered.load(Ordering::Acquire) >= MAX_INFLIGHT;
                    if !full && now >= due_at {
                        break;
                    }
                    let wait = if full {
                        Duration::from_micros(100)
                    } else {
                        due_at - now
                    };
                    std::thread::sleep(wait);
                }
                let lag_ms = ms_between(due_at, Instant::now());
                if tx.send((index, ms_between(t0, due_at), lag_ms)).is_err() {
                    return Ok(());
                }
                writer.write_all(&rows[order[index % order.len()]].request)?;
            }
            Ok(())
        });
        let mut outcomes = Vec::with_capacity(mine.len());
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        while outcomes.len() < mine.len() && Instant::now() < deadline {
            match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    let done = Instant::now();
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some((status, body, consumed)) = parse_response(&buf) {
                        buf.drain(..consumed);
                        let Ok((index, due_ms, lag_ms)) = rx.recv() else {
                            break;
                        };
                        answered.fetch_add(1, Ordering::Release);
                        outcomes.push(Outcome {
                            index,
                            status,
                            due_ms,
                            lag_ms,
                            latency_ms: ms_between(t0, done) - due_ms,
                            body,
                        });
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
        }
        stop.store(true, Ordering::Relaxed);
        // A failed write leaves its request and the rest unanswered; they
        // count as failed rather than aborting the run.
        if let Err(e) = sender.join().expect("writer thread panicked") {
            eprintln!("fitbench: sending a request failed: {e}");
        }
        // Sent but never answered: failed.
        outcomes.extend(rx.try_iter().map(|(index, due_ms, lag_ms)| Outcome {
            index,
            status: 0,
            due_ms,
            lag_ms,
            latency_ms: f64::INFINITY,
            body: Vec::new(),
        }));
        Ok(outcomes)
    })
}

/// Splits one complete HTTP/1.1 response off the front of `buf`:
/// `(status, body, bytes consumed)`, or `None` while it is incomplete.
fn parse_response(buf: &[u8]) -> Option<(u16, Vec<u8>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let end = head_end + length;
    (buf.len() >= end).then(|| (status, buf[head_end..end].to_vec(), end))
}

/// The logits (f64 in JSON, cast to f32) and batch size of a single-row
/// prediction.
fn parse_prediction(body: &[u8]) -> Option<(Vec<f32>, f64)> {
    let value = JsonValue::parse(std::str::from_utf8(body).ok()?).ok()?;
    let logits = value
        .get("outputs")?
        .as_array()?
        .first()?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map(|x| x as f32))
        .collect::<Option<Vec<f32>>>()?;
    let batch = value.get("batch_sizes")?.as_array()?.first()?.as_f64()?;
    Some((logits, batch))
}

/// One `POST` on a fresh connection; the response must be 200.
fn admin_post(addr: SocketAddr, path: &str) -> Result<(), Error> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: fitbench\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    match parse_response(&response) {
        Some((200, _, _)) => Ok(()),
        other => Err(format!("{path} answered {:?}", other.map(|r| r.0)).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_split_at_content_length() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\n";
        let (status, body, used) = parse_response(two).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"{}"[..]));
        let (status, body, rest) = parse_response(&two[used..]).unwrap();
        assert_eq!((status, body.len(), used + rest), (503, 0, two.len()));
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}"),
            None
        );
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), None);
    }

    #[test]
    fn arrivals_follow_the_rate_and_the_seed() {
        assert_eq!(Arrivals::Periodic.offsets(4.0, 3), vec![0.0, 0.25, 0.5]);
        let a = Arrivals::Poisson(1).offsets(100.0, 20_000);
        assert_eq!(a, Arrivals::Poisson(1).offsets(100.0, 20_000));
        assert_ne!(a, Arrivals::Poisson(2).offsets(100.0, 20_000));
        assert_eq!(a[0], 0.0);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let mean_gap = a[a.len() - 1] / (a.len() - 1) as f64;
        assert!((mean_gap - 0.01).abs() < 0.0005, "{mean_gap}");
    }

    #[test]
    fn predictions_parse_as_f32_logits() {
        let body = br#"{"model":"m","outputs":[[0.5,-1.25]],"classes":[0],"batch_sizes":[3]}"#;
        assert_eq!(parse_prediction(body), Some((vec![0.5, -1.25], 3.0)));
        assert_eq!(parse_prediction(b"{}"), None);
    }
}
