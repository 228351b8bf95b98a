//! The daemon side of the benchmark: the job stream, an in-process
//! `anet-service` daemon (the library's `serve_tcp`) on loopback TCP,
//! closed- and open-loop clients, the traced replay of each job on a
//! mirror engine, and the transcript gate against `run_batch`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anet_graph::{Graph, GraphBuilder};
use anet_service::protocol::{self, GraphSource, RequestBody, MAX_LINE_BYTES};
use anet_service::{job_mix, run_batch, serve_tcp, Engine, EngineConfig};

use crate::report::{median, ms_since, Layers, Report};

/// SplitMix64 finalizer over `seed ^ salt * golden`, the benchmark's one
/// source of seeded choices.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every scheme the daemon serves.
const SCHEMES: [&str; 7] = [
    "min_time",
    "generic",
    "milestone1",
    "milestone2",
    "milestone3",
    "milestone4",
    "remark",
];

/// How many node counts the churn graphs cycle through, evenly spaced
/// from the smallest to the largest.
const CHURN_STEPS: u64 = 4;

/// The job stream of `service_mix`: job `k` is either a recurring line of
/// `anet_service::job_mix` (warm after set-up) or, every
/// `1000 / churn_permille`-th job, a churn job on a graph no other job
/// uses. The churn jobs cycle through every scheme and through
/// `CHURN_STEPS` node counts in a fixed order, so every seed asks for the
/// same mix of work; the seed picks the recurring lines and the churn
/// graphs.
pub struct JobStream {
    /// The recurring lines with their ids cut off: each continues after
    /// `{"id":"…"`.
    pool: Vec<String>,
    seed: u64,
    churn_every: u64,
    churn_nodes: (usize, usize),
}

impl JobStream {
    /// The stream for `seed`: `pool` recurring lines and churn graphs of
    /// `churn_nodes.0..=churn_nodes.1` nodes.
    pub fn new(seed: u64, pool: usize, churn_permille: u64, churn_nodes: (usize, usize)) -> Self {
        let pool = job_mix(seed, pool)
            .into_iter()
            .map(|(id, line)| {
                let head = format!("{{\"id\":\"{id}\"");
                line.strip_prefix(&head)
                    .expect("job_mix lines start with their id")
                    .to_string()
            })
            .collect();
        JobStream {
            pool,
            seed,
            churn_every: 1000 / churn_permille.clamp(1, 1000),
            churn_nodes,
        }
    }

    /// Jobs per churn cycle: one churn job of every scheme at every node
    /// count. Any `cycle()` consecutive jobs starting at a multiple of it
    /// ask for the same mix of work.
    pub fn cycle(&self) -> u64 {
        self.churn_every * SCHEMES.len() as u64 * CHURN_STEPS
    }

    /// The node count of churn job `k`, or `None` for a recurring job.
    pub fn churn_nodes(&self, k: u64) -> Option<usize> {
        (k % self.churn_every == self.churn_every - 1).then(|| {
            let (lo, hi) = self.churn_nodes;
            let step = (k / self.churn_every) % CHURN_STEPS;
            lo + (hi - lo) * step as usize / (CHURN_STEPS - 1) as usize
        })
    }

    /// The request line of job `k` (id `k…`).
    pub fn line(&self, k: u64) -> String {
        match self.churn_nodes(k) {
            Some(n) => {
                let graph_seed = mix(self.seed, 0xD0_0000 + k) >> 12;
                let scheme = SCHEMES[((k / self.churn_every) % 7) as usize];
                format!(
                    "{{\"id\":\"k{k:08}\",\"workload\":\"random({n},{},{graph_seed})\",\
                     \"scheme\":\"{scheme}\"}}",
                    n / 2
                )
            }
            None => {
                let rest =
                    &self.pool[(mix(self.seed, 0xF0_0000 + k) % self.pool.len() as u64) as usize];
                format!("{{\"id\":\"k{k:08}\"{rest}")
            }
        }
    }

    /// Every recurring line once (ids `w…`), to warm a daemon's cache.
    pub fn warm_lines(&self) -> Vec<String> {
        (0..self.pool.len())
            .map(|i| format!("{{\"id\":\"w{i:05}\"{}", self.pool[i]))
            .collect()
    }
}

/// One request line replayed through `Engine::execute_line` on a mirror
/// engine: one warmed with the same lines as the daemon's and sent the
/// same lines in the same order, so that its cache hits and misses are
/// the daemon's.
pub struct Exec {
    /// Wall time of the call, ms.
    pub ms: f64,
    /// Whether the engine's cache-miss counter rose during the call.
    pub miss: bool,
    /// Time the two counter reads around the call took, ms: the cost of
    /// tracing the call.
    pub probe_ms: f64,
    /// The response line.
    pub text: String,
}

/// Replays `line` on `mirror`, timed and classified as a cache hit or miss.
pub fn replay(mirror: &Engine, line: &str) -> Exec {
    let outer = Instant::now();
    let before = mirror.stats().cache.misses;
    let t = Instant::now();
    let reply = mirror.execute_line(line);
    let ms = ms_since(t);
    let miss = mirror.stats().cache.misses > before;
    Exec {
        ms,
        miss,
        probe_ms: ms_since(outer) - ms,
        text: reply.text,
    }
}

/// An in-process daemon: the library's `serve_tcp` on a loopback port.
/// Dropping it shuts it down and joins its thread.
pub struct Daemon {
    /// Where it listens.
    pub addr: SocketAddr,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    /// Boots a daemon on a fresh engine.
    pub fn boot(config: EngineConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let engine = Engine::new(config);
        let handle = std::thread::spawn(move || serve_tcp(&listener, &engine, MAX_LINE_BYTES));
        Ok(Daemon {
            addr,
            handle: Some(handle),
        })
    }

    /// Asks the daemon to shut down over the wire and joins it.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        request(self.addr, "{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
        handle
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Sends one line on a fresh connection and returns the response.
fn request(addr: SocketAddr, line: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    (&stream).write_all(format!("{line}\n").as_bytes())?;
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}

/// One answered job.
pub struct Done {
    /// Job index in the stream (or position in a fixed line list).
    pub k: u64,
    /// The request line.
    pub line: String,
    /// The response line.
    pub response: String,
    /// Latency in ms: from the send (closed loop) or from the due time
    /// (open loop).
    pub latency_ms: f64,
    /// How late the send was against its due time, ms (open loop).
    pub late_ms: f64,
    /// The job's replay on the mirror engine, when traced.
    pub exec: Option<Exec>,
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum Limit {
    /// Until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many jobs.
    Jobs(u64),
}

/// `n` client connections to `addr`. A run keeps its connections through
/// every phase, so the daemon serves it on the same threads throughout.
/// Drop them before shutting the daemon down: it waits for open
/// connections to close.
pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect()
}

/// Closed loop: each connection sends its next job only after the
/// previous answer. Jobs `first, first+1, …` come from `line` and are
/// handed out in order. With a `mirror` (and one connection), each job is
/// replayed on it right after its answer came, so that the daemon's run
/// and the replay see the same stretch of the machine. Returns the
/// answered jobs and the wall in seconds.
pub fn closed_loop(
    conns: &[TcpStream],
    line: &(dyn Fn(u64) -> String + Sync),
    first: u64,
    limit: Limit,
    mirror: Option<&Engine>,
) -> io::Result<(Vec<Done>, f64)> {
    let next = &AtomicU64::new(0);
    let start = Instant::now();
    let results: Vec<io::Result<Vec<Done>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .map(|stream| {
                scope.spawn(move || -> io::Result<Vec<Done>> {
                    let mut reader = BufReader::new(stream);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let more = match limit {
                            Limit::Seconds(s) => start.elapsed().as_secs_f64() < s,
                            Limit::Jobs(n) => i < n,
                        };
                        if !more {
                            return Ok(out);
                        }
                        let k = first + i;
                        let text = line(k);
                        let mut buf = text.clone().into_bytes();
                        buf.push(b'\n');
                        let t = Instant::now();
                        (&*stream).write_all(&buf)?;
                        let mut response = String::new();
                        if reader.read_line(&mut response)? == 0 {
                            return Err(io::Error::other("daemon closed the connection"));
                        }
                        let latency_ms = ms_since(t);
                        out.push(Done {
                            k,
                            exec: mirror.map(|m| replay(m, &text)),
                            line: text,
                            response: response.trim_end().to_string(),
                            latency_ms,
                            late_ms: 0.0,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = Vec::new();
    for r in results {
        done.extend(r?);
    }
    done.sort_by_key(|d| d.k);
    Ok((done, wall))
}

/// Open loop: job `j` of `lines` is due `j / rate` seconds after the
/// start, sent on connection `j % conns.len()` whether or not earlier
/// answers came back. Latency counts from the due time.
pub fn open_loop(conns: &[TcpStream], lines: &[(u64, String)], rate: f64) -> io::Result<Vec<Done>> {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<io::Result<Vec<Done>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> io::Result<Vec<Done>> {
                    let mine: Vec<usize> = (c..lines.len()).step_by(conns.len()).collect();
                    let reader = {
                        let stream = stream.try_clone()?;
                        let count = mine.len();
                        std::thread::spawn(move || -> io::Result<Vec<(String, Instant)>> {
                            let mut reader = BufReader::new(stream);
                            let mut got = Vec::with_capacity(count);
                            for _ in 0..count {
                                let mut response = String::new();
                                if reader.read_line(&mut response)? == 0 {
                                    return Err(io::Error::other("daemon closed the connection"));
                                }
                                got.push((response.trim_end().to_string(), Instant::now()));
                            }
                            Ok(got)
                        })
                    };
                    let mut sent = Vec::with_capacity(mine.len());
                    for &j in &mine {
                        let due = start + Duration::from_secs_f64(j as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let at = Instant::now();
                        (&*stream).write_all(format!("{}\n", lines[j].1).as_bytes())?;
                        sent.push((j, due, at));
                    }
                    let got = reader
                        .join()
                        .map_err(|_| io::Error::other("reader panicked"))??;
                    Ok(sent
                        .into_iter()
                        .zip(got)
                        .map(|((j, due, at), (response, back))| Done {
                            k: lines[j].0,
                            line: lines[j].1.clone(),
                            response,
                            latency_ms: back.saturating_duration_since(due).as_secs_f64() * 1e3,
                            late_ms: at.saturating_duration_since(due).as_secs_f64() * 1e3,
                            exec: None,
                        })
                        .collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    let mut done = Vec::new();
    for r in results {
        done.extend(r?);
    }
    done.sort_by_key(|d| d.k);
    Ok(done)
}

/// Median round trip of a `ping` over `conn`, ms: the transport's cost
/// with next to no engine work.
pub fn ping_ms(conn: &[TcpStream], count: u64) -> io::Result<f64> {
    let line = |k: u64| format!("{{\"id\":\"ping{k}\",\"op\":\"ping\"}}");
    let (done, _) = closed_loop(conn, &line, 0, Limit::Jobs(count), None)?;
    let rtts: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    Ok(median(&rtts))
}

/// Worker threads of the transcript gate's `run_batch`: the machine's two
/// cores. Its answers are the same at any worker count.
const CHECK_WORKERS: usize = 2;

/// The transcript gate: every response must equal, byte for byte, what
/// `run_batch(engine, lines, CHECK_WORKERS)` answers for the same lines on
/// a fresh engine. Typed refusals match like any other line. With
/// `corrupt`, one response is altered first, which the gate must catch.
pub fn check_transcript(done: &[Done], config: &EngineConfig, corrupt: bool, report: &mut Report) {
    let lines: Vec<String> = done.iter().map(|d| d.line.clone()).collect();
    let expected = run_batch(&Engine::new(config.clone()), &lines, CHECK_WORKERS);
    for (i, (d, want)) in done.iter().zip(&expected).enumerate() {
        let got = if corrupt && i == done.len() / 2 {
            d.response.replacen("\"ok\":", "\"ok\": ", 1)
        } else {
            d.response.clone()
        };
        report.check(got == *want, || {
            format!(
                "job {}: response {got} differs from run_batch's {want}",
                d.k
            )
        });
    }
}

/// Checks that the mirror engine answered every replayed job as the daemon
/// did, so its timings are of the same work.
pub fn check_mirror(done: &[Done], report: &mut Report) {
    let differ = done
        .iter()
        .filter(|d| d.exec.as_ref().is_some_and(|e| e.text != d.response))
        .count();
    report.check(differ == 0, || {
        format!("the mirror engine answered {differ} job(s) unlike the daemon")
    });
}

/// The graph a request line names (inline edges or a workload
/// expression), as the engine would resolve it.
pub fn resolve(line: &str) -> Option<Graph> {
    let request = protocol::parse_request(line).ok()?;
    let RequestBody::Elect(job) = request.body else {
        return None;
    };
    match job.source {
        GraphSource::Workload(expr) => anet_service::workload::build(&expr, 100_000).ok(),
        GraphSource::Inline { edges, num_nodes } => {
            let n = num_nodes.unwrap_or(edges.iter().map(|&(u, v)| u.max(v) + 1).max()?);
            let mut builder = GraphBuilder::new(n);
            for (u, v) in edges {
                builder.add_edge_auto(u, v).ok()?;
            }
            builder.build().ok()
        }
        GraphSource::Corpus(_) => None,
    }
}

/// `n` of an answered job, when the response carries it.
pub fn nodes_of(response: &str) -> Option<u64> {
    let at = response.find("\"n\":")? + 4;
    let digits: String = response[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Files the replays of `done` under the service layers: engine time split
/// by hit and miss and, for closed-loop jobs, the rest of the daemon's
/// latency as transport time.
pub fn file_execs(done: &[Done], closed: bool, layers: &mut Layers) {
    for d in done {
        let Some(exec) = &d.exec else {
            continue;
        };
        let name = if exec.miss {
            "service.engine.miss_ms"
        } else {
            "service.engine.hit_ms"
        };
        layers.push(name, exec.ms);
        if closed {
            layers.push("service.server.io_ms", d.latency_ms - exec.ms);
        }
    }
}

/// Times `protocol::parse_request` on each line.
pub fn time_parse(lines: impl Iterator<Item = String>, layers: &mut Layers) {
    for line in lines {
        let _ = layers.time("service.protocol.parse_ms", || {
            protocol::parse_request(&line)
        });
    }
}

/// Files the mirror engine's cache counters: evictions, the hit ratio over
/// the delta since `before`, and analyses per resident session.
pub fn file_cache(mirror: &Engine, before: anet_service::CacheStats, layers: &mut Layers) {
    let after = mirror.stats().cache;
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    layers.push("service.cache.evictions", after.evictions as f64);
    layers.push("service.cache.hit_ratio", hits / (hits + misses).max(1.0));
    let counts = mirror.compute_counts();
    let analyses: usize = counts.iter().map(|(_, c)| c.analysis).sum();
    layers.push(
        "election.instance.analyses_per_session",
        analyses as f64 / counts.len().max(1) as f64,
    );
}

/// The service layers on a few jobs of another workload: a daemon answers
/// `lines` on one connection, in order, each replayed on a fresh mirror
/// engine, and the answers are gated against `run_batch`.
pub fn probe(lines: &[String], layers: &mut Layers, report: &mut Report) -> io::Result<()> {
    let config = EngineConfig::default();
    let daemon = Daemon::boot(config.clone())?;
    let mirror = Engine::new(config.clone());
    let before = mirror.stats().cache;
    let line = |k: u64| lines[k as usize].clone();
    let jobs = Limit::Jobs(lines.len() as u64);
    let conn = connect(daemon.addr, 1)?;
    let (done, _) = closed_loop(&conn, &line, 0, jobs, Some(&mirror))?;
    drop(conn);
    daemon.shutdown()?;
    file_execs(&done, true, layers);
    file_cache(&mirror, before, layers);
    time_parse(lines.iter().cloned(), layers);
    check_mirror(&done, report);
    check_transcript(&done, &config, false, report);
    Ok(())
}

/// An inline-edge-list elect job for `g`.
pub fn inline_job(id: &str, g: &Graph, scheme: &str) -> String {
    let edges: Vec<String> = g.edges().map(|(u, _, v, _)| format!("[{u},{v}]")).collect();
    format!(
        "{{\"id\":\"{id}\",\"edges\":[{}],\"scheme\":\"{scheme}\"}}",
        edges.join(",")
    )
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn the_stream_is_seeded_and_ids_are_unique() {
        let a = JobStream::new(7, 50, 100, (30, 40));
        let b = JobStream::new(7, 50, 100, (30, 40));
        let lines: Vec<String> = (0..200).map(|k| a.line(k)).collect();
        assert_eq!(lines, (0..200).map(|k| b.line(k)).collect::<Vec<_>>());
        let churn = (0..200).filter(|&k| a.churn_nodes(k).is_some()).count();
        assert_eq!(churn, 20, "every tenth job churns");
        let sizes: HashSet<usize> = (0..200).filter_map(|k| a.churn_nodes(k)).collect();
        assert_eq!(sizes, HashSet::from([30, 33, 36, 40]));
        for (k, line) in lines.iter().enumerate() {
            let head = format!("{{\"id\":\"k{k:08}\"");
            assert!(line.starts_with(&head), "{line}");
        }
    }

    #[test]
    fn nodes_are_read_from_responses() {
        assert_eq!(
            nodes_of("{\"id\":\"a\",\"ok\":true,\"n\":42,\"m\":3}"),
            Some(42)
        );
        assert_eq!(nodes_of("{\"id\":\"a\",\"ok\":false}"), None);
    }

    #[test]
    fn a_dropped_daemon_is_shut_down() {
        let daemon = Daemon::boot(EngineConfig::default()).expect("boot");
        let addr = daemon.addr;
        assert!(request(addr, "{\"id\":1,\"op\":\"ping\"}").is_ok());
        drop(daemon);
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
    }
}
