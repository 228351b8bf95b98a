//! The three workloads. Each sets up its inputs from the seed (several
//! times, reporting the fastest set-up), measures for the requested
//! seconds, gates every output, and fills either the end-to-end metrics
//! or, traced, the per-layer ones.

use std::collections::HashSet;
use std::io;
use std::time::Instant;

use anet_election::Instance;
use anet_families::{necklace, ring_of_cliques};
use anet_graph::relabel::random_node_permutation;
use anet_graph::{generators, Graph};
use anet_service::{Engine, EngineConfig};

use crate::election;
use crate::report::{median, ms_since, peak_rss_mb, tail, Layers, Report};
use crate::service::{self, closed_loop, mix, open_loop, Daemon, Done, JobStream, Limit};

/// Run parameters.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Whether to time layers instead of the end-to-end path.
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub tiny: bool,
    /// Corrupt one output before its gate, for the self-test.
    pub corrupt: bool,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["mintime_sparse", "analysis_10k", "service_mix"];

/// Runs workload `name`.
pub fn run(name: &str, o: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let outcome = match name {
        "mintime_sparse" => mintime_sparse(o, &mut report),
        "analysis_10k" => analysis_10k(o, &mut report),
        "service_mix" => service_mix(o, &mut report),
        _ => return Err(format!("unknown workload {name:?} (known: {NAMES:?})")),
    };
    outcome.map_err(|e| format!("{name}: {e}"))?;
    report.set_ok_share();
    Ok(report)
}

/// Set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 5;

/// Sets up `times` times and keeps the last result: each earlier one is
/// dropped (a daemon shut down) before the next starts. Returns it with
/// the fastest set-up's seconds, which a burst of load from other tenants
/// of the machine rarely slows in every repeat.
fn set_up<T>(times: usize, mut f: impl FnMut() -> io::Result<T>) -> io::Result<(T, f64)> {
    let mut kept = None;
    let mut best = f64::INFINITY;
    for _ in 0..times {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(f()?);
        best = best.min(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), best))
}

/// Times one more set-up with `f` between measuring passes, dropping its
/// result, and lowers `best` to it: set-ups spread over the run, like
/// the passes, are not all slowed by one slow stretch of the machine.
fn set_up_again<T>(best: &mut f64, f: impl FnOnce() -> io::Result<T>) -> io::Result<()> {
    let t = Instant::now();
    let out = f()?;
    *best = best.min(t.elapsed().as_secs_f64());
    drop(out);
    Ok(())
}

/// Runs `op(i)` for `i = 0, 1, …` while the next call is projected to end
/// within `seconds` (at least once); returns each call's result.
fn for_seconds<T>(seconds: f64, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.is_empty() || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        out.push(op(out.len()));
        last = t.elapsed().as_secs_f64();
    }
    out
}

/// The fastest time of each operation over passes of equal length. The
/// runs of one operation lie a pass apart, so a burst of interference
/// from other tenants of the machine rarely slows them all.
fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut best = passes[0].clone();
    for pass in &passes[1..] {
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    best
}

/// Files the end-to-end metrics of a sequence of timed operations.
fn summarize(report: &mut Report, what: &str, walls_ms: &[f64], nodes: f64) {
    let total_s = walls_ms.iter().sum::<f64>() / 1e3;
    let (tail_ms, q) = tail(walls_ms);
    report.set("p50_ms", median(walls_ms));
    report.set("tail_ms", tail_ms);
    report.set("ops_per_s", walls_ms.len() as f64 / total_s);
    report.set("nodes_per_s", nodes / total_s);
    report.note(format!(
        "{what}: {} operation(s) in {total_s:.3} s; p50 {:.3} ms and tail (q={q:.3}) \
         {tail_ms:.3} ms over {} samples",
        walls_ms.len(),
        median(walls_ms),
        walls_ms.len()
    ));
}

/// Files the peak resident set size.
fn file_rss(report: &mut Report) {
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.invalid = Some("no /proc/self/status to read VmHWM from".into()),
    }
}

/// How far the traced layer self times may sum from the untraced wall of
/// the same operations, as a share of that wall.
const ACCOUNT_TOL: f64 = 0.15;

/// Files the tracing overhead per operation and the accounting check.
/// `pairs` holds, per operation, the untraced wall and the traced layer
/// self times of the same input, measured back to back so that both see
/// the same stretch of a shared machine. Their sums must agree within
/// `ACCOUNT_TOL`.
fn file_accounting(report: &mut Report, pairs: &[(f64, f64)], overhead_ms: f64) {
    let untraced: f64 = pairs.iter().map(|p| p.0).sum();
    let self_ms: f64 = pairs.iter().map(|p| p.1).sum();
    let ratio = self_ms / untraced;
    report.set("trace.overhead_ms", overhead_ms);
    report.note(format!(
        "trace accounting: layer self times {self_ms:.1} ms against the untraced wall \
         {untraced:.1} ms ({ratio:.3}) over {} operation(s); tracing overhead \
         {overhead_ms:.4} ms per operation",
        pairs.len()
    ));
    report.check((ratio - 1.0).abs() <= ACCOUNT_TOL, || {
        format!("layer self times are {ratio:.3} of the untraced wall, beyond 1 ± {ACCOUNT_TOL}")
    });
}

/// Runs the untraced and the traced form of operation `i`, the untraced
/// first for even `i`: neither always meets the caches the other warmed.
fn in_turn<U, T>(
    i: usize,
    report: &mut Report,
    untraced: impl FnOnce(&mut Report) -> U,
    traced: impl FnOnce(&mut Report) -> T,
) -> (U, T) {
    if i.is_multiple_of(2) {
        let u = untraced(report);
        (u, traced(report))
    } else {
        let t = traced(report);
        (untraced(report), t)
    }
}

/// Publishes the off-path probes first, so the workload's own layers win
/// where both measured the same layer.
fn publish(report: &mut Report, probe: &Layers, main: &Layers) {
    probe.publish("probe", report);
    main.publish("layer", report);
}

// ---------------------------------------------------------------------------
// mintime_sparse
// ---------------------------------------------------------------------------

/// Nodes per `mintime_sparse` graph.
const MINTIME_N: usize = 4096;
/// Graphs per `mintime_sparse` run. Few enough that each is elected in
/// many passes spread over the run, keeping its fastest: the machine's
/// slow stretches rarely cover every pass.
const MINTIME_GRAPHS: usize = 4;
/// Election index of the `mintime_sparse` graphs. These random graphs
/// have φ = 2 or 3, and an election's cost follows φ, so candidates of
/// the other index are skipped.
const MINTIME_PHI: usize = 3;
/// Seed of the `mintime_sparse` base graphs. The run seed renumbers their
/// nodes, which changes every input but hardly the work (φ and message
/// counts stay, the advice size moves by under 0.1 %): graphs drawn
/// afresh per seed varied by ±10 % in election time.
const MINTIME_BASE_SEED: u64 = 1;

fn mintime_sparse(o: &Opts, report: &mut Report) -> io::Result<()> {
    let (n, phi) = if o.tiny {
        (64, None)
    } else {
        (MINTIME_N, Some(MINTIME_PHI))
    };
    let make = || {
        let graphs: Vec<Graph> = (0..64 * MINTIME_GRAPHS as u64)
            .map(|i| generators::random_connected_sparse(n, n, mix(MINTIME_BASE_SEED, i)))
            .filter(|g| phi.is_none() || Instance::new(g).phi().ok() == phi)
            .take(MINTIME_GRAPHS)
            .enumerate()
            .map(|(i, g)| random_node_permutation(&g, mix(o.seed, i as u64)).0)
            .collect();
        if graphs.len() < MINTIME_GRAPHS {
            return Err(io::Error::other(format!(
                "too few seeded graphs with phi {phi:?}"
            )));
        }
        // One uncounted election warms the allocator and the code paths.
        election::untraced(&graphs[0], false, &mut Report::default());
        Ok(graphs)
    };
    let (graphs, mut setup_s) = set_up(SETUPS, make)?;
    report.note(format!(
        "mintime_sparse: random_connected_sparse(n={n}, extra={n}), {MINTIME_GRAPHS} graphs \
         with phi {phi:?} of base seed {MINTIME_BASE_SEED}, renumbered by the run seed"
    ));
    let graph = |i: usize| &graphs[i % graphs.len()];
    if !o.trace {
        let passes = for_seconds(o.seconds, |_| {
            let walls = graphs
                .iter()
                .map(|g| election::untraced(g, o.corrupt, report))
                .collect::<Vec<_>>();
            set_up_again(&mut setup_s, make).map(|()| walls)
        })
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
        report.set("setup_s", setup_s);
        file_rss(report);
        let what = format!(
            "mintime_sparse elections (fastest of {} passes)",
            passes.len()
        );
        summarize(report, &what, &fastest(&passes), (graphs.len() * n) as f64);
        return Ok(());
    }
    report.set("setup_s", setup_s);
    // Each graph is elected untraced and traced, back to back.
    let mut main = Layers::default();
    let on_path = |l: &Layers| election::ON_PATH.iter().map(|n| l.sum(n)).sum::<f64>();
    let runs = for_seconds(o.seconds, |i| {
        let untraced = |report: &mut Report| election::untraced(graph(i), o.corrupt, report);
        let traced = |report: &mut Report| {
            let before = on_path(&main);
            let wall = election::traced(graph(i), &mut main, o.corrupt, report);
            (wall, on_path(&main) - before)
        };
        let (u, (t, s)) = in_turn(i, report, untraced, traced);
        (u, t, s)
    });
    let overhead = runs.iter().map(|r| r.1 - r.0).sum::<f64>() / runs.len() as f64;
    let pairs: Vec<(f64, f64)> = runs.iter().map(|r| (r.0, r.2)).collect();
    file_accounting(report, &pairs, overhead);
    let mut probe = Layers::default();
    election::probe_eccentricities(graph(0), &mut probe);
    let job = service::inline_job("p0", graph(0), "min_time");
    let again = job.replacen("\"p0\"", "\"p1\"", 1);
    service::probe(&[job, again], &mut probe, report)?;
    publish(report, &probe, &main);
    Ok(())
}

// ---------------------------------------------------------------------------
// analysis_10k
// ---------------------------------------------------------------------------

/// One `analysis_10k` input: family name, graph, and φ when the family
/// fixes it.
struct Tier {
    name: String,
    graph: Graph,
    phi: Option<usize>,
}

/// The ~10k-node tiers of `anet_bench::workloads` (or, `small`, its
/// ~1k-node tiers): ring of cliques (φ = 1), necklace (φ = 3) and the
/// sparse random graph, its nodes renumbered by `seed`. Renumbering keeps
/// the work (φ, depth, classes) the same for every seed while the input
/// changes.
fn tiers(seed: u64, small: bool) -> Vec<Tier> {
    let ((rk, rx), (nk, nx), (rn, rseed)) = if small {
        ((166, 5), (92, 5), (1_000, 101))
    } else {
        ((1_428, 6), (910, 5), (10_000, 103))
    };
    let random = generators::random_connected_sparse(rn, rn, rseed);
    let params = necklace::NecklaceParams {
        k: nk,
        x: nx,
        phi: 3,
    };
    vec![
        Tier {
            name: format!("ring_of_cliques(k={rk},x={rx})"),
            graph: ring_of_cliques::ring_of_cliques_base(rk, rx),
            phi: Some(1),
        },
        Tier {
            name: format!("necklace(k={nk},x={nx},phi=3)"),
            graph: necklace::necklace_base(params),
            phi: Some(3),
        },
        Tier {
            name: format!("random_sparse(n={rn},seed={rseed}) renumbered by the run seed"),
            graph: random_node_permutation(&random, mix(seed, 0xA11)).0,
            phi: None,
        },
    ]
}

/// Runs `f`, timed under `name` when tracing.
fn maybe_time<R>(layers: &mut Option<&mut Layers>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match layers {
        Some(layers) => layers.time(name, f),
        None => f(),
    }
}

/// The layers one analysis runs through, in order.
const ANALYSIS_LAYERS: [&str; 4] = [
    "graph.canon.ms",
    "election.instance.new_ms",
    "views.refine.ms",
    "views.sharded.levels_ms",
];

/// The analysis of one graph: canonical form, feasibility (refinement) and
/// the per-depth view levels, timed as a whole or per layer, then gated.
fn analyze(
    tier: &Tier,
    mut layers: Option<&mut Layers>,
    corrupt: bool,
    report: &mut Report,
) -> f64 {
    let [canon, new, refine, levels_layer] = ANALYSIS_LAYERS;
    let g = &tier.graph;
    let t = Instant::now();
    let form = maybe_time(&mut layers, canon, || g.canonical_form());
    let inst = maybe_time(&mut layers, new, || Instance::new(g));
    let feasibility = maybe_time(&mut layers, refine, || inst.feasibility());
    let levels = maybe_time(&mut layers, levels_layer, || {
        inst.levels().map(|l| l.len()).map_err(|e| e.to_string())
    });
    let wall = ms_since(t);
    if let Some(layers) = layers {
        layers.push("graph.canon.classes", form.num_classes() as f64);
        layers.push("views.refine.stable_depth", feasibility.stable_depth as f64);
        layers.push("views.sharded.distinct_views", inst.arena().len() as f64);
    }
    let n = g.num_nodes();
    let verdict = (|| -> Result<(), String> {
        let phi = feasibility.election_index.ok_or("infeasible")?;
        let want = tier.phi.map(|p| p + usize::from(corrupt));
        if form.is_feasible() != feasibility.feasible {
            return Err("canonical form and refinement disagree on feasibility".into());
        }
        if form.num_classes() != n {
            return Err(format!("{} classes among {n} nodes", form.num_classes()));
        }
        if want.is_some_and(|w| w != phi) {
            return Err(format!("phi {phi}, family has {want:?}"));
        }
        if levels? != phi + 1 {
            return Err("levels do not cover depths 0..=phi".into());
        }
        let top = &inst.levels().map_err(|e| e.to_string())?[phi];
        let distinct: HashSet<_> = top.iter().collect();
        if distinct.len() != n {
            return Err(format!(
                "{} distinct depth-phi views among {n} nodes",
                distinct.len()
            ));
        }
        Ok(())
    })();
    report.check(verdict.is_ok(), || {
        format!("{}: {}", tier.name, verdict.err().unwrap_or_default())
    });
    wall
}

fn analysis_10k(o: &Opts, report: &mut Report) -> io::Result<()> {
    let make = || -> io::Result<Vec<Tier>> { Ok(tiers(o.seed, o.tiny)) };
    let (tiers, mut setup_s) = set_up(SETUPS, make)?;
    report.set("setup_s", setup_s);
    report.note(format!(
        "analysis_10k: {}, single-threaded refinement",
        tiers
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let nodes: usize = tiers.iter().map(|t| t.graph.num_nodes()).sum();
    if !o.trace {
        let passes = for_seconds(o.seconds, |_| {
            let walls = tiers
                .iter()
                .map(|t| analyze(t, None, o.corrupt, report))
                .collect::<Vec<_>>();
            set_up_again(&mut setup_s, make).map(|()| walls)
        })
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
        report.set("setup_s", setup_s);
        file_rss(report);
        let what = format!("analysis_10k graphs (fastest of {} passes)", passes.len());
        summarize(report, &what, &fastest(&passes), nodes as f64);
        return Ok(());
    }
    // Each graph is analysed untraced and traced, back to back.
    let mut main = Layers::default();
    let self_of = |l: &Layers| ANALYSIS_LAYERS.iter().map(|n| l.sum(n)).sum::<f64>();
    let mut turn = 0;
    let runs = for_seconds(o.seconds, |_| {
        tiers
            .iter()
            .map(|t| {
                let untraced = |report: &mut Report| analyze(t, None, o.corrupt, report);
                let traced = |report: &mut Report| {
                    let before = self_of(&main);
                    let wall = analyze(t, Some(&mut main), o.corrupt, report);
                    (wall, self_of(&main) - before)
                };
                turn += 1;
                let (u, (w, s)) = in_turn(turn, report, untraced, traced);
                (u, w, s)
            })
            .collect::<Vec<_>>()
    })
    .concat();
    let overhead = runs.iter().map(|r| r.1 - r.0).sum::<f64>() / runs.len() as f64;
    let pairs: Vec<(f64, f64)> = runs.iter().map(|r| (r.0, r.2)).collect();
    file_accounting(report, &pairs, overhead);
    drop(tiers);
    // A minimum-time election on these Θ(n)-diameter families grows
    // steeply with n; probe the election and service layers on the
    // ~1k-node tiers of the same families.
    let mut probe = Layers::default();
    let mut lines = Vec::new();
    for (i, t) in self::tiers(o.seed, true).iter().enumerate() {
        election::traced(&t.graph, &mut probe, false, report);
        election::probe_eccentricities(&t.graph, &mut probe);
        let job = service::inline_job(&format!("p{i}"), &t.graph, "min_time");
        lines.push(job.replacen(&format!("\"p{i}\""), &format!("\"q{i}\""), 1));
        lines.insert(i, job);
    }
    service::probe(&lines, &mut probe, report)?;
    publish(report, &probe, &main);
    Ok(())
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

/// Recurring `job_mix` lines in the pool.
const POOL_LINES: usize = 2000;
/// Churn jobs per thousand.
const CHURN_PERMILLE: u64 = 50;
/// Node range of the churn graphs.
const CHURN_NODES: (usize, usize) = (400, 700);
/// Open-loop send rate, jobs per second: low enough that a miss delays
/// few later jobs on its connection, so the tail tracks the miss path
/// rather than compounding queues.
const OPEN_RATE: f64 = 200.0;
/// Share of `--seconds` given to the open loop; closed-loop passes take
/// the rest.
const OPEN_SHARE: f64 = 0.15;
/// Client connections. One: with a second, the two client and two
/// daemon threads contend for the machine's two cores, and where the
/// scheduler places them moved the median job by 15 % from run to run.
const CONNS: usize = 1;
/// A run whose median send ran later than this is invalid, ms: the
/// generator could not keep its schedule. (Latency counts from the due
/// time, so a late send still costs the job it delays.)
const LATE_LIMIT_MS: f64 = 1.0;
/// Set-ups per `service_mix` run before measuring, and again after it.
/// None runs during the measuring: a second daemon would count in the
/// peak RSS.
const SERVICE_SETUPS: usize = 5;
/// Pings that time the transport floor of the traced run.
const PINGS: u64 = 500;
/// A traced job whose latency exceeds its engine time and the transport
/// floor by more than this, ms, is noted as a transport stall.
const STALL_MS: f64 = 5.0;

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency_ms).collect()
}

/// The figures of one closed-loop pass: its median and tail latency, and
/// the jobs and nodes it answered per second.
struct PassFigures {
    p50_ms: f64,
    tail_ms: f64,
    jobs_per_s: f64,
    nodes_per_s: f64,
}

impl PassFigures {
    fn of(done: &[Done], wall: f64) -> PassFigures {
        let lat = latencies(done);
        let nodes: u64 = done
            .iter()
            .map(|d| service::nodes_of(&d.response).unwrap_or(0))
            .sum();
        PassFigures {
            p50_ms: median(&lat),
            tail_ms: tail(&lat).0,
            jobs_per_s: done.len() as f64 / wall,
            nodes_per_s: nodes as f64 / wall,
        }
    }
}

/// Checks that the open loop kept its schedule and ran below capacity.
fn check_schedule(report: &mut Report, open: &[Done], rate: f64, capacity: f64) {
    let late: Vec<f64> = open.iter().map(|d| d.late_ms).collect();
    let (late_tail, q) = tail(&late);
    report.note(format!(
        "open loop: {} jobs at {rate} jobs/s on {CONNS} connection(s); generator lateness p50 {:.3} ms, \
         tail (q={q:.3}) {late_tail:.3} ms, max {:.3} ms; closed-loop capacity {capacity:.0} jobs/s",
        open.len(),
        median(&late),
        late.iter().copied().fold(0.0, f64::max)
    ));
    if median(&late) > LATE_LIMIT_MS {
        report.invalid = Some(format!(
            "the generator fell behind: median lateness {:.3} ms",
            median(&late)
        ));
    } else if rate >= capacity {
        report.invalid = Some(format!(
            "open-loop rate {rate} is not below capacity {capacity:.0}"
        ));
    }
}

/// Notes what the open loop's tail population (one connection, jobs due
/// every `1000 / rate` ms) waited for: its own cache miss, or an earlier
/// miss still running when it came due.
fn note_tail_population(report: &mut Report, open: &[Done], rate: f64) {
    let missed = |d: &Done| d.exec.as_ref().is_some_and(|e| e.miss);
    let (cut, _) = tail(&latencies(open));
    let (mut slow, mut own, mut behind) = (0, 0, 0);
    for (i, d) in open.iter().enumerate() {
        if d.latency_ms < cut {
            continue;
        }
        slow += 1;
        let running = |p: &&Done| p.latency_ms > (d.k - p.k) as f64 * 1e3 / rate;
        if missed(d) {
            own += 1;
        } else if open[..i].iter().rev().take(64).filter(running).any(missed) {
            behind += 1;
        }
    }
    report.note(format!(
        "open-loop tail population: {slow} job(s) at or above {cut:.3} ms; {own} were cache \
         misses, {behind} waited behind an earlier miss"
    ));
}

fn service_mix(o: &Opts, report: &mut Report) -> io::Result<()> {
    let (churn_nodes, rate) = if o.tiny {
        ((30, 60), 200.0)
    } else {
        (CHURN_NODES, OPEN_RATE)
    };
    let config = EngineConfig::default();
    let make = || {
        let stream = JobStream::new(o.seed, POOL_LINES, CHURN_PERMILLE, churn_nodes);
        let warm = stream.warm_lines();
        let daemon = Daemon::boot(config.clone())?;
        let line = |k: u64| warm[k as usize].clone();
        let every = Limit::Jobs(warm.len() as u64);
        closed_loop(&service::connect(daemon.addr, 1)?, &line, 0, every, None)?;
        // The traced run replays each job on a mirror of the daemon's
        // engine, warmed alike.
        let mirror = o.trace.then(|| {
            let mirror = Engine::new(config.clone());
            for line in &warm {
                mirror.execute_line(line);
            }
            mirror
        });
        Ok((stream, daemon, mirror))
    };
    let ((stream, daemon, mirror), mut setup_s) = set_up(SERVICE_SETUPS, &make)?;
    report.set("setup_s", setup_s);
    report.note(format!(
        "service_mix: {POOL_LINES} recurring job_mix lines, {CHURN_PERMILLE}/1000 churn jobs on \
         random({}..={}) graphs, cache capacity {}",
        churn_nodes.0, churn_nodes.1, config.cache_capacity
    ));
    let line = |k: u64| stream.line(k);
    let open_lines = |first: u64, seconds: f64| -> Vec<(u64, String)> {
        let count = (rate * seconds).ceil() as u64;
        (first..first + count)
            .map(|k| (k, stream.line(k)))
            .collect()
    };
    let Some(mirror) = mirror else {
        // Closed-loop passes, then the open loop. Every pass runs the same
        // number of jobs, one churn cycle, so it asks for the same work;
        // each figure is its best pass, which a slow stretch of a shared
        // machine rarely covers. The latencies are taken from the closed
        // loops: `serve_tcp` leaves Nagle's algorithm on, so an open-loop
        // answer may wait for the connection's next request, and
        // open-loop latencies then read the send interval, not the service.
        let conns = service::connect(daemon.addr, CONNS)?;
        let pass = Limit::Jobs(stream.cycle());
        let mut passes = Vec::new();
        let start = Instant::now();
        while passes.is_empty() || start.elapsed().as_secs_f64() < o.seconds * (1.0 - OPEN_SHARE) {
            let first = passes.len() as u64 * stream.cycle();
            passes.push(closed_loop(&conns, &line, first, pass, None)?);
        }
        let closed_jobs = passes.len() as u64 * stream.cycle();
        let open = open_loop(
            &conns,
            &open_lines(closed_jobs, o.seconds * OPEN_SHARE),
            rate,
        )?;
        drop(conns);
        daemon.shutdown()?;
        file_rss(report);
        for _ in 0..SERVICE_SETUPS {
            set_up_again(&mut setup_s, make)?;
        }
        report.set("setup_s", setup_s);
        let figures: Vec<PassFigures> =
            passes.iter().map(|(d, w)| PassFigures::of(d, *w)).collect();
        let best = |f: fn(&PassFigures) -> f64, lower: bool| {
            let v = figures.iter().map(f);
            if lower {
                v.fold(f64::INFINITY, f64::min)
            } else {
                v.fold(0.0, f64::max)
            }
        };
        let capacity = best(|f| f.jobs_per_s, false);
        report.set("p50_ms", best(|f| f.p50_ms, true));
        report.set("tail_ms", best(|f| f.tail_ms, true));
        report.set("ops_per_s", capacity);
        report.set("nodes_per_s", best(|f| f.nodes_per_s, false));
        let q = tail(&latencies(&passes[0].0)).1;
        let open_lat = latencies(&open);
        let (open_tail, open_q) = tail(&open_lat);
        report.note(format!(
            "closed loop ({CONNS} connection(s)): {} passes of {} jobs in {:.3} s; best pass \
             p50 {:.4} ms, tail (q={q:.3}) {:.3} ms, {capacity:.1} jobs/s. Open loop: p50 \
             {:.3} ms and tail (q={open_q:.3}) {open_tail:.3} ms over {} samples",
            passes.len(),
            stream.cycle(),
            passes.iter().map(|p| p.1).sum::<f64>(),
            best(|f| f.p50_ms, true),
            best(|f| f.tail_ms, true),
            median(&open_lat),
            open_lat.len()
        ));
        check_schedule(report, &open, rate, capacity);
        let all: Vec<Done> = passes.into_iter().flat_map(|p| p.0).chain(open).collect();
        service::check_transcript(&all, &config, o.corrupt, report);
        return Ok(());
    };

    // Traced: the daemon on one connection, each job replayed on the
    // mirror right after its answer, so that the mirror meets the cache
    // state the daemon met and each call's cache-miss delta is its own.
    let before = mirror.stats().cache;
    let conn = service::connect(daemon.addr, 1)?;
    let ping = service::ping_ms(&conn, PINGS)?;
    let seconds = Limit::Seconds(o.seconds * 0.5);
    let (closed, _) = closed_loop(&conn, &line, 0, seconds, Some(&mirror))?;
    let due = open_lines(closed.len() as u64, o.seconds * 0.3);
    let mut open = open_loop(&conn, &due, rate)?;
    drop(conn);
    daemon.shutdown()?;
    for d in &mut open {
        d.exec = Some(service::replay(&mirror, &d.line));
    }
    let mut main = Layers::default();
    service::file_execs(&closed, true, &mut main);
    service::file_execs(&open, false, &mut main);
    service::file_cache(&mirror, before, &mut main);
    // Accounting: each job's untraced latency against the mirror's engine
    // time plus the transport floor. The floor is measured apart (pings),
    // not as each job's remainder, so the sums are not equal by
    // construction.
    let execs: Vec<(&Done, &service::Exec)> = closed
        .iter()
        .filter_map(|d| d.exec.as_ref().map(|e| (d, e)))
        .collect();
    let pairs: Vec<(f64, f64)> = execs
        .iter()
        .map(|(d, e)| (d.latency_ms, e.ms + ping))
        .collect();
    let overhead = execs.iter().map(|(_, e)| e.probe_ms).sum::<f64>() / execs.len() as f64;
    let stalls: Vec<f64> = pairs
        .iter()
        .map(|&(latency, traced)| latency - traced)
        .filter(|&gap| gap > STALL_MS)
        .collect();
    report.note(format!(
        "transport floor: median ping round trip {ping:.4} ms over {PINGS} pings; {} job(s) \
         waited over {STALL_MS} ms beyond engine time and floor, {:.1} ms in all",
        stalls.len(),
        stalls.iter().sum::<f64>()
    ));
    file_accounting(report, &pairs, overhead);
    note_tail_population(report, &open, rate);
    service::time_parse(
        closed.iter().chain(&open).map(|d| d.line.clone()),
        &mut main,
    );
    for d in closed.iter().take(400) {
        if let Some(g) = service::resolve(&d.line) {
            let form = main.time("graph.canon.ms", || g.canonical_form());
            main.push("graph.canon.classes", form.num_classes() as f64);
        }
    }
    // The miss population's layers, replayed off the daemon on the first
    // churn graphs.
    let mut probe = Layers::default();
    let churn: Vec<&Done> = closed
        .iter()
        .filter(|d| stream.churn_nodes(d.k).is_some())
        .take(6)
        .collect();
    for d in &churn {
        if let Some(g) = service::resolve(&d.line) {
            election::traced(&g, &mut probe, false, report);
            election::probe_eccentricities(&g, &mut probe);
        }
    }
    let all: Vec<Done> = closed.into_iter().chain(open).collect();
    service::check_mirror(&all, report);
    service::check_transcript(&all, &config, o.corrupt, report);
    publish(report, &probe, &main);
    Ok(())
}
