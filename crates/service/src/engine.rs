//! The engine layer: resolve a job's graph, canonicalize, run through the
//! warm-session cache, translate results back into the job's numbering.
//!
//! Determinism is structural, not incidental: every feasible graph is
//! **canonically relabeled** (via its [`CanonicalForm`] colors) before a
//! session is built, so the cached [`Instance`] — and every leader id,
//! round count and advice bit derived from it — is a pure function of the
//! graph's isomorphism class. A job's response translates the canonical
//! leader back through its own colors, which is why renumbered twins get
//! *corresponding* answers and identical jobs get *byte-identical* ones, no
//! matter which arrival order or thread first warmed the cache. Infeasible
//! graphs short-circuit before the cache with a typed refusal derived from
//! the canonical form alone.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use anet_conformance::corpus::{build_corpus, CorpusSpec};
use anet_election::{
    AdviceScheme, ExecutionModel, Generic, Instance, Milestone, MilestoneScheme, MinTime, Remark,
};
use anet_graph::canon::CanonicalForm;
use anet_graph::relabel::permute_nodes;
use anet_graph::{Graph, GraphBuilder, RefineOptions};
use anet_sim::{CrashEvent, CrashSemantics, FaultPlan};
use parking_lot::Mutex;

use crate::cache::{CacheStats, Session, SessionCache};
use crate::protocol::{
    self, ErrorKind, FaultSpec, GraphSource, Job, ModelSpec, OkBody, Request, RequestBody,
    RequestError, SchemeSpec,
};
use crate::workload;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Max warm sessions resident at once.
    pub cache_capacity: usize,
    /// Max nodes per job graph (inline lists, workload expressions and
    /// corpus instances are all capped).
    pub max_nodes: usize,
    /// Seed of the corpus the `"corpus"` source resolves against.
    pub corpus_seed: u64,
    /// `max_n` of that corpus.
    pub corpus_max_n: usize,
    /// Refinement threads for session analyses (per-session; scheme output
    /// is thread-count invariant).
    pub analysis_threads: usize,
}

impl Default for EngineConfig {
    /// 64 warm sessions, 100k-node job cap, the committed corpus
    /// (seed 7, `max_n` 600), single-threaded analyses.
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 64,
            max_nodes: 100_000,
            corpus_seed: 7,
            corpus_max_n: 600,
            analysis_threads: 1,
        }
    }
}

/// The reply to one request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The response line (no trailing newline).
    pub text: String,
    /// Whether the request asked the daemon to shut down.
    pub shutdown: bool,
}

/// Monotonic request counters (the `stats` op reports these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Elect jobs received.
    pub jobs: u64,
    /// Elect jobs answered `"ok":true`.
    pub ok: u64,
    /// Elect jobs refused as infeasible.
    pub infeasible: u64,
    /// All other error responses (parse, protocol, resolution, election).
    pub errors: u64,
    /// Cache behaviour.
    pub cache: CacheStats,
}

/// The lazily-built id → graph index over the conformance corpus.
type CorpusIndex = Arc<BTreeMap<String, Arc<Graph>>>;

/// The service engine: config + session cache + counters. One engine backs
/// all connections of a daemon (it is `Sync`; sessions themselves are
/// guarded per-slot, see [`SessionCache`]).
pub struct Engine {
    config: EngineConfig,
    cache: SessionCache,
    corpus: Mutex<Option<CorpusIndex>>,
    jobs: AtomicU64,
    ok: AtomicU64,
    infeasible: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
}

impl Engine {
    /// Builds an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: SessionCache::new(config.cache_capacity),
            config,
            corpus: Mutex::new(None),
            jobs: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            infeasible: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Whether a shutdown request has been received.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            infeasible: self.infeasible.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// The per-session `compute_counts` of every warm session (the
    /// one-analysis-per-canonical-graph proof; see
    /// [`SessionCache::compute_counts`]).
    pub fn compute_counts(&self) -> Vec<(u64, anet_election::ComputeCounts)> {
        self.cache.compute_counts()
    }

    /// Handles one raw request line and returns the reply.
    pub fn execute_line(&self, line: &str) -> Reply {
        match protocol::parse_request(line) {
            Err((id, error)) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Reply {
                    text: protocol::render_error(&id, &error),
                    shutdown: false,
                }
            }
            Ok(request) => self.execute(&request),
        }
    }

    /// Handles one parsed request.
    pub fn execute(&self, request: &Request) -> Reply {
        let id = request.id.as_str();
        match &request.body {
            RequestBody::Ping => Reply {
                text: protocol::render_pong(id),
                shutdown: false,
            },
            RequestBody::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Reply {
                    text: protocol::render_shutdown(id),
                    shutdown: true,
                }
            }
            RequestBody::Stats => Reply {
                text: self.render_stats(id),
                shutdown: false,
            },
            RequestBody::Elect(job) => {
                self.jobs.fetch_add(1, Ordering::Relaxed);
                let text = self.run_job(id, job);
                Reply {
                    text,
                    shutdown: false,
                }
            }
        }
    }

    fn render_stats(&self, id: &str) -> String {
        let s = self.stats();
        format!(
            "{{\"id\":{id},\"ok\":true,\"stats\":{{\"jobs\":{},\"ok\":{},\"infeasible\":{},\
             \"errors\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_len\":{}}}}}",
            s.jobs,
            s.ok,
            s.infeasible,
            s.errors,
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache.len
        )
    }

    /// Resolves a job's graph source. Costs no analysis (that happens once,
    /// in the session).
    fn resolve(&self, source: &GraphSource) -> Result<Graph, RequestError> {
        match source {
            GraphSource::Inline { edges, num_nodes } => {
                let highest = edges.iter().map(|&(u, v)| u.max(v)).max().ok_or_else(|| {
                    RequestError::new(ErrorKind::BadGraph, "the edge list is empty")
                })?;
                let n = num_nodes.unwrap_or(highest + 1);
                if n > self.config.max_nodes {
                    return Err(RequestError::new(
                        ErrorKind::TooLarge,
                        format!("{n} nodes exceeds the cap of {}", self.config.max_nodes),
                    ));
                }
                if highest >= n {
                    return Err(RequestError::new(
                        ErrorKind::BadGraph,
                        format!("edge endpoint {highest} out of range for n={n}"),
                    ));
                }
                let mut builder = GraphBuilder::new(n);
                for &(u, v) in edges {
                    builder.add_edge_auto(u, v).map_err(|e| {
                        RequestError::new(ErrorKind::BadGraph, format!("edge ({u},{v}): {e}"))
                    })?;
                }
                builder
                    .build()
                    .map_err(|e| RequestError::new(ErrorKind::BadGraph, e.to_string()))
            }
            GraphSource::Workload(expr) => workload::build(expr, self.config.max_nodes),
            GraphSource::Corpus(name) => {
                let index = self.corpus_index();
                match index.get(name) {
                    Some(graph) => Ok(graph.as_ref().clone()),
                    None => Err(RequestError::new(
                        ErrorKind::UnknownCorpus,
                        format!(
                            "no corpus instance named {name:?} (corpus seed {}, max_n {}, \
                             {} instances)",
                            self.config.corpus_seed,
                            self.config.corpus_max_n,
                            index.len()
                        ),
                    )),
                }
            }
        }
    }

    /// The lazily-built corpus name index.
    fn corpus_index(&self) -> CorpusIndex {
        let mut slot = self.corpus.lock();
        match slot.as_ref() {
            Some(index) => Arc::clone(index),
            None => {
                let spec = CorpusSpec {
                    seed: self.config.corpus_seed,
                    max_n: self.config.corpus_max_n.min(self.config.max_nodes),
                };
                let mut index = BTreeMap::new();
                for inst in build_corpus(&spec) {
                    index.insert(inst.name, Arc::new(inst.graph));
                }
                let index = Arc::new(index);
                *slot = Some(Arc::clone(&index));
                index
            }
        }
    }

    /// Runs one elect job end to end and renders its response line.
    fn run_job(&self, id: &str, job: &Job) -> String {
        match self.try_job(id, job) {
            Ok(text) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                text
            }
            Err(JobRefusal::Infeasible { n, m, views }) => {
                self.infeasible.fetch_add(1, Ordering::Relaxed);
                protocol::render_infeasible(id, n, m, views)
            }
            Err(JobRefusal::Error(error)) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                protocol::render_error(id, &error)
            }
        }
    }

    fn try_job(&self, id: &str, job: &Job) -> Result<String, JobRefusal> {
        let graph = self.resolve(&job.source).map_err(JobRefusal::Error)?;
        let form = graph.canonical_form();
        if !form.is_feasible() {
            return Err(JobRefusal::Infeasible {
                n: graph.num_nodes(),
                m: graph.num_edges(),
                views: form.num_classes(),
            });
        }
        let body = self
            .run_on_session(job, &graph, &form)
            .map_err(JobRefusal::Error)?;
        Ok(protocol::render_ok(id, &body))
    }

    /// Executes the job against the (possibly warm) canonical session.
    fn run_on_session(
        &self,
        job: &Job,
        graph: &Graph,
        form: &CanonicalForm,
    ) -> Result<OkBody, RequestError> {
        let colors = match form.canonical_permutation() {
            Some(colors) => colors,
            None => {
                return Err(RequestError::new(
                    ErrorKind::Election,
                    "internal: feasible form without canonical permutation",
                ))
            }
        };
        let threads = self.config.analysis_threads;
        let outcome = self.cache.with_session(
            form,
            || {
                // Cold: build the session on the *canonical representative*,
                // so everything cached is renumbering-invariant.
                let canonical = Arc::new(permute_nodes(graph, colors));
                Session {
                    key_hash: form.hash(),
                    instance: Instance::from_arc(Arc::clone(&canonical), RefineOptions { threads }),
                    graph: canonical,
                }
            },
            |session, _warm| run_scheme(job, session, colors),
        )?;
        // Translate the canonical leader back into the job's numbering.
        let leader = colors
            .iter()
            .position(|&c| c == outcome.leader)
            .ok_or_else(|| {
                RequestError::new(ErrorKind::Election, "internal: leader not in color map")
            })?;
        Ok(OkBody {
            leader,
            n: graph.num_nodes(),
            m: graph.num_edges(),
            ..outcome
        })
    }
}

/// Why a job got no `"ok":true` response.
enum JobRefusal {
    Infeasible { n: usize, m: usize, views: usize },
    Error(RequestError),
}

fn election_error(e: anet_election::ElectionError) -> RequestError {
    RequestError::new(ErrorKind::Election, e.to_string())
}

/// Runs the job's scheme on a warm session. `colors` is the job graph's
/// canonical color map (job node `v` is canonical node `colors[v]`). The
/// returned body's `leader` is in **canonical** numbering (the caller
/// translates back) and `n`/`m` are placeholders.
fn run_scheme(job: &Job, session: &Session, colors: &[usize]) -> Result<OkBody, RequestError> {
    let inst = &session.instance;
    match job.faults {
        None => {
            let scheme: Box<dyn AdviceScheme> = match job.scheme {
                SchemeSpec::MinTime => Box::new(MinTime),
                SchemeSpec::GenericPhi => Box::new(Generic {
                    x: inst.phi().map_err(election_error)?,
                }),
                SchemeSpec::Generic(x) => Box::new(Generic { x }),
                SchemeSpec::Milestone(i) => {
                    Box::new(MilestoneScheme(Milestone::ALL[(i - 1) as usize]))
                }
                SchemeSpec::Remark => Box::new(Remark),
            };
            let outcome = scheme.elect(inst).map_err(election_error)?;
            Ok(OkBody {
                key: session.key_hash,
                scheme: outcome.scheme,
                model: "clean",
                n: 0,
                m: 0,
                phi: outcome.phi,
                leader: outcome.leader,
                time: outcome.time,
                advice_bits: outcome.advice.len(),
                parameter: outcome.parameter,
                time_bound: Some(outcome.time_bound),
            })
        }
        Some(faults) => {
            if job.scheme != SchemeSpec::MinTime {
                return Err(RequestError::new(
                    ErrorKind::Unsupported,
                    "adversarial runs ride on the min_time pipeline; \
                     use \"scheme\":\"min_time\" with \"faults\"",
                ));
            }
            let n = inst.graph().num_nodes();
            let (plan, default_model) = fault_plan(faults, colors, n)?;
            let model = match job.model {
                None => default_model,
                Some(ModelSpec::Raw) => ExecutionModel::Raw,
                Some(ModelSpec::ReliableLinks) => ExecutionModel::ReliableLinks,
                Some(ModelSpec::Restartable) => ExecutionModel::Restartable,
            };
            let outcome = inst.elect_under(&plan, model, 1).map_err(election_error)?;
            let advice_bits = inst.advice().map_err(election_error)?.bits.len();
            Ok(OkBody {
                key: session.key_hash,
                scheme: "min_time".to_string(),
                model: model_name(model),
                n: 0,
                m: 0,
                phi: inst.phi().map_err(election_error)?,
                leader: outcome.leader,
                time: outcome.time,
                advice_bits,
                parameter: None,
                time_bound: None,
            })
        }
    }
}

fn model_name(model: ExecutionModel) -> &'static str {
    match model {
        ExecutionModel::Raw => "raw",
        ExecutionModel::ReliableLinks => "reliable_links",
        ExecutionModel::Restartable => "restartable",
    }
}

/// Builds the simulator fault plan from the wire spec, translating node
/// ids into canonical numbering through the job's color map.
fn fault_plan(
    spec: FaultSpec,
    colors: &[usize],
    n: usize,
) -> Result<(FaultPlan, ExecutionModel), RequestError> {
    match spec {
        FaultSpec::PhaseSkew { seed } => Ok((FaultPlan::phase_skew(seed), ExecutionModel::Raw)),
        FaultSpec::Drops { seed, rate, window } => Ok((
            FaultPlan::message_drops(seed, rate, window),
            ExecutionModel::ReliableLinks,
        )),
        FaultSpec::Churn { seed, rate, window } => Ok((
            FaultPlan::edge_churn(seed, rate, window),
            ExecutionModel::ReliableLinks,
        )),
        FaultSpec::Crash {
            node,
            at,
            recover_at,
        } => {
            if node >= n {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    format!("crash node {node} out of range for n={n}"),
                ));
            }
            // The job names the node in its own numbering; the session runs
            // in canonical numbering.
            let canonical_node = colors[node];
            Ok((
                FaultPlan::crashing(
                    0,
                    CrashSemantics::RestartFromInit,
                    vec![CrashEvent {
                        node: canonical_node,
                        at,
                        recover_at: Some(recover_at),
                    }],
                ),
                ExecutionModel::Restartable,
            ))
        }
    }
}

/// Runs a whole batch of request lines on `workers` scoped threads and
/// returns the responses in input order. Same-canonical-graph jobs coalesce
/// on their session slot (single-flight), whatever worker picks them up.
/// `stats`/`shutdown` lines are answered *after* all elect jobs so the
/// counters they report do not depend on scheduling.
pub fn run_batch(engine: &Engine, lines: &[String], workers: usize) -> Vec<String> {
    enum Pending {
        Done(String),
        Admin(Request),
        Job { id: String, job: Job },
    }
    let mut pending: Vec<Pending> = Vec::with_capacity(lines.len());
    for line in lines {
        if line.len() > protocol::MAX_LINE_BYTES {
            pending.push(Pending::Done(protocol::render_error(
                protocol::NO_ID,
                &RequestError::new(
                    ErrorKind::Oversized,
                    format!("line exceeds {} bytes", protocol::MAX_LINE_BYTES),
                ),
            )));
            continue;
        }
        match protocol::parse_request(line) {
            Err((id, error)) => pending.push(Pending::Done(protocol::render_error(&id, &error))),
            Ok(request) => match request.body {
                RequestBody::Elect(job) => pending.push(Pending::Job {
                    id: request.id,
                    job,
                }),
                _ => pending.push(Pending::Admin(request)),
            },
        }
    }
    let job_indices: Vec<usize> = pending
        .iter()
        .enumerate()
        .filter_map(|(i, p)| matches!(p, Pending::Job { .. }).then_some(i))
        .collect();
    let results: Vec<Mutex<String>> = lines.iter().map(|_| Mutex::new(String::new())).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(job_indices.len().max(1)) {
            scope.spawn(|| loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = job_indices.get(next) else {
                    break;
                };
                if let Pending::Job { id, job } = &pending[idx] {
                    engine.jobs.fetch_add(1, Ordering::Relaxed);
                    *results[idx].lock() = engine.run_job(id, job);
                }
            });
        }
    });
    pending
        .into_iter()
        .enumerate()
        .map(|(i, p)| match p {
            Pending::Done(text) => text,
            Pending::Admin(request) => engine.execute(&request).text,
            Pending::Job { .. } => std::mem::take(&mut *results[i].lock()),
        })
        .collect()
}
