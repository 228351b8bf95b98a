//! The round engine.
//!
//! [`AdvRunner`] executes the synchronous LOCAL model in three phases per
//! round (send, route, receive) under a [`FaultPlan`]: each round it
//! consults the plan for crash/recover events, per-port message drops,
//! edge churn (through a [`DynamicGraph`] view) and phase skew. Under
//! [`FaultPlan::none`] it is the paper's clean synchronous model, and every
//! clean run in the workspace goes through it: the `COM` exchange, the
//! minimum-time election and the threaded runs. Its transcript (stats,
//! outputs, halt rounds) is pinned to a plain three-phase reference loop
//! by this module's tests, at every thread count and under phase skew.
//!
//! Fault semantics:
//!
//! * A node crashed at the start of a round neither sends nor receives;
//!   messages addressed to it are lost (and not counted in the stats). A
//!   crash targeting an already-halted node is ignored — its output is
//!   already irrevocable in the LOCAL model.
//! * Under [`CrashSemantics::RestartFromInit`], a recovering node is
//!   re-created by the run's factory and `init` is re-run: volatile state
//!   is lost, while whatever the factory closes over (the advice — stable
//!   storage) is replayed. Under [`CrashSemantics::Stop`] recoveries are
//!   ignored.
//! * Dropped or churned-away messages are silently lost; the engine makes
//!   no attempt at retransmission. Reliability is layered *above* the
//!   engine by wrapping node algorithms ([`ReliableLink`],
//!   [`Restartable`]) — exactly as in real networks.
//! * Phase skew permutes the order the sequential engine processes nodes
//!   within each phase. Phases are independent per node, so this must be
//!   observationally invisible; with worker threads the chunked natural
//!   order is used (the transcript is identical either way, which the
//!   conformance harness asserts).
//!
//! [`CrashSemantics::RestartFromInit`]: crate::fault::CrashSemantics::RestartFromInit
//! [`CrashSemantics::Stop`]: crate::fault::CrashSemantics::Stop
//! [`ReliableLink`]: crate::link::ReliableLink
//! [`Restartable`]: crate::restart::Restartable

use anet_graph::{Graph, PortPath};

use crate::dynamic::DynamicGraph;
use crate::error::SimError;
use crate::fault::{CrashSemantics, FaultPlan};
use crate::runner::{NodeAlgorithm, RunOutcome, RunStats};

/// The executor of the synchronous LOCAL model under a fault plan.
pub struct AdvRunner<'g> {
    graph: &'g Graph,
    max_rounds: usize,
    num_threads: usize,
}

impl<'g> AdvRunner<'g> {
    /// Creates a sequential runner over `graph` that aborts after
    /// `max_rounds` rounds (a safety net against non-terminating node
    /// algorithms).
    pub fn new(graph: &'g Graph, max_rounds: usize) -> Self {
        AdvRunner {
            graph,
            max_rounds,
            num_threads: 1,
        }
    }

    /// As [`new`](Self::new), with the send/receive phases chunked over
    /// `num_threads` scoped worker threads (clamped to at least 1).
    pub fn with_threads(graph: &'g Graph, max_rounds: usize, num_threads: usize) -> Self {
        AdvRunner {
            graph,
            max_rounds,
            num_threads: num_threads.max(1),
        }
    }

    /// Runs one node algorithm instance per node under the adversary
    /// `plan` until every node halts or `max_rounds` is reached. The
    /// factory receives a dense slot index (the node id, which is harness
    /// bookkeeping — not information leaked to the algorithm) and the
    /// node's degree; it is re-invoked when a crashed node recovers under
    /// restart semantics.
    ///
    /// Errors with [`SimError::BadSendArity`] if a node's `send` violates
    /// the one-entry-per-port contract; reaching `max_rounds` with unhalted
    /// nodes is *not* an error (the returned outcome reports it via
    /// [`RunOutcome::all_halted`]).
    pub fn run<A, F>(&self, plan: &FaultPlan, mut factory: F) -> Result<RunOutcome, SimError>
    where
        A: NodeAlgorithm + Send,
        A::Message: Send,
        F: FnMut(usize, usize) -> A,
    {
        let g = self.graph;
        let n = g.num_nodes();
        let dynamic = DynamicGraph::new(g, plan);
        let lossy = plan.drops.is_some() || plan.churn.is_some();
        let mut nodes: Vec<Option<A>> = (0..n)
            .map(|v| {
                let mut a = factory(v, g.degree(v));
                a.init(g.degree(v));
                Some(a)
            })
            .collect();
        let mut outputs: Vec<Option<PortPath>> = vec![None; n];
        let mut halt_round: Vec<Option<usize>> = vec![None; n];
        let mut stats = RunStats::default();
        let chunk = n.div_ceil(self.num_threads).max(1);

        for round in 0..self.max_rounds {
            // Adversary events take effect at the round boundary.
            for v in plan.crashes_at(round) {
                if v < n && outputs[v].is_none() {
                    nodes[v] = None;
                }
            }
            if plan.semantics == CrashSemantics::RestartFromInit {
                for v in plan.recoveries_at(round) {
                    if v < n && outputs[v].is_none() && nodes[v].is_none() {
                        let mut a = factory(v, g.degree(v));
                        a.init(g.degree(v));
                        nodes[v] = Some(a);
                    }
                }
            }
            if outputs.iter().all(Option::is_some) {
                break;
            }
            stats.rounds += 1;
            let halted: Vec<bool> = outputs.iter().map(Option::is_some).collect();

            // Phase 1: active, live nodes produce their outgoing messages.
            let mut outgoing: Vec<Option<Vec<Option<A::Message>>>> = vec![None; n];
            if self.num_threads == 1 {
                for v in plan.phase_order(round, n) {
                    if halted[v] {
                        continue;
                    }
                    if let Some(node) = nodes[v].as_mut() {
                        outgoing[v] = Some(node.send(round));
                    }
                }
            } else {
                std::thread::scope(|scope| {
                    let halted = &halted;
                    for (chunk_idx, (node_chunk, out_chunk)) in nodes
                        .chunks_mut(chunk)
                        .zip(outgoing.chunks_mut(chunk))
                        .enumerate()
                    {
                        scope.spawn(move || {
                            let base = chunk_idx * chunk;
                            for (off, (node, slot)) in
                                node_chunk.iter_mut().zip(out_chunk.iter_mut()).enumerate()
                            {
                                let v = base + off;
                                if halted[v] {
                                    continue;
                                }
                                if let Some(node) = node.as_mut() {
                                    *slot = Some(node.send(round));
                                }
                            }
                        });
                    }
                });
            }

            // Phase 2: routing, filtered by the adversary (sequential, in
            // node order, so stats and first-offender errors are
            // deterministic regardless of skew and thread count). A plan
            // without drops or churn loses messages only to crashed
            // receivers, so its routing skips the per-message edge and drop
            // checks.
            let mut incoming: Vec<Vec<Option<A::Message>>> =
                (0..n).map(|v| vec![None; g.degree(v)]).collect();
            for (v, slot) in outgoing.iter_mut().enumerate() {
                let Some(msgs) = slot.take() else { continue };
                if msgs.len() != g.degree(v) {
                    return Err(SimError::BadSendArity {
                        node: v,
                        got: msgs.len(),
                        want: g.degree(v),
                    });
                }
                for ((p, u, q), msg) in g.ports(v).zip(msgs) {
                    let Some(msg) = msg else { continue };
                    if nodes[u].is_none() {
                        continue; // receiver crashed: message lost
                    }
                    if lossy && (!dynamic.edge_up(round, v, p) || plan.drops_message(round, v, p)) {
                        continue; // edge churned away, or an adversarial drop
                    }
                    stats.messages += 1;
                    stats.message_words += A::message_size_words(&msg);
                    incoming[u][q] = Some(msg);
                }
            }

            // Phase 3: active, live nodes receive and may halt.
            if self.num_threads == 1 {
                for v in plan.phase_order(round, n) {
                    if halted[v] {
                        continue;
                    }
                    let inbox = std::mem::take(&mut incoming[v]);
                    if let Some(node) = nodes[v].as_mut() {
                        if let Some(path) = node.receive(round, inbox) {
                            outputs[v] = Some(path);
                            halt_round[v] = Some(round);
                        }
                    }
                }
            } else {
                let mut decisions: Vec<Option<PortPath>> = vec![None; n];
                std::thread::scope(|scope| {
                    let halted = &halted;
                    for (chunk_idx, ((node_chunk, in_chunk), dec_chunk)) in nodes
                        .chunks_mut(chunk)
                        .zip(incoming.chunks_mut(chunk))
                        .zip(decisions.chunks_mut(chunk))
                        .enumerate()
                    {
                        scope.spawn(move || {
                            let base = chunk_idx * chunk;
                            for (off, ((node, inbox), dec)) in node_chunk
                                .iter_mut()
                                .zip(in_chunk.iter_mut())
                                .zip(dec_chunk.iter_mut())
                                .enumerate()
                            {
                                let v = base + off;
                                if halted[v] {
                                    continue;
                                }
                                if let Some(node) = node.as_mut() {
                                    *dec = node.receive(round, std::mem::take(inbox));
                                }
                            }
                        });
                    }
                });
                for (v, dec) in decisions.into_iter().enumerate() {
                    if let Some(path) = dec {
                        outputs[v] = Some(path);
                        halt_round[v] = Some(round);
                    }
                }
            }
        }

        Ok(RunOutcome {
            outputs,
            halt_round,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::{ComNode, SharedViewArena};
    use crate::fault::CrashEvent;
    use anet_graph::generators;
    use anet_views::{AugmentedView, ShardedViewArena, ViewId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// The plain synchronous model as three phases per round — every active
    /// node sends, messages follow the edges, every active node receives —
    /// with no fault, skew or thread handling: the reference transcript the
    /// engine must reproduce under [`FaultPlan::none`].
    fn reference_run<A: NodeAlgorithm>(
        g: &Graph,
        max_rounds: usize,
        mut factory: impl FnMut(usize) -> A,
    ) -> RunOutcome {
        let n = g.num_nodes();
        let mut nodes: Vec<A> = g
            .nodes()
            .map(|v| {
                let mut a = factory(g.degree(v));
                a.init(g.degree(v));
                a
            })
            .collect();
        let mut outputs: Vec<Option<PortPath>> = vec![None; n];
        let mut halt_round: Vec<Option<usize>> = vec![None; n];
        let mut stats = RunStats::default();
        for round in 0..max_rounds {
            if outputs.iter().all(Option::is_some) {
                break;
            }
            stats.rounds += 1;
            let mut outgoing: Vec<Vec<Option<A::Message>>> = Vec::with_capacity(n);
            for (v, node) in nodes.iter_mut().enumerate() {
                if outputs[v].is_some() {
                    outgoing.push(vec![None; g.degree(v)]);
                } else {
                    outgoing.push(node.send(round));
                }
            }
            let mut incoming: Vec<Vec<Option<A::Message>>> =
                (0..n).map(|v| vec![None; g.degree(v)]).collect();
            for (v, out) in outgoing.iter_mut().enumerate() {
                for (p, u, q) in g.ports(v) {
                    if let Some(msg) = out[p].take() {
                        stats.messages += 1;
                        stats.message_words += A::message_size_words(&msg);
                        incoming[u][q] = Some(msg);
                    }
                }
            }
            for (v, node) in nodes.iter_mut().enumerate() {
                if outputs[v].is_some() {
                    continue;
                }
                if let Some(path) = node.receive(round, std::mem::take(&mut incoming[v])) {
                    outputs[v] = Some(path);
                    halt_round[v] = Some(round);
                }
            }
        }
        RunOutcome {
            outputs,
            halt_round,
            stats,
        }
    }

    fn com_outcome_reference(g: &Graph, depth: usize) -> RunOutcome {
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        reference_run(g, depth + 1, |_| {
            ComNode::new(Arc::clone(&arena), depth, |_a, _v| PortPath::empty())
        })
    }

    fn com_outcome_adv(
        g: &Graph,
        depth: usize,
        max_rounds: usize,
        plan: &FaultPlan,
        threads: usize,
    ) -> RunOutcome {
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        AdvRunner::with_threads(g, max_rounds, threads)
            .run(plan, |_slot, _deg| {
                ComNode::new(Arc::clone(&arena), depth, |_a, _v| PortPath::empty())
            })
            .unwrap()
    }

    #[test]
    fn fault_free_transcript_matches_sync_runner() {
        let graphs = [
            generators::lollipop(5, 4),
            generators::torus(3, 4),
            generators::caterpillar(5),
        ];
        for g in &graphs {
            let depth = 3;
            let reference = com_outcome_reference(g, depth);
            for threads in [1, 2, 4] {
                let adv = com_outcome_adv(g, depth, depth + 1, &FaultPlan::none(), threads);
                assert_eq!(reference.outputs, adv.outputs);
                assert_eq!(reference.halt_round, adv.halt_round);
                assert_eq!(reference.stats, adv.stats);
            }
        }
    }

    #[test]
    fn parallel_exchange_views_match_central_computation() {
        let g = generators::random_connected(40, 0.08, 5);
        let depth = 2;
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        let collected: Arc<Mutex<Vec<Option<ViewId>>>> =
            Arc::new(Mutex::new(vec![None; g.num_nodes()]));
        let outcome = AdvRunner::with_threads(&g, depth + 1, 4)
            .run(&FaultPlan::none(), |v, _deg| {
                let collected = Arc::clone(&collected);
                ComNode::new(Arc::clone(&arena), depth, move |_arena, chain| {
                    collected.lock()[v] = chain.last().copied();
                    PortPath::empty()
                })
            })
            .unwrap();
        assert!(outcome.all_halted());
        let central = AugmentedView::compute_all(&g, depth);
        let ids = collected.lock();
        for v in g.nodes() {
            assert_eq!(arena.materialize(ids[v].unwrap()), central[v]);
        }
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let g = generators::path(3);
        let outcome = com_outcome_adv(&g, 1, 5, &FaultPlan::none(), 16);
        assert!(outcome.all_halted());
    }

    #[test]
    fn phase_skew_is_observationally_invisible() {
        let g = generators::torus(3, 4);
        let depth = 3;
        let reference = com_outcome_reference(&g, depth);
        for seed in [1u64, 99, 4242] {
            let skew = com_outcome_adv(&g, depth, depth + 1, &FaultPlan::phase_skew(seed), 1);
            assert_eq!(reference.outputs, skew.outputs);
            assert_eq!(reference.halt_round, skew.halt_round);
            assert_eq!(reference.stats, skew.stats);
        }
    }

    #[test]
    fn crash_stop_starves_neighbors_without_panicking() {
        let g = generators::ring(6);
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::Stop,
            vec![CrashEvent {
                node: 2,
                at: 1,
                recover_at: Some(2), // ignored under Stop semantics
            }],
        );
        let out = com_outcome_adv(&g, 3, 10, &plan, 1);
        assert!(!out.all_halted(), "a silenced ring cannot finish COM(3)");
        assert!(out.outputs[2].is_none());
    }

    #[test]
    fn restart_recreates_the_instance_from_the_factory() {
        let g = generators::ring(4);
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::RestartFromInit,
            vec![CrashEvent {
                node: 1,
                at: 1,
                recover_at: Some(3),
            }],
        );
        let built = Arc::new(Mutex::new(vec![0usize; g.num_nodes()]));
        struct Idle {
            degree: usize,
        }
        impl NodeAlgorithm for Idle {
            type Message = ();
            fn init(&mut self, d: usize) {
                self.degree = d;
            }
            fn send(&mut self, _r: usize) -> Vec<Option<()>> {
                vec![None; self.degree]
            }
            fn receive(&mut self, _r: usize, _m: Vec<Option<()>>) -> Option<PortPath> {
                None
            }
        }
        let out = AdvRunner::new(&g, 6)
            .run(&plan, |slot, _deg| {
                built.lock()[slot] += 1;
                Idle { degree: 0 }
            })
            .unwrap();
        assert!(!out.all_halted());
        assert_eq!(built.lock()[1], 2, "node 1 rebuilt once on recovery");
        assert_eq!(built.lock()[0], 1);
    }

    #[test]
    fn drops_reduce_delivered_message_counts() {
        let g = generators::clique(6);
        let depth = 3;
        let clean = com_outcome_adv(&g, depth, depth + 1, &FaultPlan::none(), 1);
        // High drop rate, window longer than the run: most deliveries lost.
        let lossy = com_outcome_adv(
            &g,
            depth,
            depth + 1,
            &FaultPlan::message_drops(5, 200, 64),
            1,
        );
        assert!(lossy.stats.messages < clean.stats.messages);
        assert!(!lossy.all_halted(), "raw COM stalls under loss");
    }
}
