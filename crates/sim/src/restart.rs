//! A crash-recovery adapter: generation-stamped lockstep with global reset.
//!
//! [`Restartable`] wraps an inner [`NodeAlgorithm`] for executions where
//! nodes can crash and later restart from `init` (losing all volatile
//! state, keeping only what the factory replays — in the election
//! pipeline, the advice). An anonymous restarted node cannot rejoin a
//! computation in progress — it lost its place and has no identity to
//! reclaim it — so the wrapper implements the only sound alternative:
//! detect the inconsistency and deterministically restart *everyone*,
//! re-running the deterministic inner computation from scratch. The re-run
//! elects the same leader (same graph, same advice), just later: the
//! certified *degraded-but-correct* class. If a crashed node never comes
//! back (crash-stop), no generation can complete and the run fails loudly
//! at the runner's round cap: *correctly-refused*, never a wrong output.
//!
//! Mechanics, per physical round:
//!
//! * Every node broadcasts one [`GenFrame`] per port: its current
//!   generation, its current inner round `r`, the inner algorithm's
//!   round-`r` message for that port, and whether its inner algorithm has
//!   halted. Frames are re-broadcast until the node advances, so a node
//!   lagging one round behind (the lockstep invariant bounds the gap
//!   between neighbors to one) always catches up.
//! * Inner round `r` is delivered once every port holds a current-
//!   generation round-`r` frame (or its peer halted at or before `r`) —
//!   at most one inner round per physical round, and never in the same
//!   physical round the node joined a generation, so every round's frame
//!   is broadcast at least once before the node moves past it (a lagging
//!   neighbor can always catch up).
//! * A frame from a *newer* generation wins immediately: the node
//!   re-creates its inner algorithm from the factory (re-running `init`)
//!   and joins that generation at round 0. This floods a reset wave one
//!   hop per round.
//! * A live same-generation frame more than one inner round away violates
//!   the lockstep invariant (neighbors are never more than one round
//!   apart), which proves a restart happened nearby; the receiver
//!   *escalates* immediately — it bumps the generation and restarts,
//!   seeding the reset wave.
//! * A node that makes no progress for `stall_threshold` consecutive
//!   physical rounds also escalates: a freshly restarted node exactly one
//!   round behind its neighbor is a wedge the invariant check cannot see
//!   (offset one is legitimate lockstep), and a crashed neighbor sends
//!   nothing at all. Set the threshold above the graph's diameter so a
//!   travelling reset wave is never mistaken for a wedge.
//! * When the inner algorithm halts, the wrapper withholds the output for
//!   `linger` physical rounds, still re-broadcasting its final frame. If a
//!   reset wave arrives while lingering, the output is discarded and the
//!   node rejoins — only after a full quiet linger does it irrevocably
//!   halt. Set the linger above `stall_threshold + diameter` so no node
//!   halts while a wave can still be on its way.

use anet_graph::PortPath;

use crate::runner::NodeAlgorithm;

/// The frame broadcast by a [`Restartable`] node on every port, every
/// physical round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenFrame<M> {
    /// The sender's generation (bumped by every escalation).
    pub gen: u64,
    /// The inner round of `payload` — the sender's current round, or its
    /// last data round if it has halted.
    pub round: usize,
    /// The inner algorithm's message for `round` on this port.
    pub payload: Option<M>,
    /// Whether the sender's inner algorithm has halted (its first silent
    /// inner round is `round + 1`).
    pub halted: bool,
}

/// A crash-recovery wrapper running an inner algorithm in restartable
/// generations; see the [module documentation](self) for the protocol.
pub struct Restartable<A, G>
where
    A: NodeAlgorithm,
    G: FnMut() -> A,
{
    make: G,
    inner: A,
    degree: usize,
    gen: u64,
    /// Next inner round to deliver; `cur_send` holds `inner.send(round)`
    /// (or, when halted, the last data round's sends).
    round: usize,
    cur_send: Vec<Option<A::Message>>,
    /// Per-port buffer for current-generation frames of rounds `round`
    /// and `round + 1` (the lockstep gap between neighbors is at most 1).
    buf: Vec<Vec<(usize, Option<A::Message>)>>,
    /// Per-port halt announcement: the peer's first silent inner round.
    peer_halted: Vec<Option<usize>>,
    pending_output: Option<PortPath>,
    /// Physical rounds without a delivery; reaching `stall_threshold`
    /// escalates.
    idle: usize,
    stall_threshold: usize,
    linger: usize,
    linger_left: usize,
    poisoned: bool,
}

impl<A, G> Restartable<A, G>
where
    A: NodeAlgorithm,
    G: FnMut() -> A,
{
    /// Wraps the algorithm produced by `make`. `stall_threshold` is the
    /// number of progress-free physical rounds before the node escalates a
    /// generation bump (set it above the graph's diameter); `linger` is
    /// how long a halted node keeps serving frames before its output
    /// becomes irrevocable (set it above `stall_threshold` plus the
    /// diameter).
    pub fn new(mut make: G, stall_threshold: usize, linger: usize) -> Self {
        let inner = make();
        Restartable {
            make,
            inner,
            degree: 0,
            gen: 0,
            round: 0,
            cur_send: Vec::new(),
            buf: Vec::new(),
            peer_halted: Vec::new(),
            pending_output: None,
            idle: 0,
            stall_threshold: stall_threshold.max(1),
            linger,
            linger_left: 0,
            poisoned: false,
        }
    }

    /// The current generation (for tests and diagnostics).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Pulls `inner.send(round)` into `cur_send`, poisoning on a contract
    /// violation.
    fn pull_sends(&mut self) {
        let msgs = self.inner.send(self.round);
        if msgs.len() != self.degree {
            self.poisoned = true;
            self.cur_send = (0..self.degree).map(|_| None).collect();
        } else {
            self.cur_send = msgs;
        }
    }

    /// Re-creates the inner algorithm and joins generation `gen` at
    /// round 0.
    fn reinit(&mut self, gen: u64) {
        self.gen = gen;
        self.inner = (self.make)();
        self.inner.init(self.degree);
        self.round = 0;
        self.buf = (0..self.degree).map(|_| Vec::new()).collect();
        self.peer_halted = vec![None; self.degree];
        self.pending_output = None;
        self.idle = 0;
        self.linger_left = 0;
        self.pull_sends();
    }

    /// Whether port `p` can contribute to delivering `self.round`.
    fn port_ready(&self, p: usize) -> bool {
        if self.peer_halted[p].is_some_and(|halt| halt <= self.round) {
            return true;
        }
        self.buf[p].iter().any(|&(r, _)| r == self.round)
    }
}

impl<A, G> NodeAlgorithm for Restartable<A, G>
where
    A: NodeAlgorithm,
    G: FnMut() -> A,
{
    type Message = GenFrame<A::Message>;

    fn init(&mut self, degree: usize) {
        self.degree = degree;
        self.buf = (0..degree).map(|_| Vec::new()).collect();
        self.peer_halted = vec![None; degree];
        self.inner.init(degree);
        self.pull_sends();
    }

    fn send(&mut self, _round: usize) -> Vec<Option<Self::Message>> {
        let halted = self.pending_output.is_some();
        // A halted node's `round` is its first silent inner round; its
        // frame still carries the last data round so laggards can finish.
        let frame_round = if halted {
            self.round.saturating_sub(1)
        } else {
            self.round
        };
        (0..self.degree)
            .map(|p| {
                Some(GenFrame {
                    gen: self.gen,
                    round: frame_round,
                    payload: self.cur_send.get(p).cloned().flatten(),
                    halted,
                })
            })
            .collect()
    }

    fn receive(&mut self, _round: usize, incoming: Vec<Option<Self::Message>>) -> Option<PortPath> {
        // A newer generation anywhere in the inbox wins before anything
        // else is interpreted.
        let max_gen = incoming
            .iter()
            .flatten()
            .map(|f| f.gen)
            .max()
            .unwrap_or(self.gen);
        let mut adopted = false;
        if max_gen > self.gen {
            self.reinit(max_gen);
            adopted = true;
        }

        // A live same-generation frame more than one round away violates
        // the lockstep invariant, which proves a restart happened nearby
        // (a recovered node rejoined at round 0, or two independently
        // escalated islands of the same generation met). Escalate at once
        // rather than waiting out the stall threshold: the slow path lets
        // same-generation islands form faster than they dissolve.
        let conflict = incoming.iter().flatten().any(|f| {
            f.gen == self.gen
                && (f.round > self.round + 1 || (!f.halted && f.round + 1 < self.round))
        });
        if conflict {
            let next = self.gen + 1;
            self.reinit(next);
            return None;
        }

        // Buffer current-generation frames for rounds we still need.
        for (p, frame) in incoming.into_iter().enumerate() {
            let Some(frame) = frame else { continue };
            if frame.gen != self.gen {
                continue; // stale generation: the reset wave handles it
            }
            if frame.halted {
                let silent = frame.round + 1;
                if self.peer_halted[p].map_or(true, |h| silent < h) {
                    self.peer_halted[p] = Some(silent);
                }
            }
            if frame.round >= self.round
                && frame.round <= self.round + 1
                && !self.buf[p].iter().any(|&(r, _)| r == frame.round)
            {
                self.buf[p].push((frame.round, frame.payload));
            }
        }

        // Deliver at most ONE inner round per physical round, and none in
        // the round that joined a generation: a node must broadcast its
        // round-`r` frame in at least one send phase before moving past
        // `r`, or a neighbor still needing that frame wedges one round
        // behind — an offset the invariant check cannot distinguish from
        // legitimate lockstep.
        let mut progressed = false;
        if !adopted
            && !self.poisoned
            && self.pending_output.is_none()
            && (0..self.degree).all(|p| self.port_ready(p))
        {
            progressed = true;
            let delivering = self.round;
            let assembled: Vec<Option<A::Message>> = (0..self.degree)
                .map(|p| {
                    if self.peer_halted[p].is_some_and(|h| h <= delivering) {
                        return None;
                    }
                    let mut taken = None;
                    self.buf[p].retain(|&(r, ref m)| {
                        if r == delivering {
                            taken = m.clone();
                            false
                        } else {
                            r > delivering
                        }
                    });
                    taken
                })
                .collect();
            let decision = self.inner.receive(self.round, assembled);
            self.round += 1;
            match decision {
                Some(path) => {
                    self.pending_output = Some(path);
                    self.linger_left = self.linger;
                    // Keep cur_send: the final frame re-broadcasts the
                    // last data round for lagging neighbors.
                }
                None => self.pull_sends(),
            }
        }

        if self.pending_output.is_some() {
            if self.linger_left == 0 {
                return self.pending_output.take();
            }
            self.linger_left -= 1;
            return None;
        }

        // Stall detection: a wedged lockstep means a neighbor restarted
        // (or is gone) — escalate a fresh generation.
        if progressed {
            self.idle = 0;
        } else {
            self.idle += 1;
            if self.idle >= self.stall_threshold {
                let next = self.gen + 1;
                self.reinit(next);
            }
        }
        None
    }

    /// Three header words (generation, round, halt flag) plus the inner
    /// payload.
    fn message_size_words(msg: &Self::Message) -> usize {
        3 + msg.payload.as_ref().map(A::message_size_words).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::AdvRunner;
    use crate::com::{ComNode, SharedViewArena};
    use crate::fault::{CrashEvent, CrashSemantics, FaultPlan};
    use crate::runner::RunOutcome;
    use anet_graph::generators;
    use anet_views::{AugmentedView, ShardedViewArena, ViewId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn restartable_com(
        g: &anet_graph::Graph,
        depth: usize,
        plan: &FaultPlan,
        max_rounds: usize,
        stall: usize,
        linger: usize,
    ) -> (RunOutcome, Option<Vec<AugmentedView>>) {
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        let collected: Arc<Mutex<Vec<Option<ViewId>>>> =
            Arc::new(Mutex::new(vec![None; g.num_nodes()]));
        let outcome = AdvRunner::new(g, max_rounds)
            .run(plan, |slot, _deg| {
                let arena = Arc::clone(&arena);
                let collected = Arc::clone(&collected);
                Restartable::new(
                    move || {
                        let collected = Arc::clone(&collected);
                        ComNode::new(Arc::clone(&arena), depth, move |_a, chain| {
                            collected.lock()[slot] = chain.last().copied();
                            PortPath::empty()
                        })
                    },
                    stall,
                    linger,
                )
            })
            .unwrap();
        if !outcome.all_halted() {
            return (outcome, None);
        }
        let views = collected
            .lock()
            .iter()
            .map(|id| arena.materialize(id.unwrap()))
            .collect();
        (outcome, Some(views))
    }

    #[test]
    fn fault_free_generation_zero_completes() {
        let g = generators::torus(3, 3);
        let depth = 3;
        let (outcome, views) = restartable_com(&g, depth, &FaultPlan::none(), 80, 10, 6);
        let views = views.expect("completes");
        assert_eq!(views, AugmentedView::compute_all(&g, depth));
        // One inner round per physical round, plus the linger tail.
        assert!(outcome.election_time().unwrap() <= depth + 6 + 2);
    }

    #[test]
    fn crash_and_recovery_restarts_everyone_and_still_agrees() {
        let g = generators::lollipop(5, 4);
        let depth = 3;
        let diameter = 5; // generous for this graph
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::RestartFromInit,
            vec![CrashEvent {
                node: 2,
                at: 1,
                recover_at: Some(3),
            }],
        );
        let stall = diameter + 4;
        let linger = 2 * diameter + 10;
        let (outcome, views) = restartable_com(&g, depth, &plan, 400, stall, linger);
        let views = views.expect("recovered run completes");
        assert_eq!(views, AugmentedView::compute_all(&g, depth));
        // The re-run costs real rounds: strictly slower than fault-free.
        let (clean, _) = restartable_com(&g, depth, &FaultPlan::none(), 400, stall, linger);
        assert!(outcome.election_time().unwrap() > clean.election_time().unwrap());
    }

    #[test]
    fn crash_stop_refuses_instead_of_completing() {
        let g = generators::ring(6);
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::Stop,
            vec![CrashEvent {
                node: 1,
                at: 1,
                recover_at: None,
            }],
        );
        let (outcome, views) = restartable_com(&g, 3, &plan, 120, 7, 12);
        assert!(views.is_none(), "a dead node must prevent completion");
        assert!(!outcome.all_halted());
    }

    #[test]
    fn escalation_is_deterministic_across_thread_counts() {
        let g = generators::torus(3, 4);
        let depth = 2;
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::RestartFromInit,
            vec![CrashEvent {
                node: 5,
                at: 1,
                recover_at: Some(2),
            }],
        );
        let run = |threads: usize| {
            let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
            AdvRunner::with_threads(&g, 400, threads)
                .run(&plan, |_slot, _deg| {
                    let arena = Arc::clone(&arena);
                    Restartable::new(
                        move || {
                            ComNode::new(Arc::clone(&arena), depth, move |_a, _view| {
                                PortPath::empty()
                            })
                        },
                        8,
                        20,
                    )
                })
                .unwrap()
        };
        let a = run(1);
        for threads in [2, 4] {
            let b = run(threads);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.halt_round, b.halt_round);
            assert_eq!(a.stats, b.stats);
        }
    }
}
