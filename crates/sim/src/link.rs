//! A reliable-link adapter: stop-and-wait ARQ with cumulative acks.
//!
//! [`ReliableLink`] wraps any inner [`NodeAlgorithm`] and implements the
//! same trait, translating the inner algorithm's synchronous rounds into
//! *logical* rounds shipped as sequence-numbered frames with per-port
//! retransmission. Against an adversary that drops messages (or churns
//! edges) with bounded bursts — every [`DropSpec::window`]-th round is
//! forced delivery — the wrapped algorithm executes exactly the clean
//! synchronous computation, only slower: the certified
//! *degraded-but-correct* class.
//!
//! Protocol, per port:
//!
//! * Every physical round the wrapper sends one [`LinkMessage`] on every
//!   port: a cumulative ack (`recv_next`, the lowest sequence number not
//!   yet accepted) plus a copy of every still-unacknowledged outbound
//!   frame. Frames are resent until acknowledged, so a lost message only
//!   delays.
//! * Frame `seq` is the inner round of its payload. The receiver accepts
//!   frames strictly in sequence (duplicates and gaps are ignored — the
//!   sender keeps resending until the gap closes).
//! * Inner round `r` is delivered once every port has the round-`r` frame
//!   or has announced a halt at or before `r`; several inner rounds can be
//!   delivered in one physical round when a burst clears.
//! * When the inner algorithm halts, the wrapper announces it with a
//!   `Halt` frame (sequence = first silent round) and *lingers*: it keeps
//!   retransmitting and acknowledging for [`ReliableLink::new`]'s `linger`
//!   extra physical rounds after its halt frame is acknowledged (or the
//!   peer is known to have halted), so that slower neighbors can still
//!   drain their last frames from it. A linger of at least the drop
//!   window guarantees the final frames cross in a forced-delivery round.
//!
//! The wrapper never invents data: if the inner algorithm misbehaves
//! (wrong send arity) the link poisons itself and stops progressing, so a
//! broken run fails loudly at the runner's round cap instead of completing
//! wrongly.
//!
//! [`DropSpec::window`]: crate::fault::DropSpec::window

use std::collections::VecDeque;

use anet_graph::PortPath;

use crate::runner::NodeAlgorithm;

/// The payload of one link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkPayload<M> {
    /// The inner algorithm's message (possibly `None`) for the frame's
    /// inner round.
    Data(Option<M>),
    /// The sender's inner algorithm halted; the frame's sequence number is
    /// its first silent inner round.
    Halt,
}

/// One sequence-numbered frame: `(seq, payload)`.
pub type LinkFrame<M> = (usize, LinkPayload<M>);

/// What a [`ReliableLink`] ships on one port in one physical round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMessage<M> {
    /// Cumulative acknowledgement: all frames with `seq < ack` arrived.
    pub ack: usize,
    /// Every still-unacknowledged outbound frame, oldest first.
    pub frames: Vec<LinkFrame<M>>,
}

/// A retransmit/ack wrapper turning an unreliable (dropping, churning)
/// link layer back into the synchronous model for the inner algorithm.
pub struct ReliableLink<A: NodeAlgorithm> {
    inner: A,
    degree: usize,
    /// Next inner round to deliver to `inner.receive`.
    inner_round: usize,
    /// Per-port unacknowledged outbound frames, oldest first.
    outq: Vec<VecDeque<LinkFrame<A::Message>>>,
    /// Per-port next expected inbound sequence number.
    recv_next: Vec<usize>,
    /// Per-port accepted, not-yet-delivered data frames (in seq order).
    inbox: Vec<VecDeque<(usize, Option<A::Message>)>>,
    /// Per-port halt announcement: the peer's first silent inner round.
    peer_halted: Vec<Option<usize>>,
    /// The inner algorithm's output, held back while lingering.
    pending_output: Option<PortPath>,
    /// Extra physical rounds to keep serving neighbors after halting.
    linger: usize,
    /// Countdown started once the halt announcement has settled.
    linger_left: Option<usize>,
    /// Set when the inner algorithm broke the send contract: the link
    /// stops progressing so the run fails loudly at the round cap.
    poisoned: bool,
}

impl<A: NodeAlgorithm> ReliableLink<A> {
    /// Wraps `inner`, keeping the link alive for `linger` extra physical
    /// rounds after its halt settles (use at least the adversary's
    /// forced-delivery window).
    pub fn new(inner: A, linger: usize) -> Self {
        ReliableLink {
            inner,
            degree: 0,
            inner_round: 0,
            outq: Vec::new(),
            recv_next: Vec::new(),
            inbox: Vec::new(),
            peer_halted: Vec::new(),
            pending_output: None,
            linger,
            linger_left: None,
            poisoned: false,
        }
    }

    /// The inner round the wrapper will deliver next (for tests).
    pub fn inner_round(&self) -> usize {
        self.inner_round
    }

    /// Queues the inner algorithm's sends for `round` as fresh frames.
    fn queue_inner_sends(&mut self, round: usize) {
        let msgs = self.inner.send(round);
        if msgs.len() != self.degree {
            self.poisoned = true;
            return;
        }
        for (p, m) in msgs.into_iter().enumerate() {
            self.outq[p].push_back((round, LinkPayload::Data(m)));
        }
    }

    /// Whether port `p` can contribute to delivering `inner_round`.
    fn port_ready(&self, p: usize) -> bool {
        if self.peer_halted[p].is_some_and(|halt| halt <= self.inner_round) {
            return true;
        }
        self.inbox[p]
            .front()
            .is_some_and(|&(seq, _)| seq == self.inner_round)
    }
}

impl<A: NodeAlgorithm> NodeAlgorithm for ReliableLink<A> {
    type Message = LinkMessage<A::Message>;

    fn init(&mut self, degree: usize) {
        self.degree = degree;
        self.outq = (0..degree).map(|_| VecDeque::new()).collect();
        self.recv_next = vec![0; degree];
        self.inbox = (0..degree).map(|_| VecDeque::new()).collect();
        self.peer_halted = vec![None; degree];
        self.inner.init(degree);
        self.queue_inner_sends(0);
    }

    fn send(&mut self, _round: usize) -> Vec<Option<Self::Message>> {
        (0..self.degree)
            .map(|p| {
                Some(LinkMessage {
                    ack: self.recv_next[p],
                    frames: self.outq[p].iter().cloned().collect(),
                })
            })
            .collect()
    }

    fn receive(&mut self, _round: usize, incoming: Vec<Option<Self::Message>>) -> Option<PortPath> {
        // Ingest: prune acknowledged frames, accept in-sequence frames.
        for (p, msg) in incoming.into_iter().enumerate() {
            let Some(msg) = msg else { continue };
            while self.outq[p].front().is_some_and(|&(seq, _)| seq < msg.ack) {
                self.outq[p].pop_front();
            }
            for (seq, payload) in msg.frames {
                if seq != self.recv_next[p] {
                    continue; // duplicate or gap: sender will resend
                }
                self.recv_next[p] += 1;
                match payload {
                    LinkPayload::Data(m) => self.inbox[p].push_back((seq, m)),
                    LinkPayload::Halt => self.peer_halted[p] = Some(seq),
                }
            }
        }

        // Deliver every inner round that is now fully assembled.
        while !self.poisoned
            && self.pending_output.is_none()
            && (0..self.degree).all(|p| self.port_ready(p))
        {
            let assembled: Vec<Option<A::Message>> = (0..self.degree)
                .map(|p| {
                    if self.peer_halted[p].is_some_and(|h| h <= self.inner_round) {
                        None
                    } else {
                        self.inbox[p].pop_front().and_then(|(_, m)| m)
                    }
                })
                .collect();
            let decision = self.inner.receive(self.inner_round, assembled);
            self.inner_round += 1;
            match decision {
                Some(path) => {
                    self.pending_output = Some(path);
                    for p in 0..self.degree {
                        self.outq[p].push_back((self.inner_round, LinkPayload::Halt));
                    }
                }
                None => self.queue_inner_sends(self.inner_round),
            }
        }

        // Halt once the announcement settled and the linger drained.
        if self.pending_output.is_some() {
            let settled =
                (0..self.degree).all(|p| self.outq[p].is_empty() || self.peer_halted[p].is_some());
            match self.linger_left {
                None if settled => {
                    if self.linger == 0 {
                        return self.pending_output.take();
                    }
                    self.linger_left = Some(self.linger);
                }
                Some(left) => {
                    if left <= 1 {
                        return self.pending_output.take();
                    }
                    self.linger_left = Some(left - 1);
                }
                None => {}
            }
        }
        None
    }

    /// One word for the ack, plus per frame one word of header and the
    /// inner payload's words (halt and empty frames are header-only).
    fn message_size_words(msg: &Self::Message) -> usize {
        1 + msg
            .frames
            .iter()
            .map(|(_, payload)| match payload {
                LinkPayload::Data(Some(m)) => 1 + A::message_size_words(m),
                LinkPayload::Data(None) | LinkPayload::Halt => 1,
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::AdvRunner;
    use crate::com::{ComNode, SharedViewArena};
    use crate::fault::FaultPlan;
    use anet_graph::generators;
    use anet_views::ShardedViewArena;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn com_views(
        g: &anet_graph::Graph,
        depth: usize,
        plan: &FaultPlan,
        max_rounds: usize,
        linger: usize,
    ) -> Option<(Vec<anet_views::AugmentedView>, crate::runner::RunOutcome)> {
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        let collected: Arc<Mutex<Vec<Option<anet_views::ViewId>>>> =
            Arc::new(Mutex::new(vec![None; g.num_nodes()]));
        let outcome = AdvRunner::new(g, max_rounds)
            .run(plan, |slot, _deg| {
                let collected = Arc::clone(&collected);
                ReliableLink::new(
                    ComNode::new(Arc::clone(&arena), depth, move |_a, chain| {
                        collected.lock()[slot] = chain.last().copied();
                        PortPath::empty()
                    }),
                    linger,
                )
            })
            .unwrap();
        if !outcome.all_halted() {
            return None;
        }
        let views = collected
            .lock()
            .iter()
            .map(|id| arena.materialize(id.unwrap()))
            .collect();
        Some((views, outcome))
    }

    #[test]
    fn fault_free_link_runs_one_inner_round_per_physical_round() {
        let g = generators::torus(3, 3);
        let depth = 3;
        let (views, outcome) = com_views(&g, depth, &FaultPlan::none(), 40, 2).expect("completes");
        let central = anet_views::AugmentedView::compute_all(&g, depth);
        assert_eq!(views, central);
        // depth rounds of COM + halt announcement + linger of 2; a clean
        // COM(depth) exchange takes exactly depth rounds.
        let clean_time = depth;
        let link_time = outcome.election_time().unwrap();
        assert!(link_time >= clean_time);
        assert!(
            link_time <= clean_time + 2 + 2,
            "{link_time} vs {clean_time}"
        );
    }

    #[test]
    fn link_survives_heavy_bounded_drops() {
        let g = generators::lollipop(5, 4);
        let depth = 3;
        let window = 4;
        let plan = FaultPlan::message_drops(23, 160, window);
        let (views, _) = com_views(&g, depth, &plan, 200, 2 * window + 2).expect("completes");
        assert_eq!(views, anet_views::AugmentedView::compute_all(&g, depth));
    }

    #[test]
    fn link_survives_bounded_edge_churn() {
        let g = generators::torus(3, 4);
        let depth = 2;
        let window = 3;
        let plan = FaultPlan::edge_churn(5, 140, window);
        let (views, _) = com_views(&g, depth, &plan, 200, 2 * window + 2).expect("completes");
        assert_eq!(views, anet_views::AugmentedView::compute_all(&g, depth));
    }

    #[test]
    fn unbounded_total_loss_fails_loudly_not_wrongly() {
        let g = generators::ring(5);
        // Window far beyond the cap: effectively unbounded drops at rate
        // 255 — nothing ever arrives, so nothing can complete.
        let plan = FaultPlan::message_drops(1, 255, 1_000_000);
        assert!(com_views(&g, 2, &plan, 60, 2).is_none());
    }
}
