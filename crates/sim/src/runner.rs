//! What a run executes and what it reports: the [`NodeAlgorithm`] contract
//! and the [`RunOutcome`] record of the round engine,
//! [`AdvRunner`](crate::AdvRunner).

use anet_graph::PortPath;

/// A node-local deterministic algorithm executed by the simulator.
///
/// One instance of the implementing type is created per node (by the factory
/// passed to the runner). The instance never learns the simulator-level node
/// identifier: it only sees its own degree, the common advice it was
/// initialized with, and the messages arriving on its ports — exactly the
/// information available in the anonymous LOCAL model.
pub trait NodeAlgorithm {
    /// The message type exchanged with neighbors.
    type Message: Clone + Send;

    /// Called once before round 0 with the degree of the node.
    fn init(&mut self, degree: usize);

    /// Produces the messages to send in the given round, one entry per port
    /// (index = port number). A `None` entry means no message on that port.
    /// The returned vector must have exactly `degree` entries.
    fn send(&mut self, round: usize) -> Vec<Option<Self::Message>>;

    /// Delivers the messages received in the given round, one entry per port
    /// (index = port number; `None` if the neighbor sent nothing on the
    /// connecting edge). Returning `Some(path)` halts the node with that
    /// election output; after halting the node is no longer scheduled.
    fn receive(&mut self, round: usize, incoming: Vec<Option<Self::Message>>) -> Option<PortPath>;

    /// The size of a message in machine words, accumulated into
    /// [`RunStats::message_words`] for every delivered message. The default
    /// of 1 suits plain scalar messages; algorithms exchanging structured
    /// payloads override it so runs report their true communication volume
    /// (e.g. the tree-based `COM` oracle reports the full view-tree size,
    /// the arena-based `COM` a constant 2).
    fn message_size_words(_msg: &Self::Message) -> usize {
        1
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of rounds executed (a round counts if at least one node was
    /// still active at its start).
    pub rounds: usize,
    /// Total number of messages delivered over all rounds.
    pub messages: usize,
    /// Total payload volume of delivered messages, in machine words, as
    /// reported by [`NodeAlgorithm::message_size_words`].
    pub message_words: usize,
}

/// The outcome of a run: per-node outputs, halting rounds, and statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// `outputs[v]` is the election output of node `v`, if it halted.
    pub outputs: Vec<Option<PortPath>>,
    /// `halt_round[v]` is the round (0-based; a node halting in round `r`
    /// has used `r + 1` rounds of communication) in which node `v` halted.
    pub halt_round: Vec<Option<usize>>,
    /// Run statistics.
    pub stats: RunStats,
}

impl RunOutcome {
    /// Whether every node produced an output.
    pub fn all_halted(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// The largest halting round among nodes that halted, interpreted as the
    /// *time* of the election in the paper's sense (number of rounds used).
    pub fn election_time(&self) -> Option<usize> {
        if !self.all_halted() {
            return None;
        }
        self.halt_round
            .iter()
            .map(|r| r.map(|r| r + 1).unwrap_or(0))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdvRunner, FaultPlan, SimError};
    use anet_graph::generators;

    /// A toy algorithm: flood a counter for `target` rounds, then output the
    /// empty path (electing oneself) — used to exercise the engine mechanics.
    struct CountDown {
        target: usize,
        degree: usize,
        seen: usize,
    }

    impl NodeAlgorithm for CountDown {
        type Message = usize;

        fn init(&mut self, degree: usize) {
            self.degree = degree;
        }

        fn send(&mut self, round: usize) -> Vec<Option<usize>> {
            vec![Some(round); self.degree]
        }

        fn receive(&mut self, _round: usize, incoming: Vec<Option<usize>>) -> Option<PortPath> {
            self.seen += incoming.iter().flatten().count();
            if self.seen >= self.target * self.degree {
                Some(PortPath::empty())
            } else {
                None
            }
        }
    }

    #[test]
    fn all_nodes_halt_after_target_rounds() {
        let g = generators::ring(6);
        let outcome = AdvRunner::new(&g, 100)
            .run(&FaultPlan::none(), |_slot, _deg| CountDown {
                target: 3,
                degree: 0,
                seen: 0,
            })
            .unwrap();
        assert!(outcome.all_halted());
        assert_eq!(outcome.election_time(), Some(3));
        for r in &outcome.halt_round {
            assert_eq!(*r, Some(2));
        }
    }

    #[test]
    fn message_count_matches_rounds_times_edges() {
        let g = generators::clique(5);
        let outcome = AdvRunner::new(&g, 100)
            .run(&FaultPlan::none(), |_slot, _deg| CountDown {
                target: 2,
                degree: 0,
                seen: 0,
            })
            .unwrap();
        // Every round sends 2 messages per edge; all nodes halt after 2 rounds.
        assert_eq!(outcome.stats.rounds, 2);
        assert_eq!(outcome.stats.messages, 2 * 2 * g.num_edges());
    }

    #[test]
    fn max_rounds_caps_non_terminating_algorithms() {
        struct Never2 {
            degree: usize,
        }
        impl NodeAlgorithm for Never2 {
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
        let g = generators::path(2);
        let outcome = AdvRunner::new(&g, 7)
            .run(&FaultPlan::none(), |_, _| Never2 { degree: 0 })
            .unwrap();
        assert!(!outcome.all_halted());
        assert_eq!(outcome.stats.rounds, 7);
        assert_eq!(outcome.election_time(), None);
    }

    #[test]
    fn bad_send_arity_is_a_typed_error_not_a_panic() {
        struct Short;
        impl NodeAlgorithm for Short {
            type Message = ();
            fn init(&mut self, _d: usize) {}
            fn send(&mut self, _r: usize) -> Vec<Option<()>> {
                Vec::new() // always wrong on a graph with edges
            }
            fn receive(&mut self, _r: usize, _m: Vec<Option<()>>) -> Option<PortPath> {
                None
            }
        }
        let g = generators::ring(4);
        let err = AdvRunner::new(&g, 5)
            .run(&FaultPlan::none(), |_, _| Short)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::BadSendArity {
                node: 0,
                got: 0,
                want: 2
            }
        );
    }

    #[test]
    fn halted_nodes_stop_sending() {
        // Node with degree 1 halts immediately (target 0); its neighbor with
        // larger target keeps waiting but receives nothing more, so the run
        // hits the cap — verifying that halted nodes are descheduled.
        struct HaltIfLeaf {
            degree: usize,
        }
        impl NodeAlgorithm for HaltIfLeaf {
            type Message = u8;
            fn init(&mut self, d: usize) {
                self.degree = d;
            }
            fn send(&mut self, _r: usize) -> Vec<Option<u8>> {
                vec![Some(1); self.degree]
            }
            fn receive(&mut self, round: usize, incoming: Vec<Option<u8>>) -> Option<PortPath> {
                if self.degree == 1 {
                    Some(PortPath::empty())
                } else if round >= 3 && incoming.iter().all(Option::is_none) {
                    // Center halts only once leaves have gone silent.
                    Some(PortPath::empty())
                } else {
                    None
                }
            }
        }
        let g = generators::star(3);
        let outcome = AdvRunner::new(&g, 50)
            .run(&FaultPlan::none(), |_, _| HaltIfLeaf { degree: 0 })
            .unwrap();
        assert!(outcome.all_halted());
        // Leaves halt in round 0, the center later.
        assert_eq!(outcome.halt_round[1], Some(0));
        assert!(outcome.halt_round[0].unwrap() > 0);
    }
}
