//! Token-ring recovery: the motivating scenario of the leader-election
//! problem (Le Lann 1977, cited in the paper's introduction).
//!
//! ```text
//! cargo run --example token_ring_recovery
//! ```
//!
//! In a local-area token ring, exactly one station may initiate communication
//! (the owner of a circulating token). When the token is lost, a leader must
//! be elected as the new owner — but the stations are anonymous. A plain ring
//! is perfectly symmetric, so election is *impossible*; a realistic ring whose
//! stations carry different numbers of attached devices ("hairy ring") is
//! feasible, and the election machinery of the paper applies.
//!
//! This example goes one step further than the paper's fault-free model: the
//! recovery election itself is faulty. A station crashes mid-election and
//! comes back from a cold boot (its advice survives on stable storage), and
//! the restartable execution model re-runs the election under it — re-electing
//! the *same* token owner, merely a few rounds later.

use anonymous_election::election::{
    AdviceScheme, ElectionError, ExecutionModel, Instance, MinTime,
};
use anonymous_election::families::hairy_ring;
use anonymous_election::graph::generators;
use anonymous_election::sim::{CrashEvent, CrashSemantics, FaultPlan};
use anonymous_election::views::is_feasible;

fn main() {
    // A plain 8-station token ring: every station looks exactly like every
    // other, no deterministic algorithm can break the tie.
    let plain = generators::ring(8);
    println!("plain ring feasible?     {}", is_feasible(&plain));
    match MinTime.elect(&Instance::new(&plain)) {
        Err(ElectionError::Infeasible) => {
            println!("  -> election on the plain ring is impossible (as the theory predicts)")
        }
        other => println!("  -> unexpected outcome: {other:?}"),
    }

    // The same ring, but station i has a different number of attached
    // workstations — the asymmetry every real deployment has.
    let devices = [3usize, 1, 0, 2, 0, 1, 4, 0];
    let ring = hairy_ring(&devices);
    let inst = Instance::new(&ring);
    let phi = inst.phi().expect("the hairy ring is feasible");
    println!(
        "\nhairy ring: {} nodes, election index φ = {phi}",
        ring.num_nodes()
    );

    let outcome = MinTime.elect(&inst).expect("election succeeds");
    println!(
        "new token owner: node {} (elected in {} round(s) with {} advice bits)",
        outcome.leader,
        outcome.time,
        outcome.advice_bits()
    );
    println!("every station now holds a simple path of port numbers leading to the token owner;");
    println!(
        "the longest such path has {} hops.",
        outcome.outputs.iter().map(|p| p.len()).max().unwrap()
    );

    // Now the token is lost AGAIN — and this time the recovery election is
    // itself unlucky: station 1 crashes in the first round and reboots two
    // rounds later with nothing but its stable storage (the advice). Under
    // the restartable execution model the ring detects the restart, resets
    // deterministically, and re-elects.
    let crash = FaultPlan::crashing(
        42,
        CrashSemantics::RestartFromInit,
        vec![CrashEvent {
            node: 1,
            at: 1,
            recover_at: Some(3),
        }],
    );
    let recovered = inst
        .elect_under(&crash, ExecutionModel::Restartable, 1)
        .expect("the restartable model absorbs a crash-and-reboot");
    println!(
        "\nstation 1 crashed at round 1 and rebooted at round 3 — the ring re-elected\n\
         node {} (the same owner) in {} round(s), {} messages instead of {}.",
        recovered.leader,
        recovered.time,
        recovered.stats.messages,
        outcome
            .stats
            .as_ref()
            .expect("min-time outcomes carry the exchange stats")
            .messages
    );
    assert_eq!(
        recovered.leader, outcome.leader,
        "a faulty re-election must agree with the clean one"
    );
    assert_eq!(recovered.outputs, outcome.outputs);
    assert!(recovered.time > outcome.time);

    // A station that crashes and never comes back is a different story: no
    // election can finish without it, and the machinery refuses loudly
    // rather than crowning a wrong owner.
    let dead = FaultPlan::crashing(
        42,
        CrashSemantics::Stop,
        vec![CrashEvent {
            node: 1,
            at: 1,
            recover_at: None,
        }],
    );
    match inst.elect_under(&dead, ExecutionModel::Restartable, 1) {
        Err(ElectionError::NodeDidNotHalt { .. }) => {
            println!("\nwith station 1 permanently dead the election refuses (no wrong owner).")
        }
        other => println!("\nunexpected outcome under crash-stop: {other:?}"),
    }
}
