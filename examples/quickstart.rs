//! Quickstart: elect a leader in an anonymous network in minimum time.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example builds a small feasible anonymous network, lets the oracle
//! compute the `O(n log n)`-bit advice of Dieudonné & Pelc, runs the `Elect`
//! node algorithm on every node through the LOCAL-model simulator, and prints
//! the outcome.

use anonymous_election::election::{AdviceScheme, Instance, MinTime};
use anonymous_election::graph::{algo, generators};

fn main() {
    // A "lollipop": a clique of 6 machines with a chain of 4 relays hanging
    // off it. Nodes are anonymous; only local port numbers exist.
    let g = generators::lollipop(6, 4);
    println!(
        "network: {} nodes, {} edges, diameter {}",
        g.num_nodes(),
        g.num_edges(),
        algo::diameter(&g)
    );

    // One session per network: it analyses the network once and serves
    // every question below from that analysis.
    let inst = Instance::new(&g);

    // Is leader election possible at all, and how fast can it be?
    let phi = inst.phi().expect("this network is feasible");
    println!("election index φ = {phi} (minimum possible election time)");

    // The oracle (who knows the whole network) prepares the advice.
    let advice = inst.advice().expect("feasible network");
    println!(
        "advice: {} bits (≈ {:.2} · n log n)",
        advice.size_bits(),
        advice.size_bits() as f64 / (g.num_nodes() as f64 * (g.num_nodes() as f64).log2())
    );

    // Every node receives the same advice and runs Elect for φ rounds.
    let outcome = MinTime.elect(&inst).expect("election succeeds");
    println!(
        "elected leader: node {} in {} round(s)",
        outcome.leader, outcome.time
    );
    for (v, path) in outcome.outputs.iter().enumerate().take(5) {
        println!(
            "  node {v} outputs port sequence {:?} (a simple path of {} hop(s) to the leader)",
            path.to_flat(),
            path.len()
        );
    }
    assert_eq!(outcome.time, phi);
}
