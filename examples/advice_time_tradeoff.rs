//! The advice/time trade-off on a single network: how much a priori knowledge
//! buys how much speed.
//!
//! ```text
//! cargo run --example advice_time_tradeoff
//! ```
//!
//! For one feasible network the example prints the whole spectrum studied in
//! the paper: minimum-time election with `O(n log n)`-bit advice (Theorem
//! 3.1), then the four large-time milestones of Theorem 4.1 with advice
//! shrinking from `O(log φ)` down to `O(log log* φ)`.

use anonymous_election::election::{AdviceScheme, Instance, Milestone, MilestoneScheme, MinTime};
use anonymous_election::graph::generators;

fn main() {
    let g = generators::random_connected(40, 0.08, 2024);
    // Every run below shares this session's one analysis of the network.
    let inst = Instance::new(&g);
    let phi = inst.phi().expect("feasible");
    let d = inst.diameter();
    println!(
        "network: n = {}, diameter D = {d}, election index φ = {phi}\n",
        g.num_nodes()
    );
    println!(
        "{:<28} {:>12} {:>10} {:>14}",
        "algorithm", "advice(bit)", "time", "time bound"
    );

    // The fast end of the spectrum: time exactly φ, advice Θ~(n).
    let fast = MinTime.elect(&inst).unwrap();
    println!(
        "{:<28} {:>12} {:>10} {:>14}",
        "Elect (Theorem 3.1)",
        fast.advice_bits(),
        fast.time,
        format!("φ = {phi}")
    );

    // The slow end: the four milestones of Theorem 4.1 with c = 2.
    for m in Milestone::ALL {
        let r = MilestoneScheme(m).elect(&inst).unwrap();
        println!(
            "{:<28} {:>12} {:>10} {:>14}",
            format!("Election{} ({:?})", m.index(), m),
            r.advice_bits(),
            r.time,
            r.time_bound
        );
    }
    println!("\nEvery run elects the same unique leader; only the knowledge/time budget changes.");
}
