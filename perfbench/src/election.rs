//! One cold minimum-time election (`Instance::new` → advice → run →
//! verify), untraced or split by layer, and its correctness gate.

use std::time::Instant;

use anet_election::advice_build::decode_advice;
use anet_election::elect::simulate_election_in;
use anet_election::{verify_election, AdviceScheme, ElectionError, Instance, MinTime};
use anet_graph::{Graph, PortPath};

use crate::report::{ms_since, Layers, Report};

/// Layers on the election's own path; their self times add up to the
/// untraced election wall.
pub const ON_PATH: &[&str] = &[
    "election.instance.new_ms",
    "views.refine.ms",
    "views.sharded.levels_ms",
    "election.advice_build.ms",
    "election.elect.ms",
    "election.verify.ms",
];

/// Checks an election against the session's own advice: the outputs elect
/// `Advice::root`, the time is φ, and the advice fits Theorem 3.1's bound.
/// With `corrupt`, one non-leader output is replaced by the empty path
/// first, which the gate must catch.
fn gate(
    g: &Graph,
    inst: &Instance,
    mut outputs: Vec<PortPath>,
    time: usize,
    bits: usize,
    corrupt: bool,
    report: &mut Report,
) {
    let verdict = (|| -> Result<(), String> {
        let advice = inst.advice().map_err(|e| e.to_string())?;
        if corrupt {
            let victim = usize::from(advice.root == 0);
            outputs[victim] = PortPath::empty();
        }
        let leader = verify_election(g, &outputs).map_err(|e| e.to_string())?;
        let phi = inst.phi().map_err(|e| e.to_string())?;
        let bound = MinTime.advice_bound(inst).map_err(|e| e.to_string())?;
        if leader != advice.root {
            return Err(format!("leader {leader} != advice root {}", advice.root));
        }
        if time != phi {
            return Err(format!("time {time} != phi {phi}"));
        }
        if bits > bound {
            return Err(format!("{bits} advice bits exceed the bound {bound}"));
        }
        Ok(())
    })();
    report.check(verdict.is_ok(), || {
        format!(
            "election on n={}: {}",
            g.num_nodes(),
            verdict.err().unwrap_or_default()
        )
    });
}

/// Runs one election untraced and gates it; returns its wall in ms.
pub fn untraced(g: &Graph, corrupt: bool, report: &mut Report) -> f64 {
    let t = Instant::now();
    let inst = Instance::new(g);
    let outcome = MinTime
        .advice(&inst)
        .and_then(|bits| MinTime.run(&inst, &bits));
    let wall = ms_since(t);
    match outcome {
        Ok(o) => {
            let bits = o.advice_bits();
            gate(g, &inst, o.outputs, o.time, bits, corrupt, report);
        }
        Err(e) => report.check(false, || format!("election on n={}: {e}", g.num_nodes())),
    }
    wall
}

/// Runs one election with every layer timed separately, records the
/// deterministic counts, probes `decode_advice` and `canonical_form` off
/// the election's path, and gates it. Returns the on-path wall in ms.
pub fn traced(g: &Graph, layers: &mut Layers, corrupt: bool, report: &mut Report) -> f64 {
    let t = Instant::now();
    let inst = layers.time("election.instance.new_ms", || Instance::new(g));
    let run = (|| -> Result<_, ElectionError> {
        layers.time("views.refine.ms", || inst.phi())?;
        layers.time("views.sharded.levels_ms", || inst.levels().map(|_| ()))?;
        let bits = layers.time("election.advice_build.ms", || {
            inst.advice().map(|a| a.bits.clone())
        })?;
        let sim = layers.time("election.elect.ms", || {
            simulate_election_in(g, &bits, &inst.arena())
        })?;
        layers.time("election.verify.ms", || verify_election(g, &sim.outputs))?;
        Ok((bits, sim))
    })();
    let wall = ms_since(t);
    let decoded = match run {
        Ok((bits, sim)) => {
            let decoded = layers.time("election.advice_build.decode_ms", || decode_advice(&bits));
            let form = layers.time("graph.canon.ms", || g.canonical_form());
            layers.push("election.advice_build.bits", bits.len() as f64);
            layers.push("sim.com.messages", sim.stats.messages as f64);
            layers.push("sim.com.message_words", sim.stats.message_words as f64);
            layers.push("views.sharded.distinct_views", sim.distinct_views as f64);
            layers.push("views.refine.stable_depth", inst.stable_depth() as f64);
            layers.push("graph.canon.classes", form.num_classes() as f64);
            layers.push(
                "election.instance.analyses_per_session",
                inst.compute_counts().analysis as f64,
            );
            decoded.map(|_| gate(g, &inst, sim.outputs, sim.time, bits.len(), corrupt, report))
        }
        Err(e) => Err(e),
    };
    if let Err(e) = decoded {
        report.check(false, || format!("election on n={}: {e}", g.num_nodes()));
    }
    wall
}

/// Times `Instance::eccentricities` on a fresh session of `g`.
pub fn probe_eccentricities(g: &Graph, layers: &mut Layers) {
    let inst = Instance::new(g);
    layers.time("election.instance.ecc_ms", || inst.eccentricities().len());
}
