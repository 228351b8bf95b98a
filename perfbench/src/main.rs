//! The repository benchmark: cold minimum-time elections, 10k-node
//! analysis and a daemon job mix, measured end to end or split by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mintime_sparse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! the JSON result. See `perfbench/README.md` for the metrics.

mod election;
mod report;
mod service;
mod workloads;

use workloads::Opts;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::NAMES.join("|")
    )
}

/// Parses the command line into a workload name and run options.
fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(workload, opts)| {
        let report = workloads::run(&workload, &opts)?;
        let names = if opts.trace {
            report::PER_LAYER
        } else {
            report::END_TO_END
        };
        Ok((report.result_line(names)?, report))
    });
    match result {
        Ok((line, report)) => {
            for note in report.notes() {
                println!("{note}");
            }
            if let Some(why) = &report.invalid {
                println!("INVALID: {why}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}

/// The benchmark's self-test, at tiny sizes: every workload emits every
/// metric with its unit in both modes, and a corrupted output is counted
/// as a failure rather than passed.
#[cfg(test)]
mod selftest {
    use crate::report::{END_TO_END, PER_LAYER};
    use crate::workloads::{self, Opts, NAMES};

    fn opts(trace: bool, corrupt: bool) -> Opts {
        Opts {
            seed: 3,
            seconds: 0.3,
            trace,
            tiny: true,
            corrupt,
        }
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        for name in NAMES {
            for (trace, metrics) in [(false, END_TO_END), (true, PER_LAYER)] {
                let report = workloads::run(name, &opts(trace, false)).expect("run");
                let line = report.result_line(metrics).expect("every metric measured");
                assert!(line.starts_with("{\"correct\": true,"), "{name}: {line}");
                for (metric, unit) in metrics {
                    let at = line
                        .find(&format!("\"{metric}\": {{\"value\": "))
                        .unwrap_or_else(|| panic!("{name} lacks {metric}: {line}"));
                    let rest = &line[at..];
                    let close = rest.find('}').expect("metric object closes");
                    assert!(
                        rest[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                        "{name}: {metric} not in {unit}: {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupted_outputs_are_counted_as_failures() {
        for name in NAMES {
            for trace in [false, true] {
                let report = workloads::run(name, &opts(trace, true)).expect("run");
                assert!(
                    report.failed > 0,
                    "{name} (trace {trace}) passed a corrupted output"
                );
                let line = report.result_line(&[]).expect("line");
                assert!(line.starts_with("{\"correct\": false,"), "{name}: {line}");
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(super::parse(&args("--workload mintime_sparse --trace 2")).is_err());
        assert!(super::parse(&args("--workload mintime_sparse --seconds 0")).is_err());
        assert!(super::parse(&args("--seed 1")).is_err());
        assert!(workloads::run("nope", &opts(false, false)).is_err());
        let (name, o) = super::parse(&args(
            "--workload analysis_10k --seed 9 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (name.as_str(), o.seed, o.seconds, o.trace),
            ("analysis_10k", 9, 2.0, true)
        );
    }
}
