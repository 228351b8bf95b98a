//! The `D + φ` algorithm from the remark after Theorem 4.1.
//!
//! > "In time `D + φ` it is possible to elect a leader using
//! > `O(log D + log φ)` bits of advice. Indeed, it suffices to provide the
//! > nodes with the values of the diameter `D` and of the election index `φ`.
//! > Equipped with this information, each node `u` learns `B^{D+φ}(u)` in
//! > time `D + φ`. Then, knowing `D`, it knows that the nodes it sees in this
//! > view at distance at most `D` represent all nodes of the graph. Knowing
//! > `φ`, it can reconstruct `B^φ(v)` for each such node, find the node `w`
//! > whose `B^φ` is lexicographically smallest, and output a shortest path to
//! > it."
//!
//! This sits strictly between the two ends of the spectrum: time `D + φ`
//! (instead of `D + φ + 1` for `Election1`) at the price of knowing `D`
//! exactly. As with `Generic`, the node decisions are emulated on the view
//! quotient (see the module documentation of [`crate::generic`]). The
//! [`Remark`](crate::Remark) scheme runs it on an [`Instance`]:
//!
//! ```
//! use anet_election::{AdviceScheme, Instance, Remark};
//! use anet_graph::{algo, generators};
//! use anet_views::election_index;
//!
//! let g = generators::lollipop(5, 4);
//! let outcome = Remark.elect(&Instance::new(&g)).unwrap();
//! // Exactly D + φ rounds, with only O(log D + log φ) advice bits.
//! let bound = algo::diameter(&g) + election_index(&g).unwrap();
//! assert_eq!(outcome.time, bound);
//! assert!(outcome.advice_bits() < 40);
//! ```

use anet_advice::{codec, BitString};

use crate::error::ElectionError;
use crate::instance::Instance;

/// The oracle side: the advice `Concat(bin(D), bin(φ))` from an
/// instance's cached `D` and `φ`.
pub(crate) fn remark_advice_on(inst: &Instance) -> Result<BitString, ElectionError> {
    let phi = inst.phi()?;
    let d = inst.diameter();
    Ok(codec::concat(&[
        BitString::from_uint(d as u64),
        BitString::from_uint(phi as u64),
    ]))
}

/// Decodes the advice back into `(D, φ)`.
pub fn decode_remark_advice(bits: &BitString) -> Result<(usize, usize), ElectionError> {
    let parts = codec::decode(bits).map_err(|e| ElectionError::MalformedAdvice(e.to_string()))?;
    if parts.len() != 2 {
        return Err(ElectionError::MalformedAdvice(format!(
            "expected 2 integers, found {} parts",
            parts.len()
        )));
    }
    let d = parts[0]
        .to_uint()
        .ok_or_else(|| ElectionError::MalformedAdvice("bad diameter".into()))? as usize;
    let phi = parts[1]
        .to_uint()
        .ok_or_else(|| ElectionError::MalformedAdvice("bad election index".into()))?
        as usize;
    Ok((d, phi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AdviceScheme, Generic, Remark};
    use anet_graph::{algo, generators, Graph};
    use anet_views::election_index;

    fn samples() -> Vec<Graph> {
        vec![
            generators::star(5),
            generators::caterpillar(5),
            generators::lollipop(6, 6),
            generators::random_connected(25, 0.1, 3),
            generators::random_tree(18, 4),
        ]
        .into_iter()
        .filter(|g| election_index(g).is_some())
        .collect()
    }

    #[test]
    fn remark_election_succeeds_in_d_plus_phi_rounds() {
        for g in samples() {
            let outcome = Remark.elect(&Instance::new(&g)).unwrap();
            let d = algo::diameter(&g);
            let phi = election_index(&g).unwrap();
            assert_eq!(outcome.time, d + phi);
            for (v, p) in outcome.outputs.iter().enumerate() {
                assert!(p.is_simple(&g, v));
                assert_eq!(p.endpoint(&g, v), Some(outcome.leader));
            }
        }
    }

    #[test]
    fn remark_advice_is_logarithmic() {
        for g in samples() {
            let advice = remark_advice_on(&Instance::new(&g)).unwrap();
            let d = algo::diameter(&g) as f64;
            let phi = election_index(&g).unwrap() as f64;
            // Concat doubles the bits and adds a 2-bit separator.
            let bound = 2.0 * (d.log2() + phi.log2() + 4.0) + 2.0;
            assert!((advice.len() as f64) <= bound);
        }
    }

    #[test]
    fn remark_advice_roundtrips() {
        for g in samples() {
            let advice = remark_advice_on(&Instance::new(&g)).unwrap();
            let (d, phi) = decode_remark_advice(&advice).unwrap();
            assert_eq!(d, algo::diameter(&g));
            assert_eq!(phi, election_index(&g).unwrap());
        }
    }

    #[test]
    fn remark_and_generic_elect_the_same_leader() {
        // Both elect the node with the lexicographically smallest depth-φ
        // view, so the leaders coincide.
        for g in samples() {
            let phi = election_index(&g).unwrap();
            let a = Remark.elect(&Instance::new(&g)).unwrap();
            let b = Generic { x: phi }.elect(&Instance::new(&g)).unwrap();
            assert_eq!(a.leader, b.leader);
        }
    }

    #[test]
    fn malformed_remark_advice_is_rejected() {
        assert!(decode_remark_advice(&BitString::from_uint(5)).is_err());
        assert!(Remark.elect(&Instance::new(&generators::ring(5))).is_err());
    }
}
