//! The doubling `Concat` / `Decode` self-delimiting code of Section 3.
//!
//! > "We encode the sequence of substrings `(A1, ..., Ak)` by doubling each
//! > digit in each substring and putting `01` between substrings."
//!
//! Example from the paper: `Concat((01), (00)) = (0011010000)`.
//!
//! The code increases the total length by a factor of at most 2 plus two bits
//! per separator, so it preserves the `O(n log n)` bounds of the advice
//! construction.

use crate::bitstring::BitString;

/// Encodes a sequence of bit strings into one uniquely decodable bit string.
///
/// Every bit of every substring is doubled (`0 -> 00`, `1 -> 11`) and the
/// separator `01` is inserted **between** consecutive substrings.
/// `concat(&[])` is the empty string and `concat(&[x])` is just the doubled
/// `x`.
pub fn concat(parts: &[BitString]) -> BitString {
    let len: usize = parts.iter().map(|p| 2 * p.len() + 2).sum();
    let mut out = Vec::with_capacity(len);
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.extend([false, true]);
        }
        for &b in part.bits() {
            out.extend([b, b]);
        }
    }
    BitString::from(out)
}

/// Errors that can occur while decoding a [`concat()`]-encoded string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The string ends in the middle of a doubled bit or separator.
    Truncated,
    /// A pair of bits is neither a doubled bit (`00`/`11`) nor a separator
    /// (`01`).
    InvalidPair {
        /// Bit offset of the malformed pair.
        offset: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded string ends mid-pair"),
            DecodeError::InvalidPair { offset } => {
                write!(f, "invalid bit pair at offset {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a [`concat()`]-encoded string back into the original sequence of
/// substrings.
///
/// `decode(concat(xs)) == xs` for every sequence `xs` with at least one
/// element; the empty encoding decodes to a single empty substring ambiguity
/// is avoided by returning an empty vector for the empty input.
pub fn decode(encoded: &BitString) -> Result<Vec<BitString>, DecodeError> {
    if encoded.is_empty() {
        return Ok(Vec::new());
    }
    let bits = encoded.bits();
    if bits.len() % 2 != 0 {
        return Err(DecodeError::Truncated);
    }
    let mut parts = Vec::new();
    let mut part = Vec::new();
    for (i, pair) in bits.chunks_exact(2).enumerate() {
        match (pair[0], pair[1]) {
            (false, true) => parts.push(BitString::from(std::mem::take(&mut part))),
            (true, false) => return Err(DecodeError::InvalidPair { offset: 2 * i }),
            (b, _) => part.push(b),
        }
    }
    parts.push(BitString::from(part));
    Ok(parts)
}

/// Convenience: encodes a sequence of non-negative integers with
/// `concat(bin(x1), ..., bin(xk))`.
pub fn concat_uints(xs: &[u64]) -> BitString {
    let mut out = Vec::with_capacity(xs.len() * 16);
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.extend([false, true]);
        }
        // bin(x) most significant bit first, with bin(0) = "0".
        let top = 63 - (x | 1).leading_zeros();
        for k in (0..=top).rev() {
            let b = (x >> k) & 1 == 1;
            out.extend([b, b]);
        }
    }
    BitString::from(out)
}

/// Convenience: decodes a [`concat_uints`]-encoded string.
pub fn decode_uints(encoded: &BitString) -> Result<Vec<u64>, DecodeError> {
    let parts = decode(encoded)?;
    parts
        .iter()
        .map(|p| p.to_uint().ok_or(DecodeError::Truncated))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        // Concat((01), (00)) = (0011010000)
        let a = BitString::from_str01("01").unwrap();
        let b = BitString::from_str01("00").unwrap();
        let enc = concat(&[a.clone(), b.clone()]);
        assert_eq!(enc.to_string(), "0011010000");
        assert_eq!(decode(&enc).unwrap(), vec![a, b]);
    }

    #[test]
    fn roundtrip_various_sequences() {
        let cases: Vec<Vec<&str>> = vec![
            vec!["0"],
            vec!["1"],
            vec!["", "0"],
            vec!["0", ""],
            vec!["101", "0", "11", ""],
            vec!["1111111", "0000000"],
        ];
        for case in cases {
            let parts: Vec<BitString> = case
                .iter()
                .map(|s| BitString::from_str01(s).unwrap())
                .collect();
            let enc = concat(&parts);
            assert_eq!(decode(&enc).unwrap(), parts, "case {case:?}");
        }
    }

    #[test]
    fn empty_sequence_roundtrips_to_empty() {
        let enc = concat(&[]);
        assert!(enc.is_empty());
        assert_eq!(decode(&enc).unwrap(), Vec::<BitString>::new());
    }

    #[test]
    fn length_is_at_most_double_plus_separators() {
        let parts: Vec<BitString> = (0..10).map(BitString::from_uint).collect();
        let total: usize = parts.iter().map(BitString::len).sum();
        let enc = concat(&parts);
        assert_eq!(enc.len(), 2 * total + 2 * (parts.len() - 1));
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        let odd = BitString::from_str01("001").unwrap();
        assert_eq!(decode(&odd), Err(DecodeError::Truncated));
        let bad_pair = BitString::from_str01("0010").unwrap();
        assert_eq!(
            decode(&bad_pair),
            Err(DecodeError::InvalidPair { offset: 2 })
        );
    }

    #[test]
    fn nested_concat_roundtrips() {
        // Advice items are nested: Concat(bin(phi), Concat(...), Concat(...)).
        let inner1 = concat_uints(&[3, 7, 9]);
        let inner2 = concat_uints(&[100]);
        let outer = concat(&[BitString::from_uint(2), inner1.clone(), inner2.clone()]);
        let parts = decode(&outer).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].to_uint(), Some(2));
        assert_eq!(decode_uints(&parts[1]).unwrap(), vec![3, 7, 9]);
        assert_eq!(decode_uints(&parts[2]).unwrap(), vec![100]);
    }

    #[test]
    fn uint_sequence_roundtrip() {
        let xs = [0u64, 1, 2, 12345, u64::from(u32::MAX), u64::MAX];
        let enc = concat_uints(&xs);
        assert_eq!(decode_uints(&enc).unwrap(), xs.to_vec());
        // The direct writer is exactly Concat(bin(x1), ..., bin(xk)).
        let parts: Vec<BitString> = xs.iter().map(|&x| BitString::from_uint(x)).collect();
        assert_eq!(enc, concat(&parts));
        assert!(concat_uints(&[]).is_empty());
    }
}
