//! Binary strings and the `bin(x)` integer code.

use std::fmt;

/// An ordered sequence of bits.
///
/// This is the currency of the advice framework: every piece of advice is a
/// `BitString`, and its [`len`](BitString::len) is the "size of advice" the
/// paper's theorems bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// The empty bit string.
    pub fn new() -> Self {
        BitString { bits: Vec::new() }
    }

    /// Builds a bit string from a slice of booleans.
    pub fn from_bits(bits: &[bool]) -> Self {
        BitString {
            bits: bits.to_vec(),
        }
    }

    /// Builds a bit string from an ASCII string of `'0'`/`'1'` characters.
    ///
    /// Returns `None` if any other character is present.
    pub fn from_str01(s: &str) -> Option<Self> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => return None,
            }
        }
        Some(BitString { bits })
    }

    /// The binary representation `bin(x)` of a non-negative integer: most
    /// significant bit first, with `bin(0) = "0"`.
    pub fn from_uint(x: u64) -> Self {
        if x == 0 {
            return BitString { bits: vec![false] };
        }
        let mut bits = Vec::new();
        let top = 63 - x.leading_zeros() as usize;
        for i in (0..=top).rev() {
            bits.push((x >> i) & 1 == 1);
        }
        BitString { bits }
    }

    /// Interprets the bit string (MSB first) as an unsigned integer.
    ///
    /// Returns `None` if the string is empty or longer than 64 bits.
    pub fn to_uint(&self) -> Option<u64> {
        if self.bits.is_empty() || self.bits.len() > 64 {
            return None;
        }
        let mut x = 0u64;
        for &b in &self.bits {
            x = (x << 1) | (b as u64);
        }
        Some(x)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the string has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The `i`-th bit (0-based), if present.
    pub fn bit(&self, i: usize) -> Option<bool> {
        self.bits.get(i).copied()
    }

    /// Appends one bit.
    pub fn push(&mut self, b: bool) {
        self.bits.push(b);
    }

    /// Appends all bits of `other`.
    pub fn extend(&mut self, other: &BitString) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// The underlying bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Lexicographic comparison as used for binary representations in the
    /// paper: shorter strings that are prefixes of longer ones compare
    /// smaller; otherwise the first differing bit decides.
    pub fn lex_cmp(&self, other: &BitString) -> std::cmp::Ordering {
        self.bits.cmp(&other.bits)
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<Vec<bool>> for BitString {
    fn from(bits: Vec<bool>) -> Self {
        BitString { bits }
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        BitString {
            bits: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_roundtrip() {
        for x in [0u64, 1, 2, 3, 7, 8, 100, 255, 256, 1 << 40, u64::MAX] {
            let b = BitString::from_uint(x);
            assert_eq!(b.to_uint(), Some(x), "roundtrip of {x}");
        }
    }

    #[test]
    fn bin_zero_is_single_zero_bit() {
        let b = BitString::from_uint(0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_string(), "0");
    }

    #[test]
    fn bin_has_no_leading_zero_for_positive() {
        for x in 1..200u64 {
            let b = BitString::from_uint(x);
            assert_eq!(b.bit(0), Some(true));
            assert_eq!(b.len() as u32, 64 - x.leading_zeros());
        }
    }

    #[test]
    fn from_str01_parses_and_rejects() {
        let b = BitString::from_str01("0011010000").unwrap();
        assert_eq!(b.len(), 10);
        assert_eq!(b.to_string(), "0011010000");
        assert!(BitString::from_str01("01x").is_none());
    }

    #[test]
    fn to_uint_rejects_empty_and_too_long() {
        assert_eq!(BitString::new().to_uint(), None);
        let long: BitString = std::iter::repeat(true).take(65).collect();
        assert_eq!(long.to_uint(), None);
    }

    #[test]
    fn push_extend_and_bit_access() {
        let mut b = BitString::new();
        b.push(true);
        b.push(false);
        let mut c = BitString::from_bits(&[true]);
        c.extend(&b);
        assert_eq!(c.to_string(), "110");
        assert_eq!(c.bit(2), Some(false));
        assert_eq!(c.bit(3), None);
    }

    #[test]
    fn lex_cmp_orders_prefixes_first() {
        let a = BitString::from_str01("01").unwrap();
        let b = BitString::from_str01("010").unwrap();
        let c = BitString::from_str01("1").unwrap();
        assert!(a.lex_cmp(&b).is_lt());
        assert!(b.lex_cmp(&c).is_lt());
        assert!(a.lex_cmp(&a).is_eq());
    }

    #[test]
    fn display_matches_bits() {
        let b = BitString::from_uint(10);
        assert_eq!(b.to_string(), "1010");
    }
}
