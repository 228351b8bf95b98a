//! Binary strings and the `bin(x)` integer code.
//!
//! A [`BitString`] packs its bits 64 to a `u64` word: bit `i` of the string
//! is bit `i % 64` (counted from the least significant end) of word
//! `i / 64`. Every bit past the length is zero, so two strings are equal
//! exactly when their lengths and words are, and the derived `Eq` and `Hash`
//! are exact. The codec ([`crate::codec`]) reads and writes whole words.

use std::fmt;

/// Bits per storage word.
pub(crate) const WORD: usize = 64;

/// The low `n` bits set, for `n <= 64`.
pub(crate) fn low_mask(n: usize) -> u64 {
    if n >= WORD {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// An ordered sequence of bits.
///
/// This is the currency of the advice framework: every piece of advice is a
/// `BitString`, and its [`len`](BitString::len) is the "size of advice" the
/// paper's theorems bound.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    /// The bits, 64 per word, least significant first; exactly
    /// `len.div_ceil(64)` words, zero past `len`.
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// The empty bit string.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Builds a bit string from a slice of booleans.
    pub fn from_bits(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }

    /// Builds a bit string from an ASCII string of `'0'`/`'1'` characters.
    ///
    /// Returns `None` if any other character is present.
    pub fn from_str01(s: &str) -> Option<Self> {
        let mut out = BitString::new();
        for c in s.chars() {
            match c {
                '0' => out.push(false),
                '1' => out.push(true),
                _ => return None,
            }
        }
        Some(out)
    }

    /// The binary representation `bin(x)` of a non-negative integer: most
    /// significant bit first, with `bin(0) = "0"`.
    pub fn from_uint(x: u64) -> Self {
        let mut out = BitString::new();
        out.push_uint(x);
        out
    }

    /// Interprets the bit string (MSB first) as an unsigned integer.
    ///
    /// Returns `None` if the string is empty or longer than 64 bits.
    pub fn to_uint(&self) -> Option<u64> {
        match (self.len, self.words.first()) {
            (1..=WORD, Some(&w)) => Some(w.reverse_bits() >> (WORD - self.len)),
            _ => None,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th bit (0-based), if present.
    pub fn bit(&self, i: usize) -> Option<bool> {
        (i < self.len).then(|| (self.words[i / WORD] >> (i % WORD)) & 1 == 1)
    }

    /// The bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| (self.words[i / WORD] >> (i % WORD)) & 1 == 1)
    }

    /// Appends one bit.
    pub fn push(&mut self, b: bool) {
        self.push_word(u64::from(b), 1);
    }

    /// Appends all bits of `other`.
    pub fn extend(&mut self, other: &BitString) {
        let mut left = other.len;
        for &w in &other.words {
            let n = left.min(WORD);
            self.push_word(w, n);
            left -= n;
        }
    }

    /// The first position at or after `from`, below both lengths, where
    /// `self` and `other` differ; `None` if they agree on that whole range.
    pub fn first_difference(&self, other: &BitString, from: usize) -> Option<usize> {
        let end = self.len.min(other.len);
        let mut i = from;
        while i < end {
            let (k, off) = (i / WORD, i % WORD);
            let diff = (self.words[k] ^ other.words[k]) >> off;
            if diff != 0 {
                let j = i + diff.trailing_zeros() as usize;
                return (j < end).then_some(j);
            }
            i = (k + 1) * WORD;
        }
        None
    }

    /// Lexicographic comparison as used for binary representations in the
    /// paper: shorter strings that are prefixes of longer ones compare
    /// smaller; otherwise the first differing bit decides.
    pub fn lex_cmp(&self, other: &BitString) -> std::cmp::Ordering {
        match self.first_difference(other, 0) {
            Some(j) => self.bit(j).cmp(&other.bit(j)),
            None => self.len.cmp(&other.len),
        }
    }

    /// The storage words (zero past the length).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Removes every bit, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends the low `n <= 64` bits of `value`, least significant first;
    /// the bits of `value` above `n` must be zero.
    pub(crate) fn push_word(&mut self, value: u64, n: usize) {
        debug_assert!(n <= WORD && value & !low_mask(n) == 0);
        if n == 0 {
            return;
        }
        let off = self.len % WORD;
        match self.words.last_mut() {
            Some(last) if off != 0 => {
                *last |= value << off;
                if off + n > WORD {
                    self.words.push(value >> (WORD - off));
                }
            }
            _ => self.words.push(value),
        }
        self.len += n;
    }

    /// Appends `bin(x)`, most significant bit first.
    pub(crate) fn push_uint(&mut self, x: u64) {
        let n = uint_len(x);
        self.push_word(x.reverse_bits() >> (WORD - n), n);
    }
}

/// The length of `bin(x)`: 1 for 0, else the position of the top set bit
/// plus one.
pub(crate) fn uint_len(x: u64) -> usize {
    WORD - (x | 1).leading_zeros() as usize
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl From<Vec<bool>> for BitString {
    fn from(bits: Vec<bool>) -> Self {
        BitString::from_bits(&bits)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut out = BitString::new();
        for b in iter {
            out.push(b);
        }
        out
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

    #[test]
    fn first_difference_starts_at_the_given_bit() {
        let a = BitString::from_str01(&"0".repeat(130)).unwrap();
        let mut b = a.clone();
        b = b
            .iter()
            .enumerate()
            .map(|(i, x)| x ^ (i == 3 || i == 100))
            .collect();
        assert_eq!(a.first_difference(&b, 0), Some(3));
        assert_eq!(a.first_difference(&b, 4), Some(100));
        assert_eq!(a.first_difference(&b, 101), None);
        // Only the common prefix counts.
        let short = BitString::from_str01(&"0".repeat(100)).unwrap();
        assert_eq!(short.first_difference(&b, 4), None);
    }
}
