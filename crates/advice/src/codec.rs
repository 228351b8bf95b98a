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
//!
//! ## Word-level kernels
//!
//! Both directions run a [`BitString`] word at a time. Encoding spreads 32
//! source bits over the even positions of a word and ORs in a copy shifted
//! by one, so one store writes 64 doubled bits; a separator is one 2-bit
//! store. Decoding gathers the first and the second bits of a word's 32
//! pairs into two 32-bit masks: `first & !second` flags the invalid pairs
//! `10`, `!first & second` the separators (found with `trailing_zeros`),
//! and `first` holds the data bits themselves.

use crate::bitstring::{low_mask, uint_len, BitString, WORD};

/// The separator `01`, least significant bit first.
const SEPARATOR: u64 = 0b10;

/// Moves bit `i` of the low 32 bits of `x` to bit `2i`.
fn spread(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Moves bit `2i` of `x` to bit `i` (the inverse of [`spread`]).
fn gather(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0xFFFF_FFFF
}

/// The low 32 bits of `x`, every bit doubled.
fn doubled(x: u64) -> u64 {
    let s = spread(x);
    s | (s << 1)
}

/// Builds `Concat(A1, ..., Ak)` one part at a time; [`concat()`] and
/// [`concat_uints`] are this writer run over a slice.
#[derive(Debug, Clone, Default)]
pub struct ConcatWriter {
    out: BitString,
    parts: usize,
}

impl ConcatWriter {
    /// A writer with no parts yet.
    pub fn new() -> Self {
        ConcatWriter::default()
    }

    /// The separator, unless this is the first part.
    fn separate(&mut self) {
        if self.parts > 0 {
            self.out.push_word(SEPARATOR, 2);
        }
        self.parts += 1;
    }

    /// Appends the part `part`.
    pub fn part(&mut self, part: &BitString) {
        self.separate();
        let mut left = part.len();
        for &w in part.words() {
            for half in [w & 0xFFFF_FFFF, w >> 32] {
                let n = left.min(WORD / 2);
                self.out.push_word(doubled(half), 2 * n);
                left -= n;
            }
        }
    }

    /// Appends the part `bin(x)`.
    pub fn uint(&mut self, x: u64) {
        self.separate();
        let n = uint_len(x);
        let bits = x.reverse_bits() >> (WORD - n);
        let low = n.min(WORD / 2);
        self.out.push_word(doubled(bits), 2 * low);
        self.out.push_word(doubled(bits >> 32), 2 * (n - low));
    }

    /// The encoding of the parts appended so far.
    pub fn bits(&self) -> &BitString {
        &self.out
    }

    /// Forgets every part, keeping the allocation.
    pub fn clear(&mut self) {
        self.out.clear();
        self.parts = 0;
    }

    /// The finished encoding.
    pub fn finish(self) -> BitString {
        self.out
    }
}

/// Encodes a sequence of bit strings into one uniquely decodable bit string.
///
/// Every bit of every substring is doubled (`0 -> 00`, `1 -> 11`) and the
/// separator `01` is inserted **between** consecutive substrings.
/// `concat(&[])` is the empty string and `concat(&[x])` is just the doubled
/// `x`.
pub fn concat(parts: &[BitString]) -> BitString {
    let mut w = ConcatWriter::new();
    for part in parts {
        w.part(part);
    }
    w.finish()
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

/// What a decoding pass does with the pairs it reads, in order.
trait Sink {
    /// `n <= 32` data bits, the first in the least significant bit of
    /// `bits` (whose bits above `n` are zero).
    fn data(&mut self, bits: u64, n: usize);
    /// A separator: the current part ends.
    fn separator(&mut self);
}

/// Reads a [`concat()`]-encoded string a word at a time, reporting the
/// first malformed pair exactly where a pair-by-pair reading would.
fn scan(encoded: &BitString, sink: &mut impl Sink) -> Result<(), DecodeError> {
    let len = encoded.len();
    if len % 2 != 0 {
        return Err(DecodeError::Truncated);
    }
    for (k, &w) in encoded.words().iter().enumerate() {
        let pairs = ((len - k * WORD) / 2).min(WORD / 2);
        let valid = low_mask(pairs);
        let first = gather(w);
        let second = gather(w >> 1);
        let bad = first & !second & valid;
        if bad != 0 {
            let offset = k * WORD + 2 * bad.trailing_zeros() as usize;
            return Err(DecodeError::InvalidPair { offset });
        }
        let mut seps = !first & second & valid;
        let mut at = 0;
        while seps != 0 {
            let s = seps.trailing_zeros() as usize;
            sink.data((first >> at) & low_mask(s - at), s - at);
            sink.separator();
            at = s + 1;
            seps &= seps - 1;
        }
        sink.data((first >> at) & low_mask(pairs - at), pairs - at);
    }
    Ok(())
}

/// The parts of a decoding, each its own bit string.
#[derive(Default)]
struct Parts {
    done: Vec<BitString>,
    part: BitString,
}

impl Sink for Parts {
    fn data(&mut self, bits: u64, n: usize) {
        self.part.push_word(bits, n);
    }

    fn separator(&mut self) {
        self.done.push(std::mem::take(&mut self.part));
    }
}

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
    let mut parts = Parts::default();
    scan(encoded, &mut parts)?;
    parts.separator();
    Ok(parts.done)
}

/// Convenience: encodes a sequence of non-negative integers with
/// `concat(bin(x1), ..., bin(xk))`.
pub fn concat_uints(xs: &[u64]) -> BitString {
    let mut w = ConcatWriter::new();
    for &x in xs {
        w.uint(x);
    }
    w.finish()
}

/// The parts of a decoding read as integers, straight from the words.
#[derive(Default)]
struct Uints {
    done: Vec<u64>,
    /// The current part's bits so far, most significant first (only the
    /// last 64 are kept; `len` tells whether more were read).
    value: u64,
    len: usize,
    /// Whether some part was empty or longer than 64 bits.
    bad: bool,
}

impl Sink for Uints {
    fn data(&mut self, bits: u64, n: usize) {
        if n > 0 {
            self.value = (self.value << n) | (bits.reverse_bits() >> (WORD - n));
            self.len += n;
        }
    }

    fn separator(&mut self) {
        self.bad |= !(1..=WORD).contains(&self.len);
        self.done.push(self.value);
        (self.value, self.len) = (0, 0);
    }
}

/// Convenience: decodes a [`concat_uints`]-encoded string. Every part must
/// be a 1- to 64-bit integer ([`DecodeError::Truncated`] otherwise); a
/// malformed pair anywhere is reported first, as by [`decode`].
pub fn decode_uints(encoded: &BitString) -> Result<Vec<u64>, DecodeError> {
    if encoded.is_empty() {
        return Ok(Vec::new());
    }
    let mut uints = Uints::default();
    scan(encoded, &mut uints)?;
    uints.separator();
    if uints.bad {
        return Err(DecodeError::Truncated);
    }
    Ok(uints.done)
}

/// The bool-per-bit codec the word kernels replaced, kept as the oracle
/// they are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::DecodeError;

    /// `Concat` over bool vectors, one pair at a time.
    pub fn concat(parts: &[Vec<bool>]) -> Vec<bool> {
        let mut out = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                out.extend([false, true]);
            }
            for &b in part {
                out.extend([b, b]);
            }
        }
        out
    }

    /// `Decode` over a bool vector, one pair at a time.
    pub fn decode(bits: &[bool]) -> Result<Vec<Vec<bool>>, DecodeError> {
        if bits.is_empty() {
            return Ok(Vec::new());
        }
        if bits.len() % 2 != 0 {
            return Err(DecodeError::Truncated);
        }
        let mut parts = Vec::new();
        let mut part = Vec::new();
        for (i, pair) in bits.chunks_exact(2).enumerate() {
            match (pair[0], pair[1]) {
                (false, true) => parts.push(std::mem::take(&mut part)),
                (true, false) => return Err(DecodeError::InvalidPair { offset: 2 * i }),
                (b, _) => part.push(b),
            }
        }
        parts.push(part);
        Ok(parts)
    }

    /// `bin(x)`, most significant bit first.
    pub fn bin(x: u64) -> Vec<bool> {
        let top = 63 - (x | 1).leading_zeros();
        (0..=top).rev().map(|k| (x >> k) & 1 == 1).collect()
    }

    /// The integer a bool string spells, if it has 1 to 64 bits.
    pub fn to_uint(bits: &[bool]) -> Option<u64> {
        if bits.is_empty() || bits.len() > 64 {
            return None;
        }
        Some(bits.iter().fold(0, |x, &b| (x << 1) | u64::from(b)))
    }

    /// `concat(bin(x1), ..., bin(xk))`.
    pub fn concat_uints(xs: &[u64]) -> Vec<bool> {
        concat(&xs.iter().map(|&x| bin(x)).collect::<Vec<_>>())
    }

    /// `decode` followed by `to_uint` of every part.
    pub fn decode_uints(bits: &[bool]) -> Result<Vec<u64>, DecodeError> {
        decode(bits)?
            .iter()
            .map(|p| to_uint(p).ok_or(DecodeError::Truncated))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn bools(b: &BitString) -> Vec<bool> {
        b.iter().collect()
    }

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

    /// The part lengths around every word and half-word boundary.
    const LENGTHS: [usize; 11] = [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129];

    fn random_bits(rng: &mut StdRng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    /// Checks the word codec against the reference on one sequence of
    /// parts, returns the encoding.
    fn check_parts(parts: &[Vec<bool>]) -> BitString {
        let packed: Vec<BitString> = parts.iter().map(|p| BitString::from_bits(p)).collect();
        let enc = concat(&packed);
        assert_eq!(bools(&enc), reference::concat(parts));
        let dec: Vec<Vec<bool>> = decode(&enc).unwrap().iter().map(bools).collect();
        assert_eq!(Ok(dec), reference::decode(&bools(&enc)));
        enc
    }

    #[test]
    fn word_codec_matches_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut lengths: Vec<usize> = LENGTHS.to_vec();
        lengths.extend((0..40).map(|_| rng.gen_range(0..400usize)));
        for &a in &lengths {
            for &b in &LENGTHS {
                check_parts(&[random_bits(&mut rng, a)]);
                check_parts(&[random_bits(&mut rng, a), random_bits(&mut rng, b)]);
            }
        }
        // Nested three deep, like the advice: Concat(x, Concat(y, Concat(z…))).
        for round in 0..20 {
            let innermost: Vec<Vec<bool>> = (0..round % 5 + 1)
                .map(|_| {
                    let n = lengths[rng.gen_range(0..lengths.len())];
                    random_bits(&mut rng, n)
                })
                .collect();
            let inner = check_parts(&innermost);
            let middle = check_parts(&[random_bits(&mut rng, round), bools(&inner)]);
            let outer = check_parts(&[
                reference::bin(round as u64),
                bools(&middle),
                random_bits(&mut rng, 3 * round),
            ]);
            let parts = decode(&outer).unwrap();
            let middle_parts = decode(&parts[1]).unwrap();
            assert_eq!(middle_parts[1], inner);
        }
    }

    #[test]
    fn uint_codec_matches_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut xs: Vec<u64> = vec![0, 1, 2, (1 << 31) - 1, 1 << 31, 1 << 32, 1 << 63];
        xs.push(u64::MAX);
        xs.extend((0..200).map(|_| rng.next_u64() >> rng.gen_range(0..64u32)));
        for k in 0..xs.len() {
            let run = &xs[k..(k + 7).min(xs.len())];
            let enc = concat_uints(run);
            assert_eq!(bools(&enc), reference::concat_uints(run));
            assert_eq!(decode_uints(&enc), reference::decode_uints(&bools(&enc)));
            assert_eq!(decode_uints(&enc).unwrap(), run);
        }
        // Parts that are no integer: empty, or longer than 64 bits.
        for parts in [
            vec![vec![], vec![true]],
            vec![vec![true; 64], vec![false; 65]],
            vec![vec![false; 65]],
        ] {
            let enc = BitString::from_bits(&reference::concat(&parts));
            assert_eq!(decode_uints(&enc), Err(DecodeError::Truncated));
            assert_eq!(decode_uints(&enc), reference::decode_uints(&bools(&enc)));
        }
    }

    #[test]
    fn malformed_encodings_fail_like_the_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let parts: Vec<Vec<bool>> = [40, 70, 9, 100]
            .iter()
            .map(|&n| random_bits(&mut rng, n))
            .collect();
        let good = reference::concat(&parts);
        // Odd lengths, whatever the content.
        for cut in [1, 63, 65, good.len() - 1] {
            let odd = BitString::from_bits(&good[..cut]);
            assert_eq!(decode(&odd), Err(DecodeError::Truncated));
            assert_eq!(decode_uints(&odd), Err(DecodeError::Truncated));
        }
        // A `10` pair in the first word, a middle word and the last partial
        // word, plus a second bad pair later that must not be the one
        // reported.
        let last = good.len() - 2;
        assert!(good.len() % 64 != 0, "the last word is partial");
        for offset in [0, 10, 62, 64, 200, 320, last] {
            let mut bad = good.clone();
            bad[offset] = true;
            bad[offset + 1] = false;
            if offset + 10 < last {
                bad[last] = true;
                bad[last + 1] = false;
            }
            let packed = BitString::from_bits(&bad);
            let expected = Some(DecodeError::InvalidPair { offset });
            assert_eq!(decode(&packed).err(), expected);
            assert_eq!(reference::decode(&bad).err(), expected);
            assert_eq!(decode_uints(&packed).err(), expected);
            assert_eq!(reference::decode_uints(&bad).err(), expected);
        }
    }

    #[test]
    fn bin_matches_the_reference_at_the_extremes() {
        for x in [0u64, 1, 1 << 63, u64::MAX] {
            let b = BitString::from_uint(x);
            assert_eq!(bools(&b), reference::bin(x));
            assert_eq!(b.to_uint(), Some(x));
        }
        let mut rng = StdRng::seed_from_u64(3);
        for n in [64, 65] {
            let bits = random_bits(&mut rng, n);
            let b = BitString::from_bits(&bits);
            assert_eq!(b.to_uint(), reference::to_uint(&bits), "{n} bits");
        }
        let ones = BitString::from_bits(&[true; 64]);
        assert_eq!(ones.to_uint(), Some(u64::MAX));
    }

    #[test]
    fn lex_cmp_matches_the_bool_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut strings: Vec<Vec<bool>> = Vec::new();
        for &n in &LENGTHS {
            let s = random_bits(&mut rng, n);
            // Proper prefixes, and a copy differing in one late bit.
            strings.extend([0, n / 2, n.saturating_sub(1)].map(|k| s[..k].to_vec()));
            let mut flipped = s.clone();
            if let Some(b) = flipped.last_mut() {
                *b = !*b;
            }
            strings.push(flipped);
            strings.push(s);
        }
        for a in &strings {
            for b in &strings {
                let (pa, pb) = (BitString::from_bits(a), BitString::from_bits(b));
                assert_eq!(pa.lex_cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn equal_strings_built_differently_are_equal_and_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut rng = StdRng::seed_from_u64(9);
        let bits = random_bits(&mut rng, 150);
        let whole = BitString::from_bits(&bits);
        let hash = |b: &BitString| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        for cuts in [
            vec![1, 63, 64],
            vec![32, 100],
            vec![149],
            vec![0, 75, 76, 140],
        ] {
            let mut built = BitString::new();
            let mut at = 0;
            for (i, &cut) in cuts.iter().chain([bits.len()].iter()).enumerate() {
                if i % 2 == 0 {
                    built.extend(&BitString::from_bits(&bits[at..cut]));
                } else {
                    for &b in &bits[at..cut] {
                        built.push(b);
                    }
                }
                at = cut;
            }
            assert_eq!(built, whole, "cuts {cuts:?}");
            assert_eq!(hash(&built), hash(&whole));
        }
        // Clearing a writer's buffer leaves no stale high bits behind.
        let mut w = ConcatWriter::new();
        w.part(&whole);
        w.clear();
        w.uint(5);
        assert_eq!(w.bits(), &concat_uints(&[5]));
    }
}
