//! The binary tag codec: counters as canonical LEB128, then one check
//! byte.
//!
//! A tag of `k` counters is `k` unsigned LEB128 varints (seven bits per
//! byte, low group first, the high bit set on every byte but a varint's
//! last) followed by the wrapping sum of every byte before it. The sum
//! changes by `±2^b mod 256 ≠ 0` under a flip of bit `b` of any earlier
//! byte, so every single-bit flip — all the fault layer does to a user
//! tag or a control frame — is caught before a counter is read.
//!
//! Decoding is strict, so the codec is injective: a varint with a
//! redundant high zero group, one beyond `u64`, a count other than the
//! caller's, a bad check byte or a trailing byte is refused, and any
//! accepted tag re-encodes to exactly its own bytes. The explorer
//! interns tags by value, which is what keeps its state counts exact.
//!
//! The codec carries no magic byte and no type: the caller fixes the
//! count. `causal-rst` tags are `n²` counters; every control frame is
//! one tag whose first counter, its kind, fixes how many follow
//! ([`crate::link`]).

/// The longest varint of a `u64`: ten groups, the last holding bit 63.
const MAX_VARINT_LEN: usize = 10;

/// Bytes `v` takes as a varint: `⌈bits / 7⌉`, which is
/// `⌊(9·bits + 64) / 64⌋` for `bits ∈ 1..=64`, without a division.
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    (9 * bits + 64) >> 6
}

fn checksum(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0u8, |sum, &b| sum.wrapping_add(b))
}

/// Encodes `counters` into a buffer of exactly the tag's size.
pub fn encode(counters: &[u64]) -> Vec<u8> {
    // Until a counter reaches 128 each takes one byte, which one OR over
    // all of them tells without a length per counter.
    let len = if counters.iter().fold(0, |all, &v| all | v) < 0x80 {
        counters.len()
    } else {
        counters.iter().map(|&v| varint_len(v)).sum()
    };
    let mut out = Vec::with_capacity(len + 1);
    for &v in counters {
        let mut v = v;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out.push(checksum(&out));
    out
}

/// Decodes a tag of exactly `count` counters and appends them to `out`.
/// `None` for anything [`encode`] cannot have produced with `count`
/// counters, in which case `out` is left as it was.
pub fn decode_into(bytes: &[u8], count: usize, out: &mut Vec<u64>) -> Option<()> {
    let mark = out.len();
    let decoded = checked_body(bytes).and_then(|body| {
        // Once, not by doubling: a cloned `out` has exact capacity. Every
        // counter takes at least a byte, so a bad `count` reserves no more.
        out.reserve(count.min(body.len()));
        read_counters(body, count, |_, v| out.push(v))
    });
    if decoded.is_none() {
        out.truncate(mark);
    }
    decoded
}

/// Decodes a tag of exactly `N` counters. `None` for anything
/// [`encode`] cannot have produced with `N` counters.
pub fn decode_array<const N: usize>(bytes: &[u8]) -> Option<[u64; N]> {
    let body = checked_body(bytes)?;
    let mut out = [0; N];
    read_counters(body, N, |i, v| out[i] = v)?;
    Some(out)
}

/// The bytes before the check byte, if the check byte is right.
fn checked_body(bytes: &[u8]) -> Option<&[u8]> {
    let (&check, body) = bytes.split_last()?;
    (checksum(body) == check).then_some(body)
}

/// Reads exactly `count` counters that fill `body`, handing each to
/// `put` with its index.
fn read_counters(body: &[u8], count: usize, mut put: impl FnMut(usize, u64)) -> Option<()> {
    let mut at = 0;
    for i in 0..count {
        // A byte below 0x80 is a whole varint, canonical as it stands.
        let b = *body.get(at)?;
        let v = if b < 0x80 {
            at += 1;
            u64::from(b)
        } else {
            let (v, used) = read_varint(&body[at..])?;
            at += used;
            v
        };
        put(i, v);
    }
    (at == body.len()).then_some(())
}

/// The canonical varint at the start of `bytes` and its length.
fn read_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0;
    for (i, &b) in bytes.iter().take(MAX_VARINT_LEN).enumerate() {
        // The tenth group holds bit 63 alone, and ends the varint.
        if i == MAX_VARINT_LEN - 1 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            // A zero last group past the first is a redundant one.
            return (i == 0 || b != 0).then_some((v, i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Counters at every varint-length boundary up to three bytes, and
    /// both ends of the ten-byte range.
    const COUNTERS: [u64; 8] = [0, 127, 128, 16_383, 16_384, 1 << 63, u64::MAX - 1, u64::MAX];

    /// Row-major `n × n` matrices over [`COUNTERS`], `n ∈ 1..=8`: every
    /// counter in every cell at least once, at several mixes.
    fn matrices() -> Vec<(usize, Vec<u64>)> {
        let mut out = Vec::new();
        for n in 1..=8 {
            for stride in [0, 1, 3] {
                for offset in 0..COUNTERS.len() {
                    let m = (0..n * n)
                        .map(|i| COUNTERS[(i * stride + offset) % COUNTERS.len()])
                        .collect();
                    out.push((n, m));
                }
            }
        }
        out
    }

    /// The decoder the way a protocol drives it: onto the end of an
    /// arena that already holds something.
    fn decode(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
        let mut arena = vec![7, 7, 7];
        let ok = decode_into(bytes, count, &mut arena).is_some();
        assert!(
            ok || arena.len() == 3,
            "a refused tag leaves nothing behind"
        );
        assert_eq!(arena[..3], [7, 7, 7], "earlier counters untouched");
        ok.then(|| arena.split_off(3))
    }

    #[test]
    fn decode_inverts_encode() {
        for (n, m) in matrices() {
            let tag = encode(&m);
            assert_eq!(tag.len(), tag.capacity(), "sized exactly, n = {n}");
            assert_eq!(decode(&tag, n * n), Some(m), "n = {n}");
        }
        assert_eq!(
            encode(&[0, 127, 128, 300]),
            [0, 127, 0x80, 1, 0xac, 2, 0xae]
        );
        assert_eq!(
            decode_array(&encode(&[0, 127, 128, u64::MAX])),
            Some([0, 127, 128, u64::MAX])
        );
        assert_eq!(encode(&[u64::MAX]).len(), MAX_VARINT_LEN + 1);
        for bits in 1..=64usize {
            let v = u64::MAX >> (64 - bits);
            assert_eq!(varint_len(v), bits.div_ceil(7), "{bits} bits");
            assert_eq!(varint_len(1 << (bits - 1)), bits.div_ceil(7), "{bits} bits");
        }
        assert_eq!(encode(&[]), [0]);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for (n, m) in matrices() {
            let clean = encode(&m);
            for bit in 0..clean.len() * 8 {
                let mut dirty = clean.clone();
                dirty[bit / 8] ^= 1 << (bit % 8);
                for count in [n * n, (n - 1) * (n - 1), (n + 1) * (n + 1)] {
                    assert_eq!(
                        decode(&dirty, count),
                        None,
                        "n = {n}, bit {bit}, count {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_tag_for_another_count_is_rejected() {
        for (n, m) in matrices() {
            let tag = encode(&m);
            for other in (1..=9).filter(|&other| other != n) {
                assert_eq!(decode(&tag, other * other), None, "n = {n} read as {other}");
            }
        }
    }

    #[test]
    fn hand_written_bad_tags_are_rejected() {
        // Each one carries a correct check byte: only its body is wrong.
        let with_check = |body: &[u8]| [body, &[checksum(body)]].concat();
        let ten = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2];
        for (body, count, what) in [
            (&[][..], 1, "no counter"),
            (&[5, 6][..], 1, "a trailing byte"),
            (&[0x80][..], 1, "a varint that never ends"),
            (&[0x80, 0][..], 1, "zero in two bytes"),
            (&[0x81, 0x80, 0][..], 1, "a redundant zero group"),
            (&[0xff; 9][..], 1, "nine groups, unfinished"),
            (&ten[..], 1, "bit 64 set"),
            (&[0x80; 10][..], 1, "a tenth group with more to come"),
            (&[1, 2, 3][..], 4, "three counters of four"),
        ] {
            assert_eq!(decode(&with_check(body), count), None, "{what}");
        }
        assert_eq!(decode(&[], 0), None, "not even a check byte");
        assert_eq!(decode(&[1, 2], 1), None, "wrong check byte");
        assert_eq!(decode(&[0], 0), Some(vec![]));
        for (bytes, what) in [
            (with_check(&[5, 6, 7]), "a trailing byte"),
            (with_check(&[5]), "one counter of two"),
            (vec![5, 6, 0], "wrong check byte"),
        ] {
            assert_eq!(decode_array::<2>(&bytes), None, "{what}");
        }
        assert_eq!(decode_array(&with_check(&[5, 6])), Some([5, 6]));
    }

    /// Bytes that look like a tag: an encoding truncated, extended, or
    /// with a few bytes overwritten, its check byte then optionally
    /// repaired so the body's structure is what gets tested.
    fn near_tags() -> impl Strategy<Value = (usize, Vec<u8>)> {
        (
            1usize..=8,
            collection::vec(0usize..COUNTERS.len(), 64),
            collection::vec((0usize..10_000, any::<u8>()), 0..4),
            0usize..3,
            any::<bool>(),
        )
            .prop_map(|(n, cells, edits, cut, repair)| {
                let m: Vec<u64> = cells[..n * n].iter().map(|&c| COUNTERS[c]).collect();
                let mut tag = encode(&m);
                tag.pop();
                for (at, with) in edits {
                    let at = at % tag.len();
                    tag[at] = with;
                }
                match cut {
                    0 => {}
                    1 => tag.truncate(tag.len() / 2),
                    _ => tag.extend_from_slice(&[0x80, 1]),
                }
                let check = checksum(&tag);
                tag.push(if repair { check } else { check ^ 1 });
                (n, tag)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the bytes and the count, the decoder returns, and
        /// what it accepts is exactly one encoding.
        #[test]
        fn decoder_never_panics_on_arbitrary_bytes(
            junk in collection::vec(any::<u8>(), 0..200),
            count in 0usize..70,
        ) {
            if let Some(m) = decode(&junk, count) {
                prop_assert_eq!(encode(&m), junk);
            }
        }

        #[test]
        fn accepted_bytes_re_encode_to_themselves((n, bytes) in near_tags()) {
            for count in [n * n - 1, n * n, n * n + 1] {
                if let Some(m) = decode(&bytes, count) {
                    prop_assert_eq!(encode(&m), bytes.clone());
                }
            }
        }
    }
}
