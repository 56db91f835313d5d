//! Structural identity: the one key every per-program memo in the process
//! hangs on (the lint verdict memo in `revel-verify`, the spatial-schedule
//! cache in `revel-sim`). It lives here because `revel-prog` is the lowest
//! crate that sees both a [`RevelProgram`](crate::RevelProgram) and a
//! `RevelConfig`.

use std::hash::{Hash, Hasher};

/// The structural identity of a program, a machine configuration, or any
/// tuple of their parts: one 128-bit value computed from content through
/// the types' [`Hash`] impls, in one pass, without `fmt`, a `String` or an
/// allocation. See [`structural_id`].
///
/// **What it covers.** Everything `Hash` reaches: every control step,
/// region, DFG node, pattern, rate, lane mask and scale, every
/// configuration field, names included; `f64`s by bit pattern (so it is
/// finer than `==`: `0.0` ≠ `-0.0`, NaN payloads differ). **What it leaves
/// out:** a host op's closure (see [`HostOp`](crate::HostOp)).
///
/// **Recomputed, never cached.** An id is a function of the value's content
/// at the moment of the call. Nothing stores it on the object, so mutating
/// or cloning a program can never carry a stale id — and with it a stale
/// lint verdict — past the simulator's gate. Recomputing costs about half a
/// millisecond on the largest kernel of the evaluation grid (svd n=32,
/// 12 899 control steps, a 30 ms simulation) and microseconds elsewhere.
///
/// **Process-local.** The value depends on this build's `Hash` impls and
/// the host's `usize` width and byte order; it is a key for in-memory maps
/// and must never be written to disk or sent over the wire. Persisted
/// records are named by `revel_core::engine::key_fingerprint`, a different
/// thing: a process-independent FNV-1a over a rendered `(Bench, BuildCfg)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructuralId(u128);

/// The [`StructuralId`] of `value`.
///
/// Two values with different ids differ in content; two values with one
/// id are taken to be equal (a 128-bit mix over non-adversarial,
/// in-process inputs: programs come from this repository's builders, not
/// from the wire).
pub fn structural_id<T: Hash + ?Sized>(value: &T) -> StructuralId {
    let mut mixer = Mixer::new();
    value.hash(&mut mixer);
    mixer.id()
}

/// First 128 bits of π's fraction: an arbitrary, fixed starting state.
const SEED: u128 = 0x243F_6A88_85A3_08D3_1319_8A2E_0370_7344;
/// A dense odd 128-bit multiplier (the 128-bit LCG constant of PCG).
const MULTIPLIER: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// Word-at-a-time multiply–xorshift over one 128-bit state. Each step is a
/// bijection of the state for a fixed word and injective in the word for a
/// fixed state, so two inputs that differ in exactly one word never share
/// an id.
#[derive(Clone, Copy)]
struct Mixer {
    state: u128,
    words: u64,
}

impl Mixer {
    fn new() -> Self {
        Mixer { state: SEED, words: 0 }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let s = (self.state ^ u128::from(w)).wrapping_mul(MULTIPLIER);
        self.state = s ^ (s >> 64);
        self.words += 1;
    }

    /// Folds in the word count and runs two more rounds, so the last
    /// words written reach every bit.
    fn id(mut self) -> StructuralId {
        self.word(self.words);
        self.word(0);
        StructuralId(self.state)
    }
}

impl Hasher for Mixer {
    /// Byte strings (names, integer slices): whole little-endian words,
    /// then the remainder in one word tagged with its length, so `"ab"`
    /// and `"ab\0"` differ.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            tail[7] = rest.len() as u8;
            self.word(u64::from_le_bytes(tail));
        }
    }

    // One word per scalar of the widths the program types hold; the signed
    // and `isize` writers forward here, any other width goes through `write`.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn finish(&self) -> u64 {
        self.id().0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_has_one_id_and_any_change_another() {
        let a = ("svd", vec![1u64, 2, 3], 7u8);
        assert_eq!(structural_id(&a), structural_id(&a.clone()));
        for b in [
            ("svd", vec![1u64, 2, 4], 7u8),
            ("svd", vec![1u64, 2], 7u8),
            ("svd", vec![1u64, 2, 3], 8u8),
            ("sve", vec![1u64, 2, 3], 7u8),
        ] {
            assert_ne!(structural_id(&a), structural_id(&b), "{b:?}");
        }
    }

    #[test]
    fn byte_strings_are_length_tagged() {
        // A short tail is padded to a word; its length is part of it.
        assert_ne!(structural_id("ab"), structural_id("ab\0"));
        assert_ne!(structural_id("12345678"), structural_id("12345678\0"));
        assert_ne!(structural_id(""), structural_id("\0"));
        // Element boundaries survive: the split of the same bytes matters.
        assert_ne!(structural_id(&("ab", "c")), structural_id(&("a", "bc")));
        assert_ne!(structural_id(&[1u64, 2][..]), structural_id(&[1u64, 2, 0][..]));
    }

    #[test]
    fn scalars_of_different_widths_and_order_mix_differently() {
        assert_ne!(structural_id(&(1u64, 2u64)), structural_id(&(2u64, 1u64)));
        assert_ne!(structural_id(&0u64), structural_id(&(0u64, 0u64)));
        assert_ne!(structural_id(&u128::MAX), structural_id(&u64::MAX));
        assert_ne!(structural_id(&-1i64), structural_id(&1i64));
    }

    #[test]
    fn single_word_differences_never_collide() {
        // Each step is injective in its word: sweep the low bits and the
        // high bits of the last word, where a weak finish would show first.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            assert!(seen.insert(structural_id(&(9u64, i))));
            assert!(seen.insert(structural_id(&(9u64, (i + 1) << 51))));
        }
    }
}
