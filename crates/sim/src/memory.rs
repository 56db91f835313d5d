use revel_isa::Word;

/// A scratchpad: a flat array of 64-bit words with bounds-checked access.
///
/// REVEL has one private scratchpad per lane (8 KB) and one shared
/// scratchpad (128 KB) that doubles as the external memory interface.
/// Bandwidth limits are enforced by the stream engines, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scratchpad {
    words: Vec<Word>,
}

impl Scratchpad {
    /// A zero-initialized scratchpad of `words` 64-bit words.
    pub fn new(words: usize) -> Self {
        Scratchpad { words: vec![0; words] }
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the scratchpad has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads one word.
    ///
    /// # Panics
    /// Panics if `addr` is out of bounds (a stream walked off the
    /// scratchpad — a program bug worth failing loudly on).
    pub fn read(&self, addr: i64) -> Word {
        assert!(
            addr >= 0 && (addr as usize) < self.words.len(),
            "scratchpad read out of bounds: {addr} (size {})",
            self.words.len()
        );
        self.words[addr as usize]
    }

    /// Writes one word.
    ///
    /// # Panics
    /// Panics if `addr` is out of bounds.
    pub fn write(&mut self, addr: i64, value: Word) {
        assert!(
            addr >= 0 && (addr as usize) < self.words.len(),
            "scratchpad write out of bounds: {addr} (size {})",
            self.words.len()
        );
        self.words[addr as usize] = value;
    }

    /// True if `addr` names a valid word.
    pub fn in_bounds(&self, addr: i64) -> bool {
        addr >= 0 && (addr as usize) < self.words.len()
    }

    /// Reads an `f64` stored at `addr`.
    pub fn read_f64(&self, addr: i64) -> f64 {
        f64::from_bits(self.read(addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: i64, value: f64) {
        self.write(addr, value.to_bits());
    }

    /// Bulk-writes a slice of `f64` starting at `addr`.
    ///
    /// # Panics
    /// Panics if the slice does not fit.
    pub fn write_f64_slice(&mut self, addr: i64, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f64(addr + i as i64, *v);
        }
    }

    /// Bulk-reads `len` `f64`s starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_f64_slice(&self, addr: i64, len: usize) -> Vec<f64> {
        (0..len).map(|i| self.read_f64(addr + i as i64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut s = Scratchpad::new(16);
        s.write_f64(3, 2.5);
        assert_eq!(s.read_f64(3), 2.5);
        s.write(0, 42);
        assert_eq!(s.read(0), 42);
        assert_eq!(s.len(), 16);
        assert!(!s.is_empty());
    }

    #[test]
    fn slices() {
        let mut s = Scratchpad::new(8);
        s.write_f64_slice(2, &[1.0, 2.0, 3.0]);
        assert_eq!(s.read_f64_slice(2, 3), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn checked_access_never_panics() {
        let s = Scratchpad::new(4);
        assert!(s.in_bounds(0) && s.in_bounds(3));
        assert!(!s.in_bounds(-1) && !s.in_bounds(4) && !s.in_bounds(i64::MIN));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let s = Scratchpad::new(4);
        let _ = s.read(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn negative_write_panics() {
        let mut s = Scratchpad::new(4);
        s.write(-1, 0);
    }
}
