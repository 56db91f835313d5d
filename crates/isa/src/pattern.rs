use crate::IsaError;

/// A two-level affine access pattern with an inductive *stretch* term.
///
/// The pattern visits, in order,
///
/// ```text
/// for j in 0..len_j {
///     for i in 0..max(len_i + stretch * j, 0) {
///         yield start + j * stride_j + i * stride_i
///     }
/// }
/// ```
///
/// All quantities are in **64-bit word units**. With `stretch == 0` this is
/// the classic rectangular 2-D stream of stream-dataflow; a non-zero
/// `stretch` makes the inner trip count a linear function of the outer
/// induction variable, which is the paper's *inductive memory stream*
/// (notation `j^n_0  a[j, 0:ni - j*s]`, Fig. 10(b)).
///
/// A one-dimensional stream is a pattern with `len_j == 1`.
///
/// ```
/// use revel_isa::AffinePattern;
/// // Row-major upper triangle of an 4x4 matrix: a[j, j..4]
/// let p = AffinePattern::two_d(0, 1, 5, 4, 4, -1);
/// let offs: Vec<i64> = p.iter().map(|e| e.offset).collect();
/// assert_eq!(offs, [0,1,2,3, 5,6,7, 10,11, 15]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffinePattern {
    /// Starting word offset.
    pub start: i64,
    /// Inner-dimension stride (words per `i` step).
    pub stride_i: i64,
    /// Outer-dimension stride (words per `j` step).
    pub stride_j: i64,
    /// Inner trip count at `j = 0`.
    pub len_i: i64,
    /// Outer trip count.
    pub len_j: i64,
    /// Change of the inner trip count per outer iteration (`s_ji` in the
    /// paper). Zero for rectangular patterns, typically `-1` for triangular.
    pub stretch: i64,
}

/// One element produced by a [`PatternIter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternElem {
    /// Word offset of this element.
    pub offset: i64,
    /// Outer iteration index.
    pub j: i64,
    /// Inner iteration index.
    pub i: i64,
    /// True when this element is the last of its inner row; the port uses
    /// this to trigger stream predication padding.
    pub last_in_row: bool,
}

impl AffinePattern {
    /// A contiguous 1-D stream of `len` words starting at `start`.
    pub fn linear(start: i64, len: i64) -> Self {
        AffinePattern { start, stride_i: 1, stride_j: 0, len_i: len, len_j: 1, stretch: 0 }
    }

    /// A strided 1-D stream: `len` words, `stride` words apart.
    pub fn strided(start: i64, stride: i64, len: i64) -> Self {
        AffinePattern { start, stride_i: stride, stride_j: 0, len_i: len, len_j: 1, stretch: 0 }
    }

    /// A full 2-D pattern. See the type docs for the iteration order.
    pub fn two_d(
        start: i64,
        stride_i: i64,
        stride_j: i64,
        len_i: i64,
        len_j: i64,
        stretch: i64,
    ) -> Self {
        AffinePattern { start, stride_i, stride_j, len_i, len_j, stretch }
    }

    /// A single-element stream (useful for scalar pivots like `a[k,k]`).
    pub fn scalar(start: i64) -> Self {
        Self::linear(start, 1)
    }

    /// The inner trip count for outer iteration `j`, clamped at zero.
    #[inline]
    pub fn row_len(&self, j: i64) -> i64 {
        (self.len_i + self.stretch * j).max(0)
    }

    /// Total number of elements the stream produces.
    pub fn total_elems(&self) -> i64 {
        (0..self.len_j.max(0)).map(|j| self.row_len(j)).sum()
    }

    /// True if the inner trip count varies with the outer induction
    /// variable — the defining property of an inductive stream.
    #[inline]
    pub fn is_inductive(&self) -> bool {
        self.stretch != 0 && self.len_j > 1
    }

    /// True if the pattern produces no elements at all.
    pub fn is_empty(&self) -> bool {
        self.total_elems() == 0
    }

    /// Returns the pattern shifted by `delta` words (used for per-lane
    /// address scaling of broadcast commands).
    #[must_use]
    pub fn offset_by(&self, delta: i64) -> Self {
        AffinePattern { start: self.start + delta, ..*self }
    }

    /// Returns the pattern with the inner and outer lengths adjusted (used
    /// for per-lane length scaling of broadcast commands).
    #[must_use]
    pub fn lengths_adjusted(&self, delta_i: i64, delta_j: i64) -> Self {
        AffinePattern { len_i: self.len_i + delta_i, len_j: self.len_j + delta_j, ..*self }
    }

    /// Iterates over the elements in stream order.
    pub fn iter(&self) -> PatternIter {
        PatternIter { pat: *self, j: 0, i: 0 }
    }

    /// The inclusive range `(lowest, highest)` of word addresses the stream
    /// touches, or `None` for an empty stream. Costs O(`len_j`): the extreme
    /// addresses of each row occur at its two ends.
    pub fn addr_range(&self) -> Option<(i64, i64)> {
        let mut range: Option<(i64, i64)> = None;
        for j in 0..self.len_j.max(0) {
            let n = self.row_len(j);
            if n == 0 {
                continue;
            }
            let first = self.start + j * self.stride_j;
            let last = first + (n - 1) * self.stride_i;
            let (lo, hi) = (first.min(last), first.max(last));
            range = Some(match range {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
        range
    }

    /// Validates the pattern: lengths must be non-negative and every touched
    /// address must be non-negative.
    ///
    /// # Errors
    /// [`IsaError::NegativeLength`] if `len_i` or `len_j` is negative,
    /// [`IsaError::NegativeAddress`] if any element offset is negative.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.len_i < 0 {
            return Err(IsaError::NegativeLength { field: "len_i", value: self.len_i });
        }
        if self.len_j < 0 {
            return Err(IsaError::NegativeLength { field: "len_j", value: self.len_j });
        }
        // The extreme addresses occur at row ends; scan rows (len_j is small
        // in practice — matrices of dimension tens).
        for j in 0..self.len_j {
            let n = self.row_len(j);
            if n == 0 {
                continue;
            }
            let first = self.start + j * self.stride_j;
            let last = first + (n - 1) * self.stride_i;
            let lo = first.min(last);
            if lo < 0 {
                return Err(IsaError::NegativeAddress { addr: lo });
            }
        }
        Ok(())
    }
}

/// Iterator over the elements of an [`AffinePattern`] in stream order.
///
/// Created by [`AffinePattern::iter`]. Rows whose inductive trip count has
/// shrunk to zero are skipped entirely.
#[derive(Debug, Clone)]
pub struct PatternIter {
    pat: AffinePattern,
    j: i64,
    i: i64,
}

impl PatternIter {
    /// True if an element the iterator has yet to yield has word offset
    /// `addr`. Row by row in closed form — O(rows left), no iteration over
    /// elements — so stream engines can ask it on every access.
    pub fn will_visit(&self, addr: i64) -> bool {
        let p = &self.pat;
        let mut first_i = self.i;
        for j in self.j..p.len_j {
            let n = p.row_len(j);
            if first_i < n {
                let d = addr - (p.start + j * p.stride_j);
                let hit = if p.stride_i == 0 {
                    d == 0
                } else {
                    d % p.stride_i == 0 && (first_i..n).contains(&(d / p.stride_i))
                };
                if hit {
                    return true;
                }
            }
            first_i = 0;
        }
        false
    }
}

impl Iterator for PatternIter {
    type Item = PatternElem;

    fn next(&mut self) -> Option<PatternElem> {
        while self.j < self.pat.len_j {
            let n = self.pat.row_len(self.j);
            if self.i < n {
                let elem = PatternElem {
                    offset: self.pat.start
                        + self.j * self.pat.stride_j
                        + self.i * self.pat.stride_i,
                    j: self.j,
                    i: self.i,
                    last_in_row: self.i == n - 1,
                };
                self.i += 1;
                if self.i == n {
                    self.i = 0;
                    self.j += 1;
                }
                return Some(elem);
            }
            self.i = 0;
            self.j += 1;
        }
        None
    }
}

impl IntoIterator for &AffinePattern {
    type Item = PatternElem;
    type IntoIter = PatternIter;

    fn into_iter(self) -> PatternIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_pattern() {
        let p = AffinePattern::linear(10, 4);
        let offs: Vec<i64> = p.iter().map(|e| e.offset).collect();
        assert_eq!(offs, [10, 11, 12, 13]);
        assert_eq!(p.total_elems(), 4);
        assert!(!p.is_inductive());
    }

    #[test]
    fn strided_pattern() {
        let p = AffinePattern::strided(0, 5, 3);
        let offs: Vec<i64> = p.iter().map(|e| e.offset).collect();
        assert_eq!(offs, [0, 5, 10]);
    }

    #[test]
    fn rectangular_2d() {
        let p = AffinePattern::two_d(0, 1, 8, 3, 2, 0);
        let offs: Vec<i64> = p.iter().map(|e| e.offset).collect();
        assert_eq!(offs, [0, 1, 2, 8, 9, 10]);
    }

    #[test]
    fn triangular_row_flags() {
        let p = AffinePattern::two_d(0, 1, 4, 3, 3, -1);
        let elems: Vec<PatternElem> = p.iter().collect();
        // rows of length 3, 2, 1
        assert_eq!(elems.len(), 6);
        let lasts: Vec<bool> = elems.iter().map(|e| e.last_in_row).collect();
        assert_eq!(lasts, [false, false, true, false, true, true]);
        assert!(p.is_inductive());
    }

    #[test]
    fn shrinking_to_empty_rows() {
        // lengths 2, 1, 0, 0 — zero rows are skipped
        let p = AffinePattern::two_d(0, 1, 10, 2, 4, -1);
        assert_eq!(p.total_elems(), 3);
        let offs: Vec<i64> = p.iter().map(|e| e.offset).collect();
        assert_eq!(offs, [0, 1, 10]);
    }

    #[test]
    fn growing_pattern() {
        // lengths 1, 2, 3
        let p = AffinePattern::two_d(0, 1, 10, 1, 3, 1);
        assert_eq!(p.total_elems(), 6);
        let js: Vec<i64> = p.iter().map(|e| e.j).collect();
        assert_eq!(js, [0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn validate_catches_negative_addr() {
        let p = AffinePattern::strided(2, -3, 3); // 2, -1, -4
        assert!(matches!(p.validate(), Err(IsaError::NegativeAddress { addr: -4 })));
        assert!(AffinePattern::linear(0, 8).validate().is_ok());
    }

    #[test]
    fn validate_catches_negative_len() {
        let p = AffinePattern::linear(0, -1);
        assert!(matches!(p.validate(), Err(IsaError::NegativeLength { .. })));
    }

    #[test]
    fn offset_and_length_scaling() {
        let p = AffinePattern::linear(0, 8).offset_by(16).lengths_adjusted(-2, 0);
        assert_eq!(p.start, 16);
        assert_eq!(p.len_i, 6);
    }

    #[test]
    fn empty_pattern() {
        assert!(AffinePattern::linear(0, 0).is_empty());
        assert!(AffinePattern::linear(0, 0).iter().next().is_none());
    }

    #[test]
    fn will_visit_matches_a_scan_of_the_remaining_elements() {
        let patterns = [
            AffinePattern::linear(3, 5),
            AffinePattern::strided(9, -3, 4),
            AffinePattern::two_d(0, 1, 5, 4, 4, -1),
            AffinePattern::two_d(2, 2, 3, 1, 4, 1),
            AffinePattern::two_d(0, 1, 10, 2, 4, -1), // trailing empty rows
            AffinePattern::two_d(4, 0, 1, 3, 3, 0),   // stride 0: a row rewrites one word
            AffinePattern::two_d(0, 1, 0, 3, 3, -1),  // rows overlap
            AffinePattern::linear(0, 0),
        ];
        for p in patterns {
            let mut it = p.iter();
            loop {
                for addr in -2..24 {
                    let scanned = it.clone().any(|e| e.offset == addr);
                    assert_eq!(it.will_visit(addr), scanned, "{p:?} at {it:?}, addr {addr}");
                }
                if it.next().is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn addr_range_covers_extremes() {
        assert_eq!(AffinePattern::linear(10, 4).addr_range(), Some((10, 13)));
        assert_eq!(AffinePattern::strided(9, -3, 4).addr_range(), Some((0, 9)));
        // Triangular a[j, j..4] over a 4x5 row-major layout.
        let tri = AffinePattern::two_d(0, 1, 5, 4, 4, -1);
        assert_eq!(tri.addr_range(), Some((0, 15)));
        assert_eq!(AffinePattern::linear(0, 0).addr_range(), None);
    }
}
