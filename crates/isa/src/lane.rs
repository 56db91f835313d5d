use crate::IsaError;

/// Identifier of a vector lane (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneId(pub u8);

impl core::fmt::Display for LaneId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "lane{}", self.0)
    }
}

/// A bitmask selecting which lanes receive a vector-stream command.
///
/// Commands are only received by relevant lanes, specified by this bitmask
/// (§V-B). Supports up to 32 lanes (REVEL uses 8).
///
/// ```
/// use revel_isa::{LaneMask, LaneId};
/// let odd = LaneMask::from_lanes([1, 3, 5, 7]);
/// assert!(odd.contains(LaneId(3)));
/// assert!(!odd.contains(LaneId(2)));
/// assert_eq!(odd.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneMask(u32);

impl LaneMask {
    /// Mask selecting all of the first `n` lanes.
    ///
    /// # Panics
    /// Panics if `n > 32`.
    pub fn all(n: u8) -> Self {
        assert!(n <= 32, "at most 32 lanes supported, got {n}");
        if n == 32 {
            LaneMask(u32::MAX)
        } else {
            LaneMask((1u32 << n) - 1)
        }
    }

    /// Mask selecting a single lane.
    pub fn single(lane: LaneId) -> Self {
        LaneMask(1u32 << lane.0)
    }

    /// Mask from an explicit list of lane numbers.
    pub fn from_lanes<I: IntoIterator<Item = u8>>(lanes: I) -> Self {
        let mut bits = 0u32;
        for l in lanes {
            bits |= 1 << l;
        }
        LaneMask(bits)
    }

    /// Mask from raw bits.
    pub fn from_bits(bits: u32) -> Self {
        LaneMask(bits)
    }

    /// The raw bits.
    pub fn bits(&self) -> u32 {
        self.0
    }

    /// Whether `lane` is selected.
    #[inline]
    pub fn contains(&self, lane: LaneId) -> bool {
        self.0 & (1 << lane.0) != 0
    }

    /// Number of selected lanes.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// True if no lane is selected.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the selected lanes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LaneId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let lane = bits.trailing_zeros() as u8;
            bits &= bits - 1; // clear the lowest set bit
            Some(LaneId(lane))
        })
    }

    /// Validates that at least one lane is selected.
    ///
    /// # Errors
    /// [`IsaError::EmptyLaneMask`] if the mask is empty.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.is_empty() {
            return Err(IsaError::EmptyLaneMask);
        }
        Ok(())
    }
}

impl Default for LaneMask {
    /// The default mask selects lane 0 only.
    fn default() -> Self {
        LaneMask::single(LaneId(0))
    }
}

/// Per-lane scaling of a broadcast command's pattern parameters.
///
/// When one vector-stream command drives several lanes, each lane may
/// locally modify the pattern "by adding an offset to the starting address
/// and/or length parameters (a multiple of the lane id)" (§V-B). This lets a
/// single command direct each lane to read a separate slice of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaneScale {
    /// Words added to `start` per lane id.
    pub addr_per_lane: i64,
    /// Added to `len_i` per lane id.
    pub len_i_per_lane: i64,
    /// Added to `len_j` per lane id.
    pub len_j_per_lane: i64,
}

impl LaneScale {
    /// No per-lane modification: all lanes see the identical pattern.
    pub const BROADCAST: LaneScale =
        LaneScale { addr_per_lane: 0, len_i_per_lane: 0, len_j_per_lane: 0 };

    /// Each lane's start address shifted by `words * lane_id`.
    pub fn addr(words: i64) -> Self {
        LaneScale { addr_per_lane: words, ..Self::BROADCAST }
    }

    /// True if the command is a pure broadcast.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// The address delta for a given lane relative to lane 0.
    pub fn addr_delta(&self, lane: LaneId) -> i64 {
        self.addr_per_lane * lane.0 as i64
    }

    /// The (len_i, len_j) deltas for a given lane relative to lane 0.
    pub fn len_delta(&self, lane: LaneId) -> (i64, i64) {
        (self.len_i_per_lane * lane.0 as i64, self.len_j_per_lane * lane.0 as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_all() {
        let m = LaneMask::all(8);
        assert_eq!(m.count(), 8);
        assert!(m.contains(LaneId(0)));
        assert!(m.contains(LaneId(7)));
        assert!(!m.contains(LaneId(8)));
    }

    #[test]
    fn mask_all_32() {
        assert_eq!(LaneMask::all(32).count(), 32);
    }

    #[test]
    fn mask_iter_order() {
        let m = LaneMask::from_lanes([5, 1, 3]);
        let lanes: Vec<u8> = m.iter().map(|l| l.0).collect();
        assert_eq!(lanes, [1, 3, 5]);
        for bits in [0, 1, 1 << 31, 0x8000_0001, 0xA5A5_5A5A, u32::MAX] {
            let want: Vec<u8> = (0..32).filter(|l| bits & (1 << l) != 0).collect();
            let lanes: Vec<u8> = LaneMask::from_bits(bits).iter().map(|l| l.0).collect();
            assert_eq!(lanes, want, "{bits:#x}");
        }
    }

    #[test]
    fn empty_mask_invalid() {
        assert!(LaneMask::from_bits(0).validate().is_err());
        assert!(LaneMask::single(LaneId(2)).validate().is_ok());
    }

    #[test]
    fn scale_deltas() {
        let s = LaneScale { addr_per_lane: 100, len_i_per_lane: -2, len_j_per_lane: 0 };
        assert_eq!(s.addr_delta(LaneId(3)), 300);
        assert_eq!(s.len_delta(LaneId(2)), (-4, 0));
        assert!(!s.is_broadcast());
        assert!(LaneScale::BROADCAST.is_broadcast());
    }
}
