//! # revel-isa — the REVEL vector-stream ISA
//!
//! This crate defines the hardware/software interface of the REVEL
//! accelerator from *"A Hybrid Systolic-Dataflow Architecture for Inductive
//! Matrix Algorithms"* (HPCA 2020): the **vector-stream ISA**.
//!
//! The ISA describes execution as the interaction of a Von Neumann control
//! program and spatially-mapped computation graphs, decoupled by *streams*.
//! Its novelty relative to plain stream-dataflow is that streams are
//! **inductive**: access patterns and dependence production/consumption
//! rates may change linearly with an outer-loop induction variable (the
//! *stretch* parameters), and commands are **vectorized across lanes** via a
//! lane bitmask plus per-lane scaling of the pattern parameters.
//!
//! The main types are:
//!
//! * [`AffinePattern`] — a two-level affine memory access pattern with a
//!   stretch term, e.g. the triangular pattern `a[j, 0:n-j]`.
//! * [`RateFsm`] — an inductive production/consumption rate, `base +
//!   stretch·j`, realized in hardware as a small FSM in a port.
//! * [`StreamCommand`] — the commands of Table II (`LoadStream`,
//!   `StoreStream`, `Const`, `Xfer`, `Configure`, barriers, `Wait`).
//! * [`VectorCommand`] — a stream command plus a [`LaneMask`] and
//!   [`LaneScale`], the unit shipped from the control core to the lanes.
//!
//! ```
//! use revel_isa::{AffinePattern, RateFsm, StreamCommand, InPortId, MemTarget};
//!
//! // The triangular load `for j in 0..8 { for i in 0..8-j { a[j*9 + i] } }`
//! let pat = AffinePattern::two_d(0, 1, 9, 8, 8, -1);
//! assert_eq!(pat.total_elems(), 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1);
//!
//! // Load it into input port 2, each element used exactly once.
//! let cmd = StreamCommand::load(MemTarget::Private, pat, InPortId(2), RateFsm::ONCE);
//! assert!(cmd.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod disasm;
mod error;
mod lane;
mod pattern;
mod rate;
mod rng;

pub use command::{
    ConfigId, ConstPattern, LaneHop, MemTarget, ProdMode, StreamCommand, VectorCommand, XferRoute,
};
pub use error::IsaError;
pub use lane::{LaneId, LaneMask, LaneScale};
pub use pattern::{AffinePattern, PatternElem, PatternIter};
pub use rate::RateFsm;
pub use rng::Rng;

/// A 64-bit scratchpad word. Floating-point payloads are stored as the raw
/// bit pattern of an `f64` (see [`word_from_f64`] / [`f64_from_word`]).
pub type Word = u64;

/// Identifier of an *input* port (stream → fabric interface FIFO).
///
/// Input and output ports are distinct hardware structures in REVEL, so they
/// get distinct identifier types to rule out mixing them up at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InPortId(pub u8);

/// Identifier of an *output* port (fabric → stream interface FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OutPortId(pub u8);

impl core::fmt::Display for InPortId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "in{}", self.0)
    }
}

impl core::fmt::Display for OutPortId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "out{}", self.0)
    }
}

/// Reinterprets an `f64` as a scratchpad [`Word`].
#[inline]
pub fn word_from_f64(x: f64) -> Word {
    x.to_bits()
}

/// Reinterprets a scratchpad [`Word`] as an `f64`.
#[inline]
pub fn f64_from_word(w: Word) -> f64 {
    f64::from_bits(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        for x in [0.0, -1.5, f64::INFINITY, 1e-300, 3.25] {
            assert_eq!(f64_from_word(word_from_f64(x)), x);
        }
    }

    #[test]
    fn port_display() {
        assert_eq!(InPortId(3).to_string(), "in3");
        assert_eq!(OutPortId(7).to_string(), "out7");
    }
}
