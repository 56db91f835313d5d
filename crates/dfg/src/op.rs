/// The functional-unit class an operation executes on.
///
/// The default REVEL lane provisions 14 adders, 9 multipliers and 3
/// divide/square-root units (Table III); the scheduler matches [`OpCode`]s
/// to PEs whose FU has the right class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Adder/ALU: add, sub, compares, select, min/max, reductions.
    Adder,
    /// Multiplier.
    Multiplier,
    /// Iterative divide / square-root unit (long latency, not fully
    /// pipelined).
    DivSqrt,
}

impl FuClass {
    /// All FU classes, in display order.
    pub const ALL: [FuClass; 3] = [FuClass::Adder, FuClass::Multiplier, FuClass::DivSqrt];
}

impl core::fmt::Display for FuClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FuClass::Adder => "add",
            FuClass::Multiplier => "mul",
            FuClass::DivSqrt => "div/sqrt",
        };
        f.write_str(s)
    }
}

/// An operation executed by a processing element.
///
/// The set covers what the paper's seven linear-algebra kernels need:
/// arithmetic, divide/square-root (for factorizations), select/compare (for
/// rotations), and an in-fabric vector reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `sqrt(a)`
    Sqrt,
    /// `1 / sqrt(a)`
    Rsqrt,
    /// `1 / a`
    Recip,
    /// `-a`
    Neg,
    /// `|a|`
    Abs,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `1.0` if `a < b` else `0.0`
    CmpLt,
    /// `c != 0.0 ? a : b`
    Select,
    /// Identity / routing hop (register move).
    Mov,
    /// Sum of all valid vector lanes of `a`, broadcast to every lane.
    ReduceAdd,
    /// Packed single-precision complex add: each 64-bit word holds
    /// `(re: f32, im: f32)` (Table III's 2-way FP subword SIMD).
    CAdd,
    /// Packed complex subtract.
    CSub,
    /// Packed complex multiply.
    CMul,
}

/// Packs a single-precision complex number into a 64-bit word
/// (`re` in the low half, `im` in the high half).
pub fn pack_complex(re: f32, im: f32) -> f64 {
    let bits = (re.to_bits() as u64) | ((im.to_bits() as u64) << 32);
    f64::from_bits(bits)
}

/// Unpacks a single-precision complex number from a 64-bit word.
pub fn unpack_complex(w: f64) -> (f32, f32) {
    let bits = w.to_bits();
    (f32::from_bits(bits as u32), f32::from_bits((bits >> 32) as u32))
}

impl OpCode {
    /// Number of input operands.
    pub fn arity(&self) -> usize {
        match self {
            OpCode::Sqrt
            | OpCode::Rsqrt
            | OpCode::Recip
            | OpCode::Neg
            | OpCode::Abs
            | OpCode::Mov
            | OpCode::ReduceAdd => 1,
            OpCode::Select => 3,
            _ => 2,
        }
    }

    /// The FU class this op occupies.
    pub fn fu_class(&self) -> FuClass {
        match self {
            OpCode::Mul | OpCode::CMul => FuClass::Multiplier,
            OpCode::Div | OpCode::Sqrt | OpCode::Rsqrt | OpCode::Recip => FuClass::DivSqrt,
            _ => FuClass::Adder,
        }
    }

    /// Pipeline latency in cycles with the paper's default FU timings:
    /// adders 2 cycles, multipliers 4, divide/square-root 12 (Table III).
    pub fn latency(&self) -> u32 {
        match self.fu_class() {
            FuClass::Adder => 2,
            FuClass::Multiplier => 4,
            FuClass::DivSqrt => 12,
        }
    }

    /// Initiation interval: cycles between successive issues to the same FU.
    /// Divide/sqrt units accept a new operation every 5 cycles (Table III);
    /// everything else is fully pipelined.
    pub fn initiation_interval(&self) -> u32 {
        match self.fu_class() {
            FuClass::DivSqrt => 5,
            _ => 1,
        }
    }

    /// Scalar semantics of the op (vector semantics are elementwise except
    /// [`OpCode::ReduceAdd`], which the evaluator special-cases):
    /// [`OpCode::apply3`] over a slice of `self.arity()` operands.
    pub fn apply(&self, args: &[f64]) -> f64 {
        debug_assert_eq!(args.len(), self.arity(), "{self:?} arity");
        let arg = |k: usize| args.get(k).copied().unwrap_or(0.0);
        self.apply3(arg(0), arg(1), arg(2))
    }

    /// Scalar semantics of the op over operands passed one by one, those
    /// past its arity ignored.
    ///
    /// Which NaN an arithmetic op returns is pinned: its first NaN operand,
    /// quieted, or the default NaN if no operand is one — what x86 returns
    /// when the operands reach it in source order. Hardware picks between
    /// NaN operands by register, and the optimizer may commute them or fold
    /// `-0.0 + x` to `x`, so without the pin two compilations of one op
    /// (the simulator's fire and a replayed step) could disagree in a NaN's
    /// bits.
    #[inline]
    pub fn apply3(self, a: f64, b: f64, c: f64) -> f64 {
        match self {
            OpCode::Add => pin(a + b, a, b),
            OpCode::Sub => pin(a - b, a, b),
            OpCode::Mul => pin(a * b, a, b),
            OpCode::Div => pin(a / b, a, b),
            OpCode::Sqrt => pin(a.sqrt(), a, a),
            OpCode::Rsqrt => pin(1.0 / a.sqrt(), a, a),
            OpCode::Recip => pin(1.0 / a, a, a),
            OpCode::Neg => -a,
            OpCode::Abs => a.abs(),
            OpCode::Min => pin(a.min(b), a, b),
            OpCode::Max => pin(a.max(b), a, b),
            OpCode::CmpLt => {
                if a < b {
                    1.0
                } else {
                    0.0
                }
            }
            OpCode::Select => {
                if c != 0.0 {
                    a
                } else {
                    b
                }
            }
            OpCode::Mov | OpCode::ReduceAdd => a,
            OpCode::CAdd | OpCode::CSub | OpCode::CMul => {
                let (ar, ai) = unpack_complex(a);
                let (br, bi) = unpack_complex(b);
                let add = |x: f32, y: f32| pin32(x + y, x, y);
                let sub = |x: f32, y: f32| pin32(x - y, x, y);
                let mul = |x: f32, y: f32| pin32(x * y, x, y);
                match self {
                    OpCode::CAdd => pack_complex(add(ar, br), add(ai, bi)),
                    OpCode::CSub => pack_complex(sub(ar, br), sub(ai, bi)),
                    _ => pack_complex(sub(mul(ar, br), mul(ai, bi)), add(mul(ar, bi), mul(ai, br))),
                }
            }
        }
    }
}

/// `r`, an op's result over `a` and `b`, with its NaN pinned (see
/// [`OpCode::apply3`]).
#[inline]
fn pin(r: f64, a: f64, b: f64) -> f64 {
    const QUIET: u64 = 1 << 51;
    if !r.is_nan() {
        r
    } else if a.is_nan() {
        f64::from_bits(a.to_bits() | QUIET)
    } else if b.is_nan() {
        f64::from_bits(b.to_bits() | QUIET)
    } else {
        f64::from_bits(0xfff8_0000_0000_0000)
    }
}

/// [`pin`] for the single-precision halves of a packed complex word.
#[inline]
fn pin32(r: f32, a: f32, b: f32) -> f32 {
    const QUIET: u32 = 1 << 22;
    if !r.is_nan() {
        r
    } else if a.is_nan() {
        f32::from_bits(a.to_bits() | QUIET)
    } else if b.is_nan() {
        f32::from_bits(b.to_bits() | QUIET)
    } else {
        f32::from_bits(0xffc0_0000)
    }
}

impl core::fmt::Display for OpCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            OpCode::Add => "add",
            OpCode::Sub => "sub",
            OpCode::Mul => "mul",
            OpCode::Div => "div",
            OpCode::Sqrt => "sqrt",
            OpCode::Rsqrt => "rsqrt",
            OpCode::Recip => "recip",
            OpCode::Neg => "neg",
            OpCode::Abs => "abs",
            OpCode::Min => "min",
            OpCode::Max => "max",
            OpCode::CmpLt => "cmplt",
            OpCode::Select => "select",
            OpCode::Mov => "mov",
            OpCode::ReduceAdd => "redadd",
            OpCode::CAdd => "cadd",
            OpCode::CSub => "csub",
            OpCode::CMul => "cmul",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_class() {
        assert_eq!(OpCode::Add.arity(), 2);
        assert_eq!(OpCode::Sqrt.arity(), 1);
        assert_eq!(OpCode::Select.arity(), 3);
        assert_eq!(OpCode::Mul.fu_class(), FuClass::Multiplier);
        assert_eq!(OpCode::Rsqrt.fu_class(), FuClass::DivSqrt);
        assert_eq!(OpCode::CmpLt.fu_class(), FuClass::Adder);
    }

    #[test]
    fn latency_matches_table_iii() {
        assert_eq!(OpCode::Div.latency(), 12);
        assert_eq!(OpCode::Div.initiation_interval(), 5);
        assert_eq!(OpCode::Add.initiation_interval(), 1);
    }

    #[test]
    fn scalar_semantics() {
        assert_eq!(OpCode::Add.apply(&[2.0, 3.0]), 5.0);
        assert_eq!(OpCode::Sub.apply(&[2.0, 3.0]), -1.0);
        assert_eq!(OpCode::Div.apply(&[1.0, 4.0]), 0.25);
        assert_eq!(OpCode::Sqrt.apply(&[9.0]), 3.0);
        assert_eq!(OpCode::Rsqrt.apply(&[4.0]), 0.5);
        assert_eq!(OpCode::CmpLt.apply(&[1.0, 2.0]), 1.0);
        assert_eq!(OpCode::Select.apply(&[5.0, 6.0, 0.0]), 6.0);
        assert_eq!(OpCode::Select.apply(&[5.0, 6.0, 1.0]), 5.0);
        assert_eq!(OpCode::Min.apply(&[1.0, 2.0]), 1.0);
        assert_eq!(OpCode::Max.apply(&[1.0, 2.0]), 2.0);
        assert_eq!(OpCode::Abs.apply(&[-3.0]), 3.0);
        assert_eq!(OpCode::Neg.apply(&[-3.0]), 3.0);
        assert_eq!(OpCode::Recip.apply(&[8.0]), 0.125);
        assert_eq!(OpCode::Mov.apply(&[7.0]), 7.0);
    }

    #[test]
    fn packed_complex_ops() {
        let a = pack_complex(1.0, 2.0);
        let b = pack_complex(3.0, -1.0);
        let s = OpCode::CAdd.apply(&[a, b]);
        assert_eq!(unpack_complex(s), (4.0, 1.0));
        let d = OpCode::CSub.apply(&[a, b]);
        assert_eq!(unpack_complex(d), (-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        let p = OpCode::CMul.apply(&[a, b]);
        assert_eq!(unpack_complex(p), (5.0, 5.0));
        assert_eq!(OpCode::CMul.fu_class(), FuClass::Multiplier);
        assert_eq!(OpCode::CAdd.fu_class(), FuClass::Adder);
        assert_eq!(OpCode::CAdd.arity(), 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(OpCode::ReduceAdd.to_string(), "redadd");
        assert_eq!(FuClass::DivSqrt.to_string(), "div/sqrt");
    }
}
