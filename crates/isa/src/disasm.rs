//! Human-readable rendering of vector-stream commands, in a notation
//! close to the paper's Fig. 15/17 listings.

use crate::{
    AffinePattern, ConstPattern, LaneHop, MemTarget, ProdMode, RateFsm, StreamCommand,
    VectorCommand,
};
use core::fmt;

fn fmt_rate(r: &RateFsm) -> String {
    if r.is_trivial() {
        "1".to_string()
    } else if r.stretch == 0 {
        format!("{}", r.base)
    } else {
        format!("{}{}{}j", r.base, if r.stretch >= 0 { "+" } else { "" }, r.stretch)
    }
}

fn fmt_pattern(p: &AffinePattern) -> String {
    if p.len_j == 1 && p.stride_i == 1 {
        format!("[{}:{}]", p.start, p.start + p.len_i)
    } else if p.len_j == 1 {
        format!("[{} +{}*i, ni={}]", p.start, p.stride_i, p.len_i)
    } else {
        let stretch = if p.stretch != 0 { format!(", s={}", p.stretch) } else { String::new() };
        format!(
            "[{} +{}*i +{}*j, ni={}, nj={}{}]",
            p.start, p.stride_i, p.stride_j, p.len_i, p.len_j, stretch
        )
    }
}

fn fmt_mem(t: MemTarget) -> &'static str {
    match t {
        MemTarget::Private => "spad",
        MemTarget::Shared => "shr",
    }
}

fn fmt_const(p: &ConstPattern) -> String {
    match p.val2 {
        Some((v2, n2)) => format!(
            "{}x{} {}x{} (outer {})",
            f64::from_bits(p.val1),
            fmt_rate(&p.n1),
            f64::from_bits(v2),
            fmt_rate(&n2),
            p.outer
        ),
        None => format!("{}x{}", f64::from_bits(p.val1), fmt_rate(&p.n1)),
    }
}

impl fmt::Display for StreamCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamCommand::Configure { config } => write!(f, "Config #{}", config.0),
            StreamCommand::Load { target, pattern, dst, reuse } => {
                write!(f, "Load {}{} -> {dst}", fmt_mem(*target), fmt_pattern(pattern))?;
                if !reuse.is_trivial() {
                    write!(f, ", r={}", fmt_rate(reuse))?;
                }
                Ok(())
            }
            StreamCommand::Store { src, target, pattern, discard } => {
                write!(f, "Store {src} -> {}{}", fmt_mem(*target), fmt_pattern(pattern))?;
                if !discard.is_trivial() {
                    write!(f, ", d={}", fmt_rate(discard))?;
                }
                Ok(())
            }
            StreamCommand::Const { dst, pattern } => {
                write!(f, "Const {} -> {dst}", fmt_const(pattern))
            }
            StreamCommand::Xfer { route, outer, production, prod_mode, consumption, rows } => {
                let hop = match route.hop {
                    LaneHop::Local => "",
                    LaneHop::Right => " right",
                };
                let mode = match prod_mode {
                    ProdMode::KeepFirst => "",
                    ProdMode::DropFirst => " drop-first",
                };
                write!(
                    f,
                    "Xfer {} ->{hop} {}, n={outer}, p={}{mode}, c={}",
                    route.src,
                    route.dst,
                    fmt_rate(production),
                    fmt_rate(consumption)
                )?;
                if let Some(r) = rows {
                    write!(f, ", rows={}", fmt_rate(r))?;
                }
                Ok(())
            }
            StreamCommand::SetAccumLen { region, len } => {
                write!(f, "SetAccumLen region {region}, len={}", fmt_rate(len))
            }
            StreamCommand::BarrierScratch => write!(f, "Barrier_LdSt"),
            StreamCommand::Wait => write!(f, "Wait"),
        }
    }
}

impl fmt::Display for VectorCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes.count() == 1 {
            let lane = self.lanes.iter().next().expect("one lane");
            write!(f, "[{lane}] ")?;
        } else {
            write!(f, "[lanes {:#04x}] ", self.lanes.bits())?;
        }
        write!(f, "{}", self.cmd)?;
        if !self.scale.is_broadcast() {
            write!(
                f,
                " (scale/lane: +{} addr, {:+} ni, {:+} nj)",
                self.scale.addr_per_lane, self.scale.len_i_per_lane, self.scale.len_j_per_lane
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigId, InPortId, OutPortId};

    #[test]
    fn commands_render_compactly() {
        let load = StreamCommand::load(
            MemTarget::Private,
            AffinePattern::two_d(10, 1, 33, 32, 32, -1),
            InPortId(2),
            RateFsm::inductive(32, -1),
        );
        let s = load.to_string();
        assert!(s.contains("Load spad["), "{s}");
        assert!(s.contains("s=-1"), "{s}");
        assert!(s.contains("r=32-1j"), "{s}");

        let xfer = StreamCommand::xfer_tail(
            OutPortId(3),
            InPortId(3),
            10,
            RateFsm::inductive(5, -1),
            RateFsm::inductive(4, -1),
        );
        let s = xfer.to_string();
        assert!(s.contains("drop-first"), "{s}");
        assert!(s.contains("rows=4-1j"), "{s}");

        assert_eq!(StreamCommand::Wait.to_string(), "Wait");
        assert_eq!(StreamCommand::Configure { config: ConfigId(2) }.to_string(), "Config #2");
    }
}
