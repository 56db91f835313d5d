use revel_dfg::FuClass;
use std::hash::{Hash, Hasher};

/// Functional-unit mix of one lane's fabric.
///
/// The paper provisions 14 adders, 9 multipliers and 3 div/sqrt units
/// (Table III) across a 5×5 mesh whose lower-right tile is the dataflow PE.
/// With 24 dedicated tiles we place 12 adders, 9 multipliers and 3 div/sqrt
/// units on systolic PEs; the remaining adder capacity lives in the dataflow
/// PE, which can execute any op class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuMix {
    /// Number of adder/ALU systolic PEs.
    pub adders: usize,
    /// Number of multiplier systolic PEs.
    pub multipliers: usize,
    /// Number of divide/square-root systolic PEs.
    pub div_sqrt: usize,
}

impl FuMix {
    /// Total systolic PE count.
    pub fn total(&self) -> usize {
        self.adders + self.multipliers + self.div_sqrt
    }

    /// Systolic PEs available for a given op class.
    pub fn count(&self, class: FuClass) -> usize {
        match class {
            FuClass::Adder => self.adders,
            FuClass::Multiplier => self.multipliers,
            FuClass::DivSqrt => self.div_sqrt,
        }
    }
}

/// Configuration of a single REVEL lane (Table III, "Revel Lane ×8").
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct LaneConfig {
    /// Mesh width (PE tiles).
    pub mesh_width: usize,
    /// Mesh height (PE tiles).
    pub mesh_height: usize,
    /// Systolic FU mix.
    pub fu_mix: FuMix,
    /// Number of dataflow (temporal) PEs. The paper chooses 1 (Fig. 24).
    pub num_dataflow_pes: usize,
    /// Instruction slots per dataflow PE.
    pub dpe_instr_slots: usize,
    /// Maximum vector widths of the input ports, in 64-bit words. Programs
    /// configure each port to a logical width up to this hardware width.
    /// The default mix is Table III's vector ports (512 b / 256 b / 128 b)
    /// plus scalar software ports, matching the port identifiers the
    /// paper's kernel encodings use (Fig. 15/17 reference up to 9 ports);
    /// aggregate bandwidth matches Table III's 27 words per direction.
    pub in_port_widths: Vec<usize>,
    /// Maximum vector widths of the output ports, in 64-bit words.
    pub out_port_widths: Vec<usize>,
    /// Port FIFO depth, in vectors.
    pub port_fifo_depth: usize,
    /// Concurrent streams per lane (stream table entries).
    pub stream_table_entries: usize,
    /// Command queue entries.
    pub cmd_queue_entries: usize,
    /// Private scratchpad size in 64-bit words (8 KB).
    pub spad_words: usize,
    /// Private scratchpad bandwidth, words/cycle in each direction
    /// (512-bit 1R/1W port).
    pub spad_bw_words: usize,
    /// XFER data-bus bandwidth, words/cycle.
    pub xfer_bw_words: usize,
    /// Inter-lane data-bus bandwidth, words/cycle.
    pub inter_lane_bw_words: usize,
}

impl LaneConfig {
    /// The paper's lane (Table III).
    pub fn paper_default() -> Self {
        LaneConfig {
            mesh_width: 5,
            mesh_height: 5,
            fu_mix: FuMix { adders: 12, multipliers: 9, div_sqrt: 3 },
            num_dataflow_pes: 1,
            dpe_instr_slots: 32,
            in_port_widths: vec![8, 8, 4, 4, 2, 2, 1, 1, 1, 1, 1, 1],
            out_port_widths: vec![8, 8, 4, 4, 2, 2, 1, 1, 1, 1, 1, 1],
            port_fifo_depth: 4,
            stream_table_entries: 8,
            cmd_queue_entries: 8,
            spad_words: 8 * 1024 / 8,
            spad_bw_words: 8,
            xfer_bw_words: 8,
            inter_lane_bw_words: 8,
        }
    }

    /// The pure-systolic baseline lane (§III-B, "most resembles Softbrain"):
    /// every tile is a dedicated PE, no temporal execution.
    pub fn pure_systolic() -> Self {
        LaneConfig {
            fu_mix: FuMix { adders: 13, multipliers: 9, div_sqrt: 3 },
            num_dataflow_pes: 0,
            ..Self::paper_default()
        }
    }

    /// The pure tagged-dataflow baseline lane (§III-B, "most resembles
    /// Triggered Instructions"): every tile is a temporally-shared PE.
    pub fn pure_dataflow() -> Self {
        LaneConfig {
            fu_mix: FuMix { adders: 0, multipliers: 0, div_sqrt: 0 },
            num_dataflow_pes: 25,
            ..Self::paper_default()
        }
    }

    /// A lane with `n` dataflow PEs (Fig. 24 sensitivity study); dataflow
    /// tiles displace adder tiles.
    ///
    /// # Panics
    /// Panics if `n` is 0 or leaves no adders.
    pub fn with_dataflow_pes(n: usize) -> Self {
        let base = Self::paper_default();
        assert!((1..12).contains(&n), "dataflow PEs must be 1..12, got {n}");
        LaneConfig { fu_mix: FuMix { adders: 13 - n, ..base.fu_mix }, num_dataflow_pes: n, ..base }
    }

    /// Number of input ports.
    pub fn num_in_ports(&self) -> usize {
        self.in_port_widths.len()
    }

    /// Number of output ports.
    pub fn num_out_ports(&self) -> usize {
        self.out_port_widths.len()
    }

    /// Width (words) of input port `p`.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn in_port_width(&self, p: u8) -> usize {
        self.in_port_widths[p as usize]
    }

    /// Width (words) of output port `p`.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn out_port_width(&self, p: u8) -> usize {
        self.out_port_widths[p as usize]
    }

    /// Mesh tiles in this lane.
    pub fn mesh_tiles(&self) -> usize {
        self.mesh_width * self.mesh_height
    }
}

/// Configuration of the whole accelerator (Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct RevelConfig {
    /// Number of vector lanes.
    pub num_lanes: usize,
    /// Per-lane configuration.
    pub lane: LaneConfig,
    /// Shared scratchpad size in words (128 KB).
    pub shared_spad_words: usize,
    /// Shared scratchpad bandwidth, words/cycle each direction.
    pub shared_spad_bw_words: usize,
    /// Control-core cycles to construct + issue one stream command. The
    /// RISC-V core has dedicated stream-command instructions (Table III),
    /// so a command costs one instruction plus operand setup — two cycles
    /// on the single-issue pipeline.
    pub cmd_issue_cycles: u64,
    /// Cycles to drain + reconfigure the fabric on a `Configure` command.
    pub reconfig_cycles: u64,
    /// Clock frequency in GHz (design meets timing at 1.25 GHz).
    pub clock_ghz: f64,
}

/// Structural identity: every field, the clock by bit pattern (so identity
/// is finer than `==` on `f64`). The destructuring names every field, so a
/// field added later fails to compile here instead of escaping identity.
impl Hash for RevelConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let RevelConfig {
            num_lanes,
            lane,
            shared_spad_words,
            shared_spad_bw_words,
            cmd_issue_cycles,
            reconfig_cycles,
            clock_ghz,
        } = self;
        num_lanes.hash(state);
        lane.hash(state);
        shared_spad_words.hash(state);
        shared_spad_bw_words.hash(state);
        cmd_issue_cycles.hash(state);
        reconfig_cycles.hash(state);
        clock_ghz.to_bits().hash(state);
    }
}

impl RevelConfig {
    /// The paper's full 8-lane accelerator (Table III).
    pub fn paper_default() -> Self {
        RevelConfig {
            num_lanes: 8,
            lane: LaneConfig::paper_default(),
            shared_spad_words: 128 * 1024 / 8,
            shared_spad_bw_words: 8,
            cmd_issue_cycles: 2,
            reconfig_cycles: 64,
            clock_ghz: 1.25,
        }
    }

    /// A single-lane configuration (used by batch-1 kernels that do not
    /// parallelize across lanes, e.g. SVD / Solver / FFT — Table V).
    pub fn single_lane() -> Self {
        RevelConfig { num_lanes: 1, ..Self::paper_default() }
    }

    /// Nanoseconds for `cycles` at the configured clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_ghz
    }

    /// The cycle at which a reconfiguration started at `now` completes.
    ///
    /// This is the fabric's contribution to the simulator's event horizon:
    /// between `now` and the returned deadline a draining lane's observable
    /// state cannot change, so a quiescent machine may skip straight to it.
    pub fn reconfig_deadline(&self, now: u64) -> u64 {
        now + self.reconfig_cycles
    }

    /// Peak floating-point throughput in FLOP/cycle (one op per FU).
    pub fn peak_flops_per_cycle(&self) -> f64 {
        (self.lane.fu_mix.total() + self.lane.num_dataflow_pes) as f64 * self.num_lanes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_iii() {
        let cfg = RevelConfig::paper_default();
        assert_eq!(cfg.num_lanes, 8);
        assert_eq!(cfg.lane.fu_mix.total(), 24);
        assert_eq!(cfg.lane.mesh_tiles(), 25);
        assert_eq!(cfg.lane.fu_mix.total() + cfg.lane.num_dataflow_pes, 25);
        assert_eq!(cfg.lane.spad_words, 1024); // 8 KB of 64-bit words
        assert_eq!(cfg.shared_spad_words, 16384); // 128 KB
        assert_eq!(cfg.lane.stream_table_entries, 8);
        assert_eq!(cfg.lane.cmd_queue_entries, 8);
        assert_eq!(cfg.lane.port_fifo_depth, 4);
        assert!((cfg.clock_ghz - 1.25).abs() < 1e-12);
    }

    #[test]
    fn port_widths() {
        let lane = LaneConfig::paper_default();
        assert_eq!(lane.in_port_width(0), 8);
        assert_eq!(lane.in_port_width(11), 1);
        assert_eq!(lane.num_in_ports(), 12);
        // Aggregate port bandwidth ~= Table III's 2*512 + 2*256 + 128 + 64
        // bits (27 words); ours is 32 words across 12 software ports
        // (the kernel encodings of Fig. 15/17 use up to 9-11 port ids).
        let words: usize = lane.in_port_widths.iter().sum();
        assert!((27..=34).contains(&words), "aggregate {words} words");
    }

    #[test]
    fn fu_mix_lookup() {
        let mix = LaneConfig::paper_default().fu_mix;
        assert_eq!(mix.count(FuClass::Adder), 12);
        assert_eq!(mix.count(FuClass::Multiplier), 9);
        assert_eq!(mix.count(FuClass::DivSqrt), 3);
    }

    #[test]
    fn timing_helpers() {
        let cfg = RevelConfig::paper_default();
        assert!((cfg.cycles_to_ns(1250) - 1000.0).abs() < 1e-9);
        assert_eq!(cfg.peak_flops_per_cycle(), 200.0);
    }

    #[test]
    fn single_lane_config() {
        assert_eq!(RevelConfig::single_lane().num_lanes, 1);
    }

    #[test]
    fn reconfig_deadline_offsets_by_reconfig_cycles() {
        let cfg = RevelConfig::paper_default();
        assert_eq!(cfg.reconfig_deadline(100), 100 + cfg.reconfig_cycles);
    }
}
