//! Timing-trace recording and functional replay: the "one timing run,
//! N datasets" lever.
//!
//! For a certified data-oblivious program (see `revel-verify`'s
//! `ObliviousnessCert`) the cycle-level behaviour of a run — which
//! commands issue when, which regions fire with how many valid lanes,
//! which words move through which ports — depends only on problem
//! *sizes*, never on dataset *values*. One cycle-accurate run can
//! therefore record a [`TimingTrace`] — the linear sequence of
//! functional micro-operations in exact execution order — and every
//! further same-shape dataset replays that trace at `O(words moved)`
//! cost, skipping the per-cycle stepping, store→load guard scans, stall
//! classification, and horizon bookkeeping entirely.
//!
//! The replayer drives the *real* machine components (port FSMs, DFG
//! evaluators, scratchpads), so replayed values are byte-identical to a
//! full simulation of the same dataset: the port reuse/discard/
//! predication FSMs and the evaluators are data-independent state
//! machines, and the trace feeds them the identical operation sequence.
//!
//! Replay is **checked**: every port push, pop, flush, and fire
//! revalidates the invariant the timing run established (guarded pushes
//! always succeed, pops always produce, fire widths match). A program
//! whose timing actually depends on data values desynchronizes the
//! replay — surfaced as [`SimError::Replay`], never a panic — which is
//! what keeps the replay path honest (and is pinned by the injected-edge
//! divergence tests). Callers must gate replay on the static certificate;
//! the trace machinery itself only detects, it does not prove.

use crate::kernel::MachineMem;
use crate::lane::Lane;
use crate::machine::{Machine, SimError};
use crate::stats::RunReport;
use revel_fabric::FabricMask;
use revel_isa::{MemTarget, ProdMode, RateFsm};
use revel_prog::{ControlStep, RevelProgram};

/// One recorded functional micro-operation of a timing run.
///
/// Ops are recorded at the exact site (and in the exact global order)
/// where the timing walk mutates functional state, so a linear walk of
/// the sequence reproduces every data movement without any notion of
/// cycles. Timing-only state (busy flags, stream retirement, stall
/// classification) is deliberately absent: it affects *when* these ops
/// happen, which the trace has already resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// A host op at control-program `pc` ran against scratchpad memory.
    Host {
        /// Control-program index of the [`ControlStep::Host`] step.
        pc: u32,
    },
    /// A lane applied fabric configuration `config`.
    Configure {
        /// Lane index.
        lane: u8,
        /// Index into `program.configs`.
        config: u32,
    },
    /// A region's accumulator length FSM was reprogrammed.
    SetAccumLen {
        /// Lane index.
        lane: u8,
        /// Region index within the active configuration.
        region: u8,
        /// The new accumulation-length FSM.
        len: RateFsm,
    },
    /// An input port was bound to a new stream (reuse FSM reset).
    BindIn {
        /// Lane index.
        lane: u8,
        /// Input-port index.
        port: u8,
        /// The stream's consumption/reuse FSM.
        reuse: RateFsm,
    },
    /// An output port was bound to a new drain stream (discard FSM reset).
    BindOut {
        /// Lane index.
        lane: u8,
        /// Output-port index.
        port: u8,
        /// The stream's production/discard FSM.
        discard: RateFsm,
        /// Keep-first vs drop-first phase selection.
        mode: ProdMode,
    },
    /// A load stream pushed the word at `addr` into an input port.
    /// Replay re-reads the address from *its* scratchpad image, which is
    /// how dataset values flow into the replayed computation.
    PushMem {
        /// Lane index.
        lane: u8,
        /// Destination input port.
        port: u8,
        /// Which scratchpad the word came from.
        target: MemTarget,
        /// Word address read.
        addr: i64,
        /// True when this word ended an inductive inner row.
        row_end: bool,
    },
    /// A const stream pushed an immediate (program-structural, therefore
    /// dataset-independent) value into an input port.
    PushConst {
        /// Lane index.
        lane: u8,
        /// Destination input port.
        port: u8,
        /// Raw bits of the immediate.
        bits: u64,
    },
    /// A stream-end flush landed on an input port (partial vector padded
    /// with predicated-off lanes).
    FlushIn {
        /// Lane index.
        lane: u8,
        /// Input-port index.
        port: u8,
    },
    /// A deferred staging flush landed on an input port's cycle tick.
    TickIn {
        /// Lane index.
        lane: u8,
        /// Input-port index.
        port: u8,
    },
    /// A region fired: inputs gathered from its ports, DFG evaluated.
    Fire {
        /// Lane index.
        lane: u8,
        /// Region index within the active configuration.
        region: u8,
        /// Valid-lane count the fire covered; replay recomputes this from
        /// its own port state and treats a mismatch as divergence.
        fire_valid: u32,
    },
    /// A matured systolic result left the pipeline for its output ports.
    Deliver {
        /// Lane index.
        lane: u8,
        /// Region index.
        region: u8,
    },
    /// A temporal (dataflow-PE) instance retired to its output ports.
    RetireTemp {
        /// Lane index.
        lane: u8,
        /// Region index.
        region: u8,
    },
    /// A store stream popped a kept value and wrote it to `addr`.
    PopStore {
        /// Lane index.
        lane: u8,
        /// Source output port.
        port: u8,
        /// Which scratchpad was written.
        target: MemTarget,
        /// Word address written.
        addr: i64,
    },
    /// A drain's `pop_kept` consumed spent/discarded values and returned
    /// nothing; replay repeats the call so discard-FSM state stays in
    /// lockstep, and treats a produced value as divergence.
    PopSpent {
        /// Lane index.
        lane: u8,
        /// Output-port index.
        port: u8,
    },
    /// An XFER moved one word from an output port to an input port
    /// (same lane or the right-hand neighbour).
    XferWord {
        /// Source lane.
        src_lane: u8,
        /// Source output port.
        src_port: u8,
        /// Destination lane.
        dst_lane: u8,
        /// Destination input port.
        dst_port: u8,
        /// True when this word ended an inductive inner row at the
        /// destination.
        row_end: bool,
    },
}

/// The recorded timing side of one cycle-accurate run: the functional
/// op sequence plus the run's full report (cycles, per-lane breakdown,
/// event counts), which every replayed dataset shares verbatim — that
/// *is* the obliviousness claim being cashed in.
#[derive(Debug, Clone)]
pub struct TimingTrace {
    /// Name of the program the trace was recorded from.
    pub program: String,
    /// The functional micro-ops in exact execution order.
    pub ops: Vec<TraceOp>,
    /// The timing run's report, shared by all replays.
    pub report: RunReport,
}

impl TimingTrace {
    /// Number of recorded micro-ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace recorded no functional activity.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Accumulates [`TraceOp`]s during a timing walk. Installed on the
/// machine by [`Machine::run_traced`]; `None` (the default) makes every
/// record site a no-op.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    pub(crate) ops: Vec<TraceOp>,
}

impl TraceRecorder {
    #[inline]
    pub(crate) fn record(&mut self, op: TraceOp) {
        self.ops.push(op);
    }
}

/// The functional replayer desynchronized from its recorded trace: a
/// checked port/region/memory operation did not behave as the timing
/// run promised. For certified programs this cannot happen; for a
/// value-dependent program replayed on a different dataset it is the
/// expected, structured failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending op within [`TimingTrace::ops`].
    pub op: usize,
    /// What desynchronized.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace replay diverged at op {}: {}", self.op, self.message)
    }
}

/// Shorthand constructor for replay desync errors.
fn desync(op: usize, message: impl Into<String>) -> SimError {
    SimError::Replay(ReplayError { op, message: message.into() })
}

impl Machine {
    /// Runs `program` cycle-accurately while recording the functional
    /// micro-op sequence, returning the [`TimingTrace`] (which embeds
    /// the run's [`RunReport`]).
    ///
    /// # Errors
    /// Everything [`Machine::run`] can return, plus [`SimError::Replay`]
    /// when the machine is configured with fault injection or a degraded
    /// fabric — perturbed runs are not oblivious and must never seed a
    /// replay trace (mirroring the engine's cache-bypass rule).
    pub fn run_traced(&mut self, program: &RevelProgram) -> Result<TimingTrace, SimError> {
        if self.opts.fault_plan.is_some() || self.opts.fabric_mask != FabricMask::HEALTHY {
            return Err(desync(
                0,
                "refusing to record a timing trace under fault injection or a degraded fabric",
            ));
        }
        self.trace = Some(TraceRecorder::default());
        let result = self.run(program);
        // Always uninstall the recorder, even when the run errored.
        let recorder = self.trace.take().expect("recorder installed above");
        let report = result?;
        Ok(TimingTrace { program: program.name.clone(), ops: recorder.ops, report })
    }

    /// Replays a recorded [`TimingTrace`] against this machine's current
    /// scratchpad contents (the dataset), reproducing byte-identical
    /// functional results without cycle stepping.
    ///
    /// The machine should be freshly initialized with the new dataset;
    /// control/lane dynamic state is reset exactly as [`Machine::run`]
    /// does (scratchpad contents are kept).
    ///
    /// # Errors
    /// [`SimError::Program`]/[`SimError::Schedule`] as in `run`, and
    /// [`SimError::Replay`] when the trace desynchronizes — a checked
    /// port operation misbehaves or an address leaves its scratchpad —
    /// which for an uncertified (value-dependent) program is the
    /// expected structured failure instead of a panic.
    pub fn replay(&mut self, program: &RevelProgram, trace: &TimingTrace) -> Result<(), SimError> {
        program.validate(&self.cfg.lane)?;
        let schedules = self.compiled_schedules(program)?;
        self.trace = None;
        self.control = Default::default();
        for lane in &mut self.lanes {
            lane.cmd_queue.clear();
            lane.streams.clear();
            lane.instances.clear();
            lane.regions.clear();
            lane.breakdown = Default::default();
            lane.events = Default::default();
            lane.reconfig_until = 0;
        }
        // Fired-but-undelivered outputs wait on their region's own result
        // queue, as in the timing walk, which bounds them (pipeline depth 8,
        // temporal instance cap 4) — so replay memory stays bounded too.
        for (i, op) in trace.ops.iter().enumerate() {
            match *op {
                TraceOp::Host { pc } => {
                    let Some(ControlStep::Host(host)) = program.control.get(pc as usize) else {
                        return Err(desync(i, format!("no host op at control pc {pc}")));
                    };
                    // Host ops are part of the trusted, validated program
                    // (not the dataset), so they use the same panicking
                    // memory adapter as the timing walk.
                    let mut mem = MachineMem { lanes: &mut self.lanes, shared: &mut self.shared };
                    (host.func)(&mut mem);
                }
                TraceOp::Configure { lane, config } => {
                    let l = self.lane_index(i, lane)?;
                    let c = config as usize;
                    if c >= program.configs.len() {
                        return Err(desync(i, format!("config {config} out of range")));
                    }
                    if self.lanes[l].regions.iter().any(|r| !r.idle()) {
                        return Err(desync(i, "reconfigure with undelivered region outputs"));
                    }
                    self.lanes[l].apply_config(&program.configs[c], &schedules[c]);
                }
                TraceOp::SetAccumLen { lane, region, len } => {
                    let l = self.lane_index(i, lane)?;
                    let r = region as usize;
                    if r >= self.lanes[l].regions.len() {
                        return Err(desync(i, format!("region {region} out of range")));
                    }
                    self.lanes[l].regions[r].set_accum_len(len);
                }
                TraceOp::BindIn { lane, port, reuse } => {
                    let l = self.lane_index(i, lane)?;
                    self.in_port(i, l, port)?.bind_stream(reuse);
                }
                TraceOp::BindOut { lane, port, discard, mode } => {
                    let l = self.lane_index(i, lane)?;
                    self.out_port(i, l, port)?.bind_stream_mode(discard, mode);
                }
                TraceOp::PushMem { lane, port, target, addr, row_end } => {
                    let l = self.lane_index(i, lane)?;
                    let bits = match target {
                        MemTarget::Private => self.lanes[l].spad.try_read(addr),
                        MemTarget::Shared => self.shared.try_read(addr),
                    };
                    let Some(bits) = bits else {
                        return Err(desync(i, format!("load address {addr} out of bounds")));
                    };
                    if !self.in_port(i, l, port)?.push_word(f64::from_bits(bits), row_end) {
                        return Err(desync(i, format!("input port {port} rejected a word")));
                    }
                }
                TraceOp::PushConst { lane, port, bits } => {
                    let l = self.lane_index(i, lane)?;
                    if !self.in_port(i, l, port)?.push_word(f64::from_bits(bits), false) {
                        return Err(desync(i, format!("input port {port} rejected a const")));
                    }
                }
                TraceOp::FlushIn { lane, port } => {
                    let l = self.lane_index(i, lane)?;
                    if !self.in_port(i, l, port)?.flush_at_stream_end() {
                        return Err(desync(i, format!("stream-end flush on port {port} failed")));
                    }
                }
                TraceOp::TickIn { lane, port } => {
                    let l = self.lane_index(i, lane)?;
                    if !self.in_port(i, l, port)?.tick() {
                        return Err(desync(i, format!("deferred flush on port {port} failed")));
                    }
                }
                TraceOp::Fire { lane, region, fire_valid } => {
                    let l = self.lane_index(i, lane)?;
                    let r = region as usize;
                    if r >= self.lanes[l].regions.len() {
                        return Err(desync(i, format!("region {region} out of range")));
                    }
                    let lane = &self.lanes[l];
                    for &p in lane.regions[r].input_port_ids() {
                        if lane.in_ports[p as usize].peek().is_none() {
                            return Err(desync(i, format!("input port {p} empty at fire")));
                        }
                    }
                    let computed = self.lanes[l].compute_fire_valid(r);
                    if computed != fire_valid {
                        return Err(desync(
                            i,
                            format!(
                                "fire covers {computed} valid lanes, trace recorded {fire_valid}"
                            ),
                        ));
                    }
                    self.lanes[l].gather_and_fire(r, fire_valid);
                    self.lanes[l].regions[r].replay_fired();
                }
                TraceOp::Deliver { lane, region } => self.deliver(i, lane, region, false)?,
                TraceOp::RetireTemp { lane, region } => self.deliver(i, lane, region, true)?,
                TraceOp::PopStore { lane, port, target, addr } => {
                    let l = self.lane_index(i, lane)?;
                    let Some(v) = self.out_port(i, l, port)?.pop_kept() else {
                        return Err(desync(i, format!("output port {port} produced no value")));
                    };
                    let ok = match target {
                        MemTarget::Private => self.lanes[l].spad.try_write(addr, v.to_bits()),
                        MemTarget::Shared => self.shared.try_write(addr, v.to_bits()),
                    };
                    if !ok {
                        return Err(desync(i, format!("store address {addr} out of bounds")));
                    }
                }
                TraceOp::PopSpent { lane, port } => {
                    let l = self.lane_index(i, lane)?;
                    if let Some(v) = self.out_port(i, l, port)?.pop_kept() {
                        return Err(desync(
                            i,
                            format!("output port {port} produced {v} where timing saw none"),
                        ));
                    }
                }
                TraceOp::XferWord { src_lane, src_port, dst_lane, dst_port, row_end } => {
                    let sl = self.lane_index(i, src_lane)?;
                    let Some(v) = self.out_port(i, sl, src_port)?.pop_kept() else {
                        return Err(desync(i, format!("xfer source port {src_port} was dry")));
                    };
                    let dl = self.lane_index(i, dst_lane)?;
                    if !self.in_port(i, dl, dst_port)?.push_word(v, row_end) {
                        return Err(desync(i, format!("xfer destination port {dst_port} full")));
                    }
                }
            }
        }
        if self.lanes.iter().flat_map(|l| &l.regions).any(|r| !r.idle()) {
            return Err(desync(trace.ops.len(), "undelivered region outputs at end of trace"));
        }
        Ok(())
    }

    fn lane_index(&self, op: usize, lane: u8) -> Result<usize, SimError> {
        let l = lane as usize;
        if l < self.lanes.len() {
            Ok(l)
        } else {
            Err(desync(op, format!("lane {lane} out of range ({} lanes)", self.lanes.len())))
        }
    }

    fn in_port(&mut self, op: usize, l: usize, port: u8) -> Result<&mut crate::InPort, SimError> {
        let n = self.lanes[l].in_ports.len();
        self.lanes[l]
            .in_ports
            .get_mut(port as usize)
            .ok_or_else(|| desync(op, format!("input port {port} out of range ({n} ports)")))
    }

    fn out_port(&mut self, op: usize, l: usize, port: u8) -> Result<&mut crate::OutPort, SimError> {
        let n = self.lanes[l].out_ports.len();
        self.lanes[l]
            .out_ports
            .get_mut(port as usize)
            .ok_or_else(|| desync(op, format!("output port {port} out of range ({n} ports)")))
    }

    /// Pushes region `region`'s oldest fired result set to its output
    /// ports, checking space the way the timing walk's delivery gate did.
    /// `temporal` is the kind of region the op retires from: a systolic
    /// `Deliver` never takes a temporal region's result, nor the reverse.
    fn deliver(&mut self, op: usize, lane: u8, region: u8, temporal: bool) -> Result<(), SimError> {
        let l = self.lane_index(op, lane)?;
        let Lane { regions, out_ports, .. } = &mut self.lanes[l];
        let outs = regions
            .get_mut(region as usize)
            .filter(|rs| rs.is_temporal() == temporal)
            .and_then(|rs| rs.replay_delivered());
        let Some(outs) = outs else {
            return Err(desync(op, "delivery with no fired result in flight"));
        };
        for (p, v) in outs {
            if !v.any_valid() {
                continue;
            }
            let n = out_ports.len();
            let Some(port) = out_ports.get_mut(p.0 as usize) else {
                return Err(desync(op, format!("output port {} out of range ({n} ports)", p.0)));
            };
            if !port.has_space() {
                return Err(desync(op, format!("output port {} full at delivery", p.0)));
            }
            port.push(v);
        }
        Ok(())
    }
}
