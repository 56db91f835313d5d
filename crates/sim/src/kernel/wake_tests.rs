//! The woken issue scan, the flagged retirement and the gated data pass
//! against the full scan, sweep and pass they replaced.
//!
//! Two copies of one machine step in lockstep over seeded random programs:
//! one through [`Machine::step`], the other with its issue and retirement
//! phases swapped for [`Machine::issue_commands_full`] (every lane's queue
//! scanned every cycle) and [`Machine::retire_streams_swept`] (every lane's
//! stream table swept every cycle). Every cycle both must issue the same
//! commands, hold the same stream tables and busy bits, and retire the same
//! streams. The random programs mix what the wake rules have to cover:
//! `XferRight` on 1, 2 and 8 lanes, queues and stream tables that fill,
//! leftover FIFO data under non-trivial reuse, a stream binding over the
//! previous stream's deferred last vector, `Configure`, `BarrierScratch`
//! and `SetAccumLen` at the head of a queue, per-lane reconfiguration, and
//! dropped-port faults. Directed programs add the cases where a single
//! event, arriving alone, unblocks a command: a neighbour's `XferRight`
//! retiring, a reconfiguration resetting a stranded port, and a
//! serializing command releasing with no event; and one that binds over a
//! deferred flush for certain.
//!
//! The data pass is checked the same way: a gated machine steps in lockstep
//! with one that runs every lane's port ticks, source streams, region fires,
//! deliveries and drains on every cycle (the reference stepper's pass), on
//! random programs that add a temporal region, zero-length streams and a
//! scarce shared scratchpad bandwidth to the mix, with every fault class
//! on a fifth of them, and on directed programs: a gated lane that finds
//! the shared budget spent, and a queue emptied by the third of three
//! serializing commands. Every cycle both must make the same progress
//! and hold the same ports, streams, region timers, event counts and
//! per-cycle flags.
//!
//! Row-run loads are checked against [`Machine::run_source_streams_by_word`],
//! the pass that moved every load word by word and asked the store→load
//! guard for each: the two step in lockstep on seeded programs whose rows
//! are shorter and longer than their ports, triangular and strided, with
//! budgets below a port's width, shared-budget starvation, deferred
//! flushes, older stores whose ranges meet or miss a run, and tag-mode
//! runs. Every cycle both must hold the same ports (every lane's bits),
//! walkers, flags and event counts, and each lane's tick mask must name
//! exactly the ports that owe a flush.

use super::{NextEvent, PortSet};
use crate::fault::{FaultPlan, FAULT_DROP_PORT};
use crate::lane::{Lane, StreamBody, WakeTally};
use crate::machine::{Machine, SimOptions};
use crate::trace::Recorder;
use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::{LaneConfig, RevelConfig};
use revel_isa::{
    AffinePattern, ConfigId, ConstPattern, InPortId, LaneId, LaneMask, MemTarget, OutPortId,
    RateFsm, Rng, StreamCommand, VectorCommand,
};
use revel_prog::RevelProgram;

/// The port of [`data_regions`]' temporal region.
const TEMPORAL: u8 = 8;

/// [`regions`] plus a temporal region on [`TEMPORAL`]: a reciprocal and a
/// product on the dPEs, whose completions retire into the output port.
fn data_regions(variant: usize) -> Vec<Region> {
    let mut g = Dfg::new("t8");
    let x = g.input(InPortId(TEMPORAL));
    let r = g.op(OpCode::Recip, &[x]);
    let y = g.op(OpCode::Mul, &[r, r]);
    g.output(y, OutPortId(TEMPORAL));
    let mut regions = regions(variant);
    regions.push(Region::temporal("t8", g));
    regions
}

/// One region per port pair: two width-4 chains, three scalar chains, and
/// a two-input scalar add, which strands data on one input when the other
/// runs dry. `variant` changes the ops, so the two configurations differ.
fn regions(variant: usize) -> Vec<Region> {
    let chain = |name: &str, port: u8, width: usize, op: OpCode| {
        let mut g = Dfg::new(name);
        let x = g.input(InPortId(port));
        let y = match op {
            OpCode::Mov | OpCode::Neg => g.op(op, &[x]),
            _ => g.op(op, &[x, x]),
        };
        g.output(y, OutPortId(port));
        Region::systolic(name, g, width)
    };
    let op = |a, b| if variant == 0 { a } else { b };
    let mut pair = Dfg::new("pair");
    let a = pair.input(InPortId(PAIR.0));
    let b = pair.input(InPortId(PAIR.1));
    let sum = pair.op(op(OpCode::Add, OpCode::Mul), &[a, b]);
    pair.output(sum, OutPortId(PAIR.0));
    vec![
        chain("v2", 2, 4, op(OpCode::Mov, OpCode::Neg)),
        chain("v3", 3, 4, OpCode::Neg),
        chain("s6", 6, 1, op(OpCode::Mov, OpCode::Add)),
        chain("s7", 7, 1, OpCode::Mul),
        chain("s11", 11, 1, op(OpCode::Neg, OpCode::Mov)),
        Region::systolic("pair", pair, 1),
    ]
}

/// The two inputs of the `pair` region; its output is `PAIR.0`.
const PAIR: (u8, u8) = (9, 10);

/// Ports of the single-input regions: `(port, width)`.
const CHAINS: [(u8, i64); 5] = [(2, 4), (3, 4), (6, 1), (7, 1), (11, 1)];

struct Gen {
    rng: Rng,
    prog: RevelProgram,
    lanes: usize,
    /// The configurations hold [`data_regions`]' temporal region.
    temporal: bool,
}

impl Gen {
    /// Every lane, or one random lane.
    fn pick(&mut self, broadcast: bool) -> LaneMask {
        if broadcast {
            LaneMask::all(self.lanes as u8)
        } else {
            LaneMask::single(LaneId(self.rng.gen_index(self.lanes) as u8))
        }
    }

    fn push(&mut self, lanes: LaneMask, cmds: &[StreamCommand]) {
        for cmd in cmds {
            self.prog.push(VectorCommand::broadcast(lanes, cmd.clone()));
        }
    }

    /// Uses per value of a stream: mostly once, sometimes two or three
    /// times. A once-per-value stream may bind over a port's leftover data,
    /// including a last vector whose flush the previous XFER or const
    /// deferred.
    fn uses(&mut self) -> i64 {
        [1, 1, 2, 3][self.rng.gen_index(4)]
    }

    fn addr(&mut self) -> i64 {
        self.rng.gen_range_i64(0, 900)
    }

    fn target(&mut self) -> MemTarget {
        if self.rng.gen_index(4) == 0 {
            MemTarget::Shared
        } else {
            MemTarget::Private
        }
    }

    fn load(&mut self, n: i64, port: u8, uses: i64) -> StreamCommand {
        let (target, at) = (self.target(), self.addr());
        let pattern = AffinePattern::linear(at, n);
        StreamCommand::load(target, pattern, InPortId(port), RateFsm::fixed(uses))
    }

    fn store(&mut self, port: u8, n: i64) -> StreamCommand {
        let (target, at) = (self.target(), self.addr());
        let pattern = AffinePattern::linear(at, n);
        StreamCommand::store(OutPortId(port), target, pattern, RateFsm::ONCE)
    }

    /// One step of a program: a flow through a region (or two, joined by
    /// an XFER), or one serializing command. Every flow stores what its
    /// regions produce.
    fn step(&mut self, kind: usize) {
        let broadcast = self.lanes == 1 || self.rng.gen_bool();
        let lanes = self.pick(broadcast);
        let once = RateFsm::ONCE;
        match kind {
            0..=2 => {
                // Memory → chain → memory.
                let (port, _) = CHAINS[self.rng.gen_index(CHAINS.len())];
                let uses = self.uses();
                let n = self.rng.gen_range_i64(1, 24);
                let cmds = [self.load(n, port, uses), self.store(port, n * uses)];
                self.push(lanes, &cmds);
            }
            3 if self.rng.gen_index(3) == 0 => {
                // Constants onto the pair's first input, left for a later
                // pair flow. With nothing on the second input they fill the
                // first's FIFO, so the last word's flush is deferred when
                // the const retires, and the next stream there may bind over
                // it.
                let n = self.rng.gen_range_i64(4, 9);
                let konst = ConstPattern::repeat(2.5f64.to_bits(), n);
                self.push(lanes, &[StreamCommand::konst(InPortId(PAIR.0), konst)]);
            }
            3 => {
                // Constants → chain → memory, in whole vectors.
                let (port, width) = CHAINS[self.rng.gen_index(CHAINS.len())];
                let n = width * self.rng.gen_range_i64(1, 6);
                let konst = ConstPattern::repeat(2.5f64.to_bits(), n);
                let cmds = [StreamCommand::konst(InPortId(port), konst), self.store(port, n)];
                self.push(lanes, &cmds);
            }
            4 | 5 => {
                // Two inputs, the first stranding `left` values behind the
                // second.
                let uses = self.uses();
                let (left, n) = (self.rng.gen_range_i64(0, 3), self.rng.gen_range_i64(3, 12));
                let fires = (n - left) * uses;
                let cmds = [
                    self.load(n, PAIR.0, uses),
                    self.load(fires, PAIR.1, 1),
                    self.store(PAIR.0, fires),
                ];
                self.push(lanes, &cmds);
            }
            6 => {
                // A local XFER between the vector chains, or the scalar ones,
                // in whole vectors.
                let (from, to, width) = if self.rng.gen_bool() { (2, 3, 4) } else { (6, 7, 1) };
                let (load_uses, uses) = (self.uses(), self.uses());
                let n = width * self.rng.gen_range_i64(1, 6);
                let reuse = RateFsm::fixed(uses);
                let cmds = [
                    self.load(n, from, load_uses),
                    StreamCommand::xfer(OutPortId(from), InPortId(to), n * load_uses, once, reuse),
                    self.store(to, n * load_uses * uses),
                ];
                self.push(lanes, &cmds);
            }
            7 | 8 => {
                // Every lane hands a scalar chain's output to its right
                // neighbour: into a chain, or onto the pair's first input.
                // (On one lane the hop is local.)
                let all = LaneMask::all(self.lanes as u8);
                let (from, to) = if self.rng.gen_bool() { (6, 7) } else { (11, PAIR.0) };
                let (load_uses, uses) = (self.uses(), self.uses());
                let words = self.rng.gen_range_i64(1, 10) * load_uses;
                let xfer = StreamCommand::xfer_right(
                    OutPortId(from),
                    InPortId(to),
                    words,
                    once,
                    RateFsm::fixed(uses),
                );
                let mut cmds = vec![self.load(words / load_uses, from, load_uses), xfer];
                if to == PAIR.0 {
                    let left = self.rng.gen_range_i64(0, 3).min(words - 1);
                    let fires = (words - left) * uses;
                    cmds.insert(1, self.load(fires, PAIR.1, 1));
                    cmds.push(self.store(PAIR.0, fires));
                } else {
                    cmds.push(self.store(to, words * uses));
                }
                self.push(all, &cmds);
            }
            9 if self.temporal && self.rng.gen_bool() => {
                // Memory → dPEs → memory.
                let n = self.rng.gen_range_i64(1, 12);
                let cmds = [self.load(n, TEMPORAL, 1), self.store(TEMPORAL, n)];
                self.push(lanes, &cmds);
            }
            9 if self.temporal && self.rng.gen_bool() => {
                // A stream of no words: it binds its port and retires
                // without moving anything.
                let (port, _) = CHAINS[self.rng.gen_index(CHAINS.len())];
                let cmd = if self.rng.gen_bool() {
                    self.store(port, 0)
                } else {
                    StreamCommand::konst(InPortId(port), ConstPattern::repeat(0, 0))
                };
                self.push(lanes, &[cmd]);
            }
            9 => self.push(lanes, &[StreamCommand::BarrierScratch]),
            10 => {
                // A flow queued behind it issues as soon as the region
                // drains, with no wake event in between.
                let region = self.rng.gen_index(6) as u32;
                let len = RateFsm::fixed(self.rng.gen_range_i64(1, 5));
                self.push(lanes, &[StreamCommand::SetAccumLen { region, len }]);
                self.step(0);
            }
            _ => match self.rng.gen_index(3) {
                0 => self.prog.push(VectorCommand::broadcast(lanes, StreamCommand::Wait)),
                _ => {
                    let config = ConfigId(self.rng.gen_index(2) as u32);
                    self.push(lanes, &[StreamCommand::Configure { config }]);
                }
            },
        }
    }
}

/// A seeded random program on `lanes` lanes.
fn random_program(seed: u64, lanes: usize) -> RevelProgram {
    generate(seed, lanes, false)
}

/// A seeded random program on `lanes` lanes, over [`data_regions`] when
/// `temporal`.
fn generate(seed: u64, lanes: usize, temporal: bool) -> RevelProgram {
    let mut g = Gen {
        rng: Rng::seed_from_u64(seed),
        prog: RevelProgram::new(format!("wake-{lanes}-{seed}{}", if temporal { "-t" } else { "" })),
        lanes,
        temporal,
    };
    for variant in 0..2 {
        g.prog.add_config(if temporal { data_regions(variant) } else { regions(variant) });
    }
    let all = LaneMask::all(lanes as u8);
    g.push(all, &[StreamCommand::Configure { config: ConfigId(0) }]);
    for _ in 0..8 + g.rng.gen_index(24) {
        let kind = g.rng.gen_index(12);
        g.step(kind);
    }
    g.prog.push(VectorCommand::broadcast(all, StreamCommand::Wait));
    g.prog
}

/// What the two machines must agree on after every phase pair: each lane's
/// queue, stream table (kind, ports and progress of each entry) and busy
/// bits.
fn lane_state(lane: &Lane) -> impl PartialEq + std::fmt::Debug + '_ {
    let table: Vec<(Option<u8>, Option<u8>, i64)> = lane
        .streams
        .iter()
        .map(|s| {
            let left = match &s.body {
                // The next address, then whether the end flush landed.
                StreamBody::Load { walker, flushed, .. } => {
                    walker.peek().map_or(-i64::from(*flushed), |e| e.offset)
                }
                StreamBody::Store { written, .. } => written.len() as i64,
                StreamBody::Const { values, .. } => values.len() as i64,
                StreamBody::XferLocal { remaining, .. }
                | StreamBody::XferRight { remaining, .. } => *remaining,
            };
            (s.local_in_port(), s.local_out_port(), left)
        })
        .collect();
    (&lane.cmd_queue, table, &lane.in_busy, &lane.out_busy)
}

/// Coverage of the situations the wake rules have to get right, summed over
/// every lane-cycle of every program.
#[derive(Debug, Default)]
struct Seen {
    skipped_scans: u64,
    skipped_sweeps: u64,
    full_tables: u64,
    full_queues: u64,
    xfers_right: u64,
    stranded_reuse: u64,
    bound_over_deferred_flush: u64,
    serializing_heads: [u64; 3],
    faults: u64,
}

impl Seen {
    /// Notes what `m` is about to step through.
    fn note(&mut self, m: &Machine) {
        let n = m.lanes.len();
        for (li, lane) in m.lanes.iter().enumerate() {
            let wake = (lane.wake, m.lanes[(li + 1) % n].wake);
            match lane.cmd_queue.front() {
                Some(StreamCommand::Configure { .. }) => self.serializing_heads[0] += 1,
                Some(StreamCommand::BarrierScratch) => self.serializing_heads[1] += 1,
                Some(StreamCommand::SetAccumLen { .. }) => self.serializing_heads[2] += 1,
                Some(_) if lane.idle_scan == Some(wake) => self.skipped_scans += 1,
                _ => {}
            }
            self.skipped_sweeps += u64::from(!lane.streams.is_empty() && !lane.retire_due);
            self.full_tables += u64::from(lane.streams.len() == m.cfg.lane.stream_table_entries);
            self.full_queues += u64::from(lane.cmd_queue.len() == m.cfg.lane.cmd_queue_entries);
            let right =
                |s: &&crate::lane::ActiveStream| matches!(s.body, StreamBody::XferRight { .. });
            self.xfers_right += lane.streams.iter().filter(right).count() as u64;
            let stranded = lane.in_ports.iter().zip(&lane.in_busy);
            self.stranded_reuse += stranded
                .filter(|(p, busy)| !**busy && !p.is_drained() && !p.reuse_is_trivial())
                .count() as u64;
            self.bound_over_deferred_flush +=
                lane.in_ports.iter().filter(|p| p.bound_over_deferred_flush()).count() as u64;
        }
    }
}

/// Runs `program` on `cfg` twice in lockstep, woken and full, until it
/// finishes or deadlocks (at most 3 000 cycles). Returns whether it
/// finished.
fn lockstep(program: &RevelProgram, cfg: RevelConfig, opts: SimOptions, seen: &mut Seen) -> bool {
    program.validate(&cfg.lane).expect("a valid program");
    let mut woken = Machine::new(cfg, opts);
    let schedules = woken.compiled_schedules(program).expect("the configurations fit");
    woken.reset_faults();
    let mut full = woken.clone();
    let mut finished = false;
    for now in 0..3_000 {
        finished = woken.program_finished(program);
        assert_eq!(finished, full.program_finished(program), "{}: cycle {now}", program.name);
        if finished {
            break;
        }
        seen.note(&woken);
        let (mut issued, mut retired) = ((false, false), (false, false));
        let woken_progress = woken.step_with(
            now,
            program,
            &schedules,
            |m, now, p, s| {
                issued.0 = m.issue_commands(now, p, s);
                issued.0
            },
            Machine::run_source_streams,
            |m| {
                retired.0 = m.retire_streams();
                retired.0
            },
        );
        let full_progress = full.step_with(
            now,
            program,
            &schedules,
            |m, now, p, s| {
                issued.1 = m.issue_commands_full(now, p, s);
                issued.1
            },
            Machine::run_source_streams,
            |m| {
                retired.1 = m.retire_streams_swept();
                retired.1
            },
        );
        let what = format!("{}: cycle {now}", program.name);
        assert_eq!(issued.0, issued.1, "{what}: issue progress");
        assert_eq!(retired.0, retired.1, "{what}: retirement");
        assert_eq!(woken_progress, full_progress, "{what}: progress");
        for (li, (w, f)) in woken.lanes.iter().zip(&full.lanes).enumerate() {
            assert_eq!(lane_state(w), lane_state(f), "{what}, lane {li}");
        }
        if !woken_progress && woken.next_event(now).is_none() {
            break; // deadlocked: no later cycle can differ from this one
        }
    }
    let faults = woken.faults.snapshot().map(|f| f.records);
    seen.faults += faults.iter().flatten().filter(|r| r.applied).count() as u64;
    finished
}

#[test]
fn woken_issue_and_flagged_retirement_match_the_full_scan_and_sweep() {
    let mut seen = Seen::default();
    for seed in 0..72u64 {
        let pick = |of: usize, every: u64| (seed / every) as usize % of;
        let lanes = [1, 2, 8][pick(3, 1)];
        let deep = pick(2, 18) == 1;
        let lane = LaneConfig {
            stream_table_entries: [2, 4, 8][pick(3, 3)],
            cmd_queue_entries: [8, 3][pick(2, 9)],
            port_fifo_depth: if deep { 1_000 } else { 4 },
            ..LaneConfig::paper_default()
        };
        let cfg = RevelConfig { num_lanes: lanes, lane, ..RevelConfig::paper_default() };
        let fault_plan =
            (seed % 4 == 3).then(|| FaultPlan::new(seed, 40, 400).with_kinds(FAULT_DROP_PORT));
        let opts = SimOptions { fault_plan, ..SimOptions::default() };
        lockstep(&random_program(seed, lanes), cfg, opts, &mut seen);
    }
    let Seen { skipped_scans, skipped_sweeps, full_tables, full_queues, xfers_right, .. } = seen;
    let covered = [skipped_scans, skipped_sweeps, full_tables, full_queues, xfers_right];
    assert!(covered.iter().all(|n| *n > 0), "{seen:?}");
    assert!(seen.stranded_reuse > 0 && seen.faults > 0, "{seen:?}");
    assert!(seen.bound_over_deferred_flush > 0, "{seen:?}");
    assert!(seen.serializing_heads.iter().all(|n| *n > 0), "{seen:?}");
}

/// Programs in which one wake event, with nothing else waking the lane, is
/// what lets a queued command issue. Random programs reach these only
/// rarely, because most events arrive in company.
fn directed_programs() -> Vec<(RevelProgram, RevelConfig)> {
    let private = |at, n| AffinePattern::linear(at, n);
    let load = |at, n, port, uses| {
        StreamCommand::load(
            MemTarget::Private,
            private(at, n),
            InPortId(port),
            RateFsm::fixed(uses),
        )
    };
    let store = |port, at, n| {
        StreamCommand::store(OutPortId(port), MemTarget::Private, private(at, n), RateFsm::ONCE)
    };
    let once = RateFsm::ONCE;
    let configure = StreamCommand::Configure { config: ConfigId(0) };
    let program = |name: &str, lanes: u8, cmds: Vec<(Option<u8>, StreamCommand)>| {
        let mut prog = RevelProgram::new(name);
        prog.add_config(regions(0));
        for (lane, cmd) in cmds {
            let mask = lane.map_or(LaneMask::all(lanes), |l| LaneMask::single(LaneId(l)));
            prog.push(VectorCommand::broadcast(mask, cmd));
        }
        prog.push(VectorCommand::broadcast(LaneMask::all(lanes), StreamCommand::Wait));
        prog
    };
    let three = RevelConfig { num_lanes: 3, ..RevelConfig::paper_default() };
    let deep = LaneConfig { port_fifo_depth: 1_000, ..LaneConfig::paper_default() };

    // Lane 0's long `XferRight` holds lane 1's in7; lane 1's own load into
    // in7, queued after it bound, may bind over the transfer's leftover
    // data once the transfer retires (deep FIFOs: no flush is deferred).
    let mut fillers = vec![(Some(2), StreamCommand::BarrierScratch); 8];
    let mut freed = vec![
        (None, configure.clone()),
        (Some(0), load(0, 40, 6, 1)),
        (Some(0), StreamCommand::xfer_right(OutPortId(6), InPortId(7), 40, once, once)),
        (Some(1), store(7, 100, 43)),
    ];
    freed.append(&mut fillers);
    freed.push((Some(1), load(200, 3, 7, 1)));
    let freed = program("wake-xfer-right-frees", 3, freed);

    // Lane 1 strands three values on in9 under non-trivial reuse, so lane
    // 0's `XferRight` into it waits until lane 1's reconfiguration resets
    // its ports. Lane 1's next load fills in10 and stalls there, so it
    // neither retires nor drains before the transfer arrives.
    let reset = program(
        "wake-apply-config",
        3,
        vec![
            (None, configure.clone()),
            (Some(1), load(0, 3, PAIR.0, 2)),
            (Some(0), load(0, 10, 11, 1)),
            (
                Some(0),
                StreamCommand::xfer_right(
                    OutPortId(11),
                    InPortId(PAIR.0),
                    10,
                    once,
                    RateFsm::fixed(2),
                ),
            ),
            (Some(1), configure.clone()),
            (Some(1), load(16, 20, PAIR.1, 1)),
            (Some(1), store(PAIR.0, 100, 20)),
        ],
    );

    // The store on out6 outlives the region's five fires, so
    // `SetAccumLen` releases when the region drains, with no event. It and
    // the load behind it, which stalls on the full in2 until its store
    // issues, are one scan's two issues; the next scan must still run.
    let released = program(
        "wake-serializing-release",
        1,
        vec![
            (None, configure.clone()),
            (None, load(0, 5, 6, 1)),
            (None, store(6, 200, 10)),
            (None, StreamCommand::SetAccumLen { region: 2, len: RateFsm::fixed(1) }),
            (None, load(300, 40, 2, 1)),
            (None, store(2, 400, 40)),
            (None, load(20, 5, 6, 1)),
        ],
    );
    // A const fills in9 while the pair region waits for in10, which a
    // barrier holds back behind a long store; its last word's flush is
    // deferred when it retires. The load behind the barrier binds in9 over
    // that deferred vector (both once per value), and the pair drains both
    // once in10's load issues.
    let depth = LaneConfig::paper_default().port_fifo_depth as i64;
    let konst = ConstPattern::repeat(2.5f64.to_bits(), depth + 1);
    let rebound = program(
        "wake-bind-over-deferred-flush",
        1,
        vec![
            (None, configure),
            (None, load(0, 24, 6, 1)),
            (None, store(6, 200, 24)),
            (None, StreamCommand::konst(InPortId(PAIR.0), konst)),
            (None, StreamCommand::BarrierScratch),
            (None, load(300, 4, PAIR.0, 1)),
            (None, load(400, depth + 5, PAIR.1, 1)),
            (None, store(PAIR.0, 500, depth + 5)),
        ],
    );
    let one = RevelConfig::single_lane();
    vec![
        (freed, RevelConfig { lane: deep, ..three.clone() }),
        (reset, three),
        (released, one.clone()),
        (rebound, one),
    ]
}

#[test]
fn directed_programs_match_the_full_scan_and_sweep() {
    let mut seen = Seen::default();
    for (program, cfg) in directed_programs() {
        let finished = lockstep(&program, cfg, SimOptions::default(), &mut seen);
        assert!(finished, "{} finishes", program.name);
    }
    assert!(seen.bound_over_deferred_flush > 0, "{seen:?}");
}

/// What a gated and an ungated machine must agree on after every cycle,
/// beyond [`lane_state`]: each lane's ports, region timers, temporal
/// instances, event counts and the per-cycle flags the classifier reads.
fn data_state(lane: &Lane) -> impl PartialEq + std::fmt::Debug + '_ {
    let ins: Vec<(usize, bool, bool)> =
        lane.in_ports.iter().map(|p| (p.occupancy(), p.is_drained(), p.can_accept())).collect();
    let outs: Vec<usize> = lane.out_ports.iter().map(|p| p.occupancy()).collect();
    let regions: Vec<(u64, usize, usize)> = lane
        .regions
        .iter()
        .map(|r| (r.next_fire_cycle(), r.inflight_len(), r.temporal_instances()))
        .collect();
    let flags = (
        lane.fired_systolic,
        lane.fired_temporal,
        lane.bw_starved,
        lane.barrier_blocked,
        lane.dep_blocked,
        lane.draining,
        lane.last_class,
    );
    (ins, outs, regions, lane.instances.len(), lane.events, flags)
}

/// Runs `program` on `cfg` twice in lockstep, with gated data passes and
/// with every lane's full pass on every cycle, until it finishes or
/// deadlocks (at most 3 000 cycles). Returns the gated machine's tally.
fn lockstep_data(program: &RevelProgram, cfg: RevelConfig, opts: SimOptions) -> WakeTally {
    program.validate(&cfg.lane).expect("a valid program");
    let mut gated = Machine::new(cfg, opts);
    let schedules = gated.compiled_schedules(program).expect("the configurations fit");
    gated.reset_faults();
    let mut full = gated.clone();
    full.opts.reference_stepper = true;
    for now in 0..3_000 {
        let finished = gated.program_finished(program);
        assert_eq!(finished, full.program_finished(program), "{}: cycle {now}", program.name);
        if finished {
            break;
        }
        let gated_progress = gated.step(now, program, &schedules);
        let full_progress = full.step(now, program, &schedules);
        let what = format!("{}: cycle {now}", program.name);
        assert_eq!(gated_progress, full_progress, "{what}: progress");
        for (li, (g, f)) in gated.lanes.iter().zip(&full.lanes).enumerate() {
            assert_eq!(lane_state(g), lane_state(f), "{what}, lane {li}");
            assert_eq!(data_state(g), data_state(f), "{what}, lane {li}");
        }
        if !gated_progress && gated.next_event(now).is_none() {
            break; // deadlocked: no later cycle can differ from this one
        }
    }
    assert_eq!(gated.faults.snapshot(), full.faults.snapshot(), "{}", program.name);
    let mut tally = WakeTally::default();
    for lane in &gated.lanes {
        add(&mut tally, &lane.data.tally);
    }
    for (g, f) in gated.lanes.iter().zip(&full.lanes) {
        assert_eq!(g.spad, f.spad, "{}: scratchpads diverged", program.name);
    }
    assert_eq!(gated.shared, full.shared, "{}: shared scratchpads diverged", program.name);
    tally
}

fn add(into: &mut WakeTally, t: &WakeTally) {
    into.gated += t.gated;
    into.woken_by_retirement += t.woken_by_retirement;
    into.woken_by_right_space += t.woken_by_right_space;
    into.run_for_shared_budget += t.run_for_shared_budget;
}

#[test]
fn gated_data_passes_match_every_lanes_full_pass() {
    let mut tally = WakeTally::default();
    for seed in 0..60u64 {
        let pick = |of: usize, every: u64| (seed / every) as usize % of;
        let lanes = [1, 2, 8][pick(3, 1)];
        let lane = LaneConfig {
            stream_table_entries: [4, 8][pick(2, 3)],
            port_fifo_depth: [4, 2][pick(2, 6)],
            ..LaneConfig::paper_default()
        };
        let cfg = RevelConfig {
            num_lanes: lanes,
            lane,
            shared_spad_bw_words: [8, 2, 1][pick(3, 12)],
            ..RevelConfig::paper_default()
        };
        let fault_plan = (seed % 5 == 4).then(|| FaultPlan::new(seed, 12, 600));
        let opts = SimOptions { fault_plan, ..SimOptions::default() };
        let program = generate(seed, lanes, true);
        add(&mut tally, &lockstep_data(&program, cfg, opts));
    }
    assert!(tally.gated > 0, "{tally:?}");
    assert!(tally.woken_by_retirement > 0 && tally.woken_by_right_space > 0, "{tally:?}");
    assert!(tally.run_for_shared_budget > 0, "{tally:?}");
}

#[test]
fn a_gated_lane_behind_a_spent_shared_budget_runs_its_pass() {
    // Lane 1 fills the pair region's first input from the shared
    // scratchpad and waits, gated, for the second. Then lane 0 streams from
    // the shared scratchpad at its whole budget of one word a cycle, so
    // lane 1's pass finds none left and flags it starved.
    let shared = |at, n, port| {
        let pattern = AffinePattern::linear(at, n);
        StreamCommand::load(MemTarget::Shared, pattern, InPortId(port), RateFsm::ONCE)
    };
    let private = |at, n| AffinePattern::linear(at, n);
    let mut prog = RevelProgram::new("wake-shared-budget");
    prog.add_config(regions(0));
    let on = |lane, cmd| VectorCommand::on_lane(LaneId(lane), cmd);
    prog.push(VectorCommand::broadcast(
        LaneMask::all(2),
        StreamCommand::Configure { config: ConfigId(0) },
    ));
    prog.push(on(1, shared(0, 12, PAIR.0)));
    prog.push_host(120, |_| {}); // past the reconfiguration
    prog.push(on(0, shared(100, 40, 6)));
    prog.push(on(
        0,
        StreamCommand::store(OutPortId(6), MemTarget::Private, private(0, 40), RateFsm::ONCE),
    ));
    let pair =
        StreamCommand::load(MemTarget::Private, private(200, 12), InPortId(PAIR.1), RateFsm::ONCE);
    prog.push(on(1, pair));
    prog.push(on(
        1,
        StreamCommand::store(
            OutPortId(PAIR.0),
            MemTarget::Private,
            private(300, 12),
            RateFsm::ONCE,
        ),
    ));
    prog.push(VectorCommand::broadcast(LaneMask::all(2), StreamCommand::Wait));
    let cfg = RevelConfig { num_lanes: 2, shared_spad_bw_words: 1, ..RevelConfig::paper_default() };
    let tally = lockstep_data(&prog, cfg, SimOptions::default());
    assert!(tally.gated > 0 && tally.run_for_shared_budget > 0, "{tally:?}");
}

#[test]
fn a_serializing_release_that_empties_the_queue_wakes_the_pass() {
    // The pair region holds three values on one input while a store runs
    // with three serializing commands queued behind it. The store retires;
    // the next scan releases two of them, and that cycle's idle pass flags
    // the stranded region dependence-blocked (the queue is not empty). The
    // scan after releases the last, so the lane has nothing pending and
    // the stranded region no longer counts as blocked.
    let private = |at, n| AffinePattern::linear(at, n);
    let load = |at, n, port| {
        StreamCommand::load(MemTarget::Private, private(at, n), InPortId(port), RateFsm::ONCE)
    };
    let barrier = StreamCommand::BarrierScratch;
    let accum = StreamCommand::SetAccumLen { region: 2, len: RateFsm::fixed(1) };
    let tails = [
        ("wake-release-barriers", [barrier.clone(), barrier.clone(), barrier.clone()]),
        ("wake-release-accum-lens", [barrier, accum.clone(), accum]),
    ];
    for (name, tail) in tails {
        let mut prog = RevelProgram::new(name);
        prog.add_config(regions(0));
        let mut cmds = vec![
            StreamCommand::Configure { config: ConfigId(0) },
            load(300, 3, PAIR.0),
            load(0, 5, 6),
            StreamCommand::store(OutPortId(6), MemTarget::Private, private(200, 5), RateFsm::ONCE),
        ];
        cmds.extend(tail);
        cmds.push(StreamCommand::Wait);
        for cmd in cmds {
            prog.push(VectorCommand::broadcast(LaneMask::all(1), cmd));
        }
        let tally = lockstep_data(&prog, RevelConfig::single_lane(), SimOptions::default());
        assert!(tally.gated > 0, "{name}: {tally:?}");
    }
}

impl Machine {
    /// The source pass before row runs: every load moves one word per
    /// iteration and asks the store→load guard for each. Besides the
    /// woken pass's port-flush mask, it is the pass the row runs replaced.
    pub(crate) fn run_source_streams_by_word(&mut self) -> bool {
        let mut progress = false;
        let mut shared_budget = self.cfg.shared_spad_bw_words;
        let num_lanes = self.lanes.len();
        for li in 0..num_lanes {
            let lane = &mut self.lanes[li];
            if lane.data.gated && (shared_budget > 0 || !lane.data.shared) {
                continue;
            }
            lane.data.tally.run_for_shared_budget += u64::from(lane.data.gated);
            let mut priv_budget = lane.cfg.spad_bw_words;
            let mut const_budget = lane.cfg.xfer_bw_words;
            let Lane { streams, in_ports, flush_owed, spad, events, retire_due, .. } = lane;
            let mut moved = false;
            let mut starved = false;
            let mut sync_blocked = false;
            let mut shared = false;
            for si in 0..streams.len() {
                let (older, rest) = streams.split_at_mut(si);
                match &mut rest[0].body {
                    StreamBody::Load { target, walker, dst, flushed } => {
                        let budget: &mut usize = match target {
                            MemTarget::Private => &mut priv_budget,
                            MemTarget::Shared => &mut shared_budget,
                        };
                        let port = &mut in_ports[*dst as usize];
                        shared |= *target == MemTarget::Shared && !walker.exhausted();
                        while let Some(elem) = walker.peek() {
                            if *budget == 0 {
                                starved = true;
                                break;
                            }
                            if !port.can_accept() {
                                break;
                            }
                            let blocked = older.iter().any(|s| match &s.body {
                                StreamBody::Store {
                                    target: starget, walker: sw, written, ..
                                } => {
                                    *starget == *target
                                        && sw.remaining_contains(elem.offset)
                                        && (!written.contains(elem.offset)
                                            || sw.current_row() <= elem.j)
                                }
                                _ => false,
                            });
                            if blocked {
                                sync_blocked = true;
                                break;
                            }
                            let spad = match target {
                                MemTarget::Private => &*spad,
                                MemTarget::Shared => &self.shared,
                            };
                            let val = match &mut self.recorder {
                                Some(rec) => rec.load(*target, li, spad, elem.offset),
                                None => spad.read_f64(elem.offset),
                            };
                            if !port.push_word(val, elem.last_in_row) {
                                break;
                            }
                            walker.advance();
                            *budget -= 1;
                            moved = true;
                            events.port_words += 1;
                            match target {
                                MemTarget::Private => events.spad_words += 1,
                                MemTarget::Shared => events.shared_spad_words += 1,
                            }
                        }
                        if walker.exhausted() && !*flushed {
                            *flushed = port.flush_at_stream_end();
                            moved |= *flushed;
                            *retire_due |= *flushed;
                        }
                        flush_owed.set(*dst, port.owes_flush());
                    }
                    StreamBody::Const { dst, values } => {
                        let port = &mut in_ports[*dst as usize];
                        while const_budget > 0 {
                            let Some(&v) = values.front() else { break };
                            if !port.can_accept() {
                                break;
                            }
                            let v = self.recorder.as_mut().map_or(v, |rec| rec.constant(v));
                            if !port.push_word(v, values.len() == 1) {
                                break;
                            }
                            values.pop_front();
                            const_budget -= 1;
                            moved = true;
                            events.port_words += 1;
                        }
                        *retire_due |= values.is_empty();
                        flush_owed.set(*dst, port.owes_flush());
                    }
                    _ => {}
                }
            }
            lane.bw_starved |= starved;
            lane.barrier_blocked |= sync_blocked;
            lane.data.guard = sync_blocked;
            lane.data.shared |= shared;
            lane.data.moved |= moved;
            progress |= moved;
        }
        progress
    }
}

/// Regions of the row-run programs, one per port of each hardware width:
/// chains at widths 8, 4, 2 and 1, a second width-4 chain for local XFERs,
/// and a scalar one for `XferRight`s into the right lane.
fn run_regions() -> Vec<Region> {
    let chain = |name: &str, port: u8, width: usize, op: OpCode| {
        let mut g = Dfg::new(name);
        let x = g.input(InPortId(port));
        let y = match op {
            OpCode::Mov | OpCode::Neg => g.op(op, &[x]),
            _ => g.op(op, &[x, x]),
        };
        g.output(y, OutPortId(port));
        Region::systolic(name, g, width)
    };
    vec![
        chain("w8", 0, 8, OpCode::Mul),
        chain("w4", 2, 4, OpCode::Add),
        chain("x4", 3, 4, OpCode::Neg),
        chain("w2", 4, 2, OpCode::Neg),
        chain("s6", 6, 1, OpCode::Mov),
        chain("s7", 7, 1, OpCode::Neg),
    ]
}

/// Ports of [`run_regions`]' loads: `(port, width)`.
const RUN_CHAINS: [(u8, i64); 4] = [(0, 8), (2, 4), (4, 2), (6, 1)];

/// What a row-run program's generator put in it.
#[derive(Debug, Default)]
struct RunMix {
    stretched: u64,
    strided: u64,
    read_back: u64,
}

/// A seeded random program of loads whose rows are shorter and longer
/// than their ports, triangular, strided, read back from an older store's
/// addresses or from elsewhere, beside constants and local and right
/// XFERs.
fn run_program(seed: u64, lanes: usize, mix: &mut RunMix) -> RevelProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut prog = RevelProgram::new(format!("runs-{lanes}-{seed}"));
    prog.add_config(run_regions());
    let all = LaneMask::all(lanes as u8);
    let push = |prog: &mut RevelProgram, mask, cmds: &[StreamCommand]| {
        for cmd in cmds {
            prog.push(VectorCommand::broadcast(mask, cmd.clone()));
        }
    };
    push(&mut prog, all, &[StreamCommand::Configure { config: ConfigId(0) }]);
    let once = RateFsm::ONCE;
    for _ in 0..6 + rng.gen_index(10) {
        let mask = if lanes == 1 || rng.gen_bool() {
            all
        } else {
            LaneMask::single(LaneId(rng.gen_index(lanes) as u8))
        };
        let target = if rng.gen_index(3) == 0 { MemTarget::Shared } else { MemTarget::Private };
        let (port, width) = RUN_CHAINS[rng.gen_index(RUN_CHAINS.len())];
        let at = rng.gen_range_i64(0, 300);
        let pattern = match rng.gen_index(5) {
            0 => AffinePattern::linear(at, rng.gen_range_i64(1, 3 * width + 6)),
            1 | 2 => {
                // Rows shorter or longer than the port, possibly
                // triangular.
                let len_i = rng.gen_range_i64(1, 2 * width + 4);
                let len_j = rng.gen_range_i64(1, 6);
                let stretch = [0, 0, -1, 1, -2][rng.gen_index(5)];
                mix.stretched += u64::from(stretch != 0);
                let stride_j = len_i + rng.gen_range_i64(0, 9);
                AffinePattern::two_d(at, 1, stride_j, len_i, len_j, stretch)
            }
            3 => {
                mix.strided += 1;
                let stride_i = [0, 2, 3][rng.gen_index(3)];
                AffinePattern::two_d(at, stride_i, 40, rng.gen_range_i64(1, 12), 2, 0)
            }
            _ => {
                // Written by the store just before it, then read back: the
                // older store's range meets the load's runs.
                mix.read_back += 1;
                let n = rng.gen_range_i64(2, 3 * width + 4);
                let (src, _) = RUN_CHAINS[rng.gen_index(RUN_CHAINS.len())];
                let cmds = [
                    StreamCommand::load(target, AffinePattern::linear(500, n), InPortId(src), once),
                    StreamCommand::store(
                        OutPortId(src),
                        target,
                        AffinePattern::linear(at, n),
                        once,
                    ),
                ];
                push(&mut prog, mask, &cmds);
                AffinePattern::linear(at, n)
            }
        };
        let n = pattern.total_elems();
        match rng.gen_index(6) {
            0 if port == 2 => {
                // A local XFER into the second width-4 chain.
                let cmds = [
                    StreamCommand::load(target, pattern, InPortId(2), once),
                    StreamCommand::xfer(OutPortId(2), InPortId(3), n, once, once),
                    StreamCommand::store(OutPortId(3), target, AffinePattern::linear(560, n), once),
                ];
                push(&mut prog, mask, &cmds);
            }
            1 => {
                // Constants in place of the load: their last vector's flush
                // is deferred behind a full FIFO as a load's can be.
                let n = rng.gen_range_i64(1, 3 * width + 2);
                let konst = ConstPattern::repeat(1.25f64.to_bits(), n);
                let out = AffinePattern::linear(rng.gen_range_i64(560, 740), n);
                let cmds = [
                    StreamCommand::konst(InPortId(port), konst),
                    StreamCommand::store(OutPortId(port), target, out, once),
                ];
                push(&mut prog, mask, &cmds);
            }
            2 if port == 6 => {
                // Every lane hands its words to the right neighbour.
                let cmds = [
                    StreamCommand::load(target, pattern, InPortId(6), once),
                    StreamCommand::xfer_right(OutPortId(6), InPortId(7), n, once, once),
                    StreamCommand::store(OutPortId(7), target, AffinePattern::linear(600, n), once),
                ];
                push(&mut prog, all, &cmds);
            }
            _ => {
                let uses = [1, 1, 2][rng.gen_index(3)];
                let load =
                    StreamCommand::load(target, pattern, InPortId(port), RateFsm::fixed(uses));
                let out = AffinePattern::linear(rng.gen_range_i64(560, 740), n * uses);
                let store = StreamCommand::store(OutPortId(port), target, out, once);
                push(&mut prog, mask, &[load, store]);
            }
        }
    }
    push(&mut prog, all, &[StreamCommand::Wait]);
    prog
}

/// Coverage of the situations row runs have to get right, summed over the
/// lane-cycles of every program.
#[derive(Debug, Default)]
struct RunSeen {
    /// A stride-1 load with more than one word left in its row.
    runnable: u64,
    /// ... whose row is shorter than its port's width, or longer.
    short_rows: u64,
    long_rows: u64,
    /// ... whose port still owes the flush of a vector.
    deferred_flush: u64,
    /// ... with an older store whose range meets the rest of its row, or
    /// only older stores whose ranges miss it.
    store_meets: u64,
    store_misses: u64,
    /// ... on a lane its pass then left bandwidth-starved.
    starved: u64,
    tag_mode_cycles: u64,
}

impl RunSeen {
    /// The runnable loads `m` is about to step, with their lanes.
    fn runnable(m: &Machine) -> Vec<(usize, usize)> {
        let mut found = Vec::new();
        for (li, lane) in m.lanes.iter().enumerate() {
            for (si, s) in lane.streams.iter().enumerate() {
                if let StreamBody::Load { walker, .. } = &s.body {
                    if walker.rows_are_runs() && walker.peek().is_some() && walker.row_left() > 1 {
                        found.push((li, si));
                    }
                }
            }
        }
        found
    }

    fn note(&mut self, m: &Machine, runnable: &[(usize, usize)]) {
        for &(li, si) in runnable {
            let lane = &m.lanes[li];
            let StreamBody::Load { target, walker, dst, .. } = &lane.streams[si].body else {
                unreachable!("a load")
            };
            let port = &lane.in_ports[*dst as usize];
            let row_len = walker.row_left() + walker.peek().map_or(0, |e| e.i);
            self.runnable += 1;
            self.short_rows += u64::from(row_len < port.width() as i64);
            self.long_rows += u64::from(row_len > port.width() as i64);
            self.deferred_flush += u64::from(port.owes_flush());
            let lo = walker.peek().map_or(0, |e| e.offset);
            let hi = lo + walker.row_left() - 1;
            let older = &lane.streams[..si];
            if older.iter().any(|s| s.store_meets(*target, lo, hi)) {
                self.store_meets += 1;
            } else if older.iter().any(|s| s.is_store()) {
                self.store_misses += 1;
            }
        }
        self.tag_mode_cycles += u64::from(m.recorder.is_some());
    }
}

/// Each lane's source-side state: every input port's contents bit for bit,
/// every load's walker, and the ports owing a flush.
fn source_state(lane: &Lane) -> impl PartialEq + std::fmt::Debug + '_ {
    let ports: Vec<_> = lane.in_ports.iter().map(|p| p.state_bits()).collect();
    let walkers: Vec<String> = lane
        .streams
        .iter()
        .filter_map(|s| match &s.body {
            StreamBody::Load { walker, flushed, .. } => Some(format!("{walker:?} {flushed}")),
            _ => None,
        })
        .collect();
    (ports, walkers, lane.flush_owed)
}

/// The ports of `lane` whose own flag says they owe a flush.
fn owing(lane: &Lane) -> PortSet {
    let mut set = PortSet::default();
    for (p, port) in lane.in_ports.iter().enumerate() {
        set.set(p as u8, port.owes_flush());
    }
    set
}

/// Runs `program` on `cfg` twice in lockstep, one machine moving row runs
/// and the other every load word by word, in tag mode if `tag`, until it
/// finishes or deadlocks (at most 4 000 cycles).
fn lockstep_runs(program: &RevelProgram, cfg: RevelConfig, tag: bool, seen: &mut RunSeen) {
    program.validate(&cfg.lane).expect("a valid program");
    let mut runs = Machine::new(cfg, SimOptions::default());
    let schedules = runs.compiled_schedules(program).expect("the configurations fit");
    runs.reset_faults();
    for (li, lane) in runs.lanes.iter_mut().enumerate() {
        let data: Vec<f64> = (0..lane.spad.len()).map(|a| (a * 7 + li) as f64 * 0.25).collect();
        lane.spad.write_f64_slice(0, &data);
    }
    if tag {
        runs.recorder = Some(Recorder::new(runs.lanes.len()));
    }
    let mut words = runs.clone();
    for now in 0..4_000 {
        let finished = runs.program_finished(program);
        assert_eq!(finished, words.program_finished(program), "{}: cycle {now}", program.name);
        if finished {
            break;
        }
        let runnable = RunSeen::runnable(&runs);
        seen.note(&runs, &runnable);
        let run_progress = runs.step(now, program, &schedules);
        let word_progress = words.step_with(
            now,
            program,
            &schedules,
            Machine::issue_commands,
            Machine::run_source_streams_by_word,
            Machine::retire_streams,
        );
        seen.starved += runnable.iter().filter(|(li, _)| runs.lanes[*li].bw_starved).count() as u64;
        let what = format!("{}: cycle {now}", program.name);
        assert_eq!(run_progress, word_progress, "{what}: progress");
        for (li, (r, w)) in runs.lanes.iter().zip(&words.lanes).enumerate() {
            assert_eq!(lane_state(r), lane_state(w), "{what}, lane {li}");
            assert_eq!(data_state(r), data_state(w), "{what}, lane {li}");
            assert_eq!(source_state(r), source_state(w), "{what}, lane {li}");
            assert_eq!(r.flush_owed, owing(r), "{what}, lane {li}: the tick mask");
            assert_eq!(w.flush_owed, owing(w), "{what}, lane {li}: the tick mask");
        }
        if !run_progress && runs.next_event(now).is_none() {
            break; // deadlocked: no later cycle can differ from this one
        }
    }
    for (r, w) in runs.lanes.iter().zip(&words.lanes) {
        assert_eq!(r.spad, w.spad, "{}: scratchpads diverged", program.name);
    }
    assert_eq!(runs.shared, words.shared, "{}: shared scratchpads diverged", program.name);
}

#[test]
fn row_run_loads_match_the_word_at_a_time_pass() {
    let (mut seen, mut mix) = (RunSeen::default(), RunMix::default());
    for seed in 0..48u64 {
        let pick = |of: usize, every: u64| (seed / every) as usize % of;
        let lanes = [1, 2, 8][pick(3, 1)];
        let lane = LaneConfig {
            port_fifo_depth: [1, 2, 4][pick(3, 3)],
            spad_bw_words: [8, 3, 1][pick(3, 9)],
            ..LaneConfig::paper_default()
        };
        let cfg = RevelConfig {
            num_lanes: lanes,
            lane,
            shared_spad_bw_words: [8, 5, 2][pick(3, 2)],
            ..RevelConfig::paper_default()
        };
        let program = run_program(seed, lanes, &mut mix);
        lockstep_runs(&program, cfg, seed % 3 == 2, &mut seen);
    }
    let RunSeen { runnable, short_rows, long_rows, deferred_flush, store_meets, .. } = seen;
    let covered = [runnable, short_rows, long_rows, deferred_flush, store_meets];
    assert!(covered.iter().all(|n| *n > 0), "{seen:?}");
    assert!(seen.store_misses > 0 && seen.starved > 0 && seen.tag_mode_cycles > 0, "{seen:?}");
    assert!(mix.stretched > 0 && mix.strided > 0 && mix.read_back > 0, "{mix:?}");
}
