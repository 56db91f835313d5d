//! The class-decided hazard lint against its pairwise reference: equal
//! findings in equal order on the evaluation grid and on seeded random
//! programs that plant every rule, plus a deterministic bound on how much
//! comparing the lint may do.

use super::{
    oracle, ScratchHazards, SegmentAccesses, CLASS_PAIRS, EPOCHS_CLEARED, EPOCHS_WALKED,
    PAIRS_VISITED,
};
use crate::context::{Context, EXACT_ADDR_LIMIT, EXACT_OVERLAP_TESTS};
use crate::test_util::codes;
use crate::{run_lint, Code, Diagnostic, Lint};
use revel_bench::grid::evaluation_grid;
use revel_core::compiler::BuildCfg;
use revel_core::Bench;
use revel_dfg::{Dfg, OpCode, Region};
use revel_fabric::RevelConfig;
use revel_isa::{
    AffinePattern, ConfigId, InPortId, LaneId, LaneMask, LaneScale, MemTarget, OutPortId, RateFsm,
    Rng, StreamCommand, VectorCommand,
};
use revel_prog::RevelProgram;
use std::collections::BTreeSet;
use MemTarget::{Private, Shared};

fn lint(program: &RevelProgram, cfg: &RevelConfig) -> Vec<Diagnostic> {
    run_lint(&ScratchHazards, program, cfg)
}

fn reference(program: &RevelProgram, cfg: &RevelConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    oracle::check(&Context::new(program, cfg), &mut out);
    out
}

#[test]
fn grid_cells_match_the_pairwise_oracle_in_order() {
    let cells = evaluation_grid();
    assert_eq!(cells.len(), 42);
    for cell in cells {
        let built = cell.bench.workload().build(&cell.cfg);
        let cfg = cell.cfg.machine_config();
        let label = format!("{} {} [{}]", cell.bench.name(), cell.bench.params(), cell.arch);
        let got = lint(&built.program, &cfg);
        assert_eq!(got, reference(&built.program, &cfg), "{label}");
        assert!(got.is_empty(), "{label}: the grid is hazard-free: {got:?}");
    }
}

/// A systolic region summing `ins` into each of `outs`.
fn pipe(name: &str, ins: &[u8], outs: &[u8]) -> Region {
    let mut g = Dfg::new(name);
    let inputs: Vec<_> = ins.iter().map(|p| g.input(InPortId(*p))).collect();
    let sum = inputs[1..].iter().fold(inputs[0], |v, i| g.op(OpCode::Add, &[v, *i]));
    for o in outs {
        let n = g.op(OpCode::Neg, &[sum]);
        g.output(n, OutPortId(*o));
    }
    Region::systolic(name, g, 1)
}

/// Config 0: in 0 → out 6, in 1 → out 7, in 2 + in 3 → out 8.
/// Config 1: in 0 → out 6, in 1 → outs 7 and 9.
fn two_config_program(lanes: u8) -> RevelProgram {
    let mut p = RevelProgram::new("hazard-differential");
    p.add_config(vec![pipe("a", &[0], &[6]), pipe("b", &[1], &[7]), pipe("c", &[2, 3], &[8])]);
    p.add_config(vec![pipe("d", &[0], &[6]), pipe("e", &[1], &[7, 9])]);
    p.push(VectorCommand::broadcast(
        LaneMask::all(lanes),
        StreamCommand::Configure { config: ConfigId(0) },
    ));
    p
}

fn machine(lanes: u8) -> RevelConfig {
    RevelConfig { num_lanes: lanes as usize, ..RevelConfig::paper_default() }
}

fn load(target: MemTarget, pattern: AffinePattern, dst: u8) -> StreamCommand {
    StreamCommand::load(target, pattern, InPortId(dst), RateFsm::ONCE)
}

fn store(src: u8, target: MemTarget, pattern: AffinePattern) -> StreamCommand {
    StreamCommand::store(OutPortId(src), target, pattern, RateFsm::ONCE)
}

/// One planted rule: commands for lane masks of the caller's choosing, and
/// the codes they raise when nothing else is in the segment.
struct Plant {
    name: &'static str,
    /// `(lane, command)`: `None` goes to the caller's mask.
    cmds: Vec<(Option<u8>, StreamCommand)>,
    codes: &'static [Code],
}

/// Every rule of the lint, planted at word `b` (with `l0 != l1` where the
/// rule is about two lanes).
fn plants(b: i64, l0: u8, l1: u8) -> Vec<Plant> {
    let words = AffinePattern::linear(b, 8);
    let all = |cmds: Vec<StreamCommand>| cmds.into_iter().map(|c| (None, c)).collect();
    vec![
        Plant {
            name: "overlapping private stores",
            cmds: all(vec![
                store(6, Private, words),
                store(7, Private, AffinePattern::linear(b + 4, 8)),
            ]),
            codes: &[Code::V006],
        },
        Plant {
            name: "cross-lane shared stores, the newer command on l1",
            cmds: vec![
                (Some(l0), store(6, Shared, words)),
                (Some(l1), store(6, Shared, AffinePattern::linear(b + 2, 8))),
            ],
            codes: &[Code::V006],
        },
        Plant {
            name: "same out-port stores serialize",
            cmds: all(vec![store(6, Private, words), store(6, Private, words)]),
            codes: &[],
        },
        Plant {
            name: "guard-ordered in-place WAW",
            cmds: all(vec![
                store(6, Private, words),
                load(Private, words, 1),
                store(7, Private, words),
            ]),
            codes: &[],
        },
        Plant {
            name: "WAR whose store flows from the load",
            cmds: all(vec![load(Private, words, 0), store(6, Private, words)]),
            codes: &[],
        },
        Plant {
            name: "WAR whose store does not",
            cmds: all(vec![load(Private, words, 0), store(7, Private, words)]),
            codes: &[Code::V007],
        },
        Plant {
            name: "a barrier between",
            cmds: all(vec![
                store(6, Private, words),
                StreamCommand::BarrierScratch,
                store(7, Private, words),
            ]),
            codes: &[],
        },
        Plant {
            name: "a range (above EXACT_ADDR_LIMIT) covers the words its stride skips",
            cmds: all(vec![
                store(6, Shared, AffinePattern::strided(0, 2, EXACT_ADDR_LIMIT + 1)),
                store(7, Shared, AffinePattern::strided(2 * b + 1, 2, 8)),
            ]),
            codes: &[Code::V006],
        },
        Plant {
            name: "interleaved strides: ranges overlap, elements do not",
            cmds: all(vec![
                store(6, Private, AffinePattern::strided(b, 2, 8)),
                store(7, Private, AffinePattern::strided(b + 1, 2, 8)),
            ]),
            codes: &[],
        },
    ]
}

fn push_plant(p: &mut RevelProgram, plant: Plant, mask: LaneMask) {
    for (lane, cmd) in plant.cmds {
        p.push(match lane {
            Some(l) => VectorCommand::on_lane(LaneId(l), cmd),
            None => VectorCommand::broadcast(mask, cmd),
        });
    }
}

#[test]
fn each_planted_rule_raises_its_codes() {
    for lanes in [1u8, 2, 8] {
        let (l0, l1) = (lanes - 1, 0); // the lower lane holds the newer command
        for plant in plants(16, l0, l1) {
            if l0 == l1 && plant.cmds.iter().any(|(l, _)| l.is_some()) {
                continue;
            }
            let (name, want) = (plant.name, plant.codes);
            let mut p = two_config_program(lanes);
            push_plant(&mut p, plant, LaneMask::single(LaneId(0)));
            let got = lint(&p, &machine(lanes));
            assert_eq!(got, reference(&p, &machine(lanes)), "{name} on {lanes} lanes");
            assert_eq!(codes(&got), want, "{name} on {lanes} lanes: {got:?}");
        }
    }
}

#[test]
fn a_long_rotation_is_cleared_by_class_or_walked_whole() {
    // Sixteen rounds of config 1's in-place rotation in one epoch: four
    // stream classes, 64 accesses. Under config 1 it is clean and no access
    // pair is visited; under config 0 in 1 does not reach out 9, so the
    // same run races and its epoch is walked pair by pair.
    for (config, clean) in [(1, true), (0, false)] {
        let mut p = two_config_program(1);
        p.push(VectorCommand::broadcast(
            LaneMask::all(1),
            StreamCommand::Configure { config: ConfigId(config) },
        ));
        let words = AffinePattern::linear(0, 8);
        for _ in 0..16 {
            for cmd in [store(7, Private, words), load(Private, words, 1)] {
                p.push(VectorCommand::broadcast(LaneMask::all(1), cmd));
            }
            for cmd in [store(9, Private, words), load(Private, words, 1)] {
                p.push(VectorCommand::broadcast(LaneMask::all(1), cmd));
            }
        }
        PAIRS_VISITED.with(|n| n.set(0));
        EPOCHS_WALKED.with(|n| n.set(0));
        let got = lint(&p, &machine(1));
        assert_eq!(got, reference(&p, &machine(1)), "config {config}");
        assert_eq!(got.is_empty(), clean, "config {config}: {got:?}");
        let (visited, walked) = (PAIRS_VISITED.with(|n| n.get()), EPOCHS_WALKED.with(|n| n.get()));
        assert_eq!((visited == 0, walked), (clean, u64::from(!clean)), "config {config}");
    }
}

#[test]
fn v006_names_the_lane_that_ran_the_newer_store() {
    // Lane 1 stores first (command 1), lane 0 second (command 2): in
    // lane-major order the newer command's access comes first.
    let mut p = two_config_program(2);
    let words = AffinePattern::linear(0, 8);
    p.push(VectorCommand::on_lane(LaneId(1), store(6, Shared, words)));
    p.push(VectorCommand::on_lane(LaneId(0), store(6, Shared, words)));
    let got = lint(&p, &machine(2));
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].code, Code::V006);
    assert_eq!(got[0].location.command, Some(2));
    assert_eq!(got[0].location.lane, Some(0), "lane 1 never ran command 2");
    assert_eq!(got, reference(&p, &machine(2)));
}

fn random_mask(rng: &mut Rng, lanes: u8) -> LaneMask {
    match rng.gen_index(4) {
        0 => LaneMask::single(LaneId(rng.gen_index(lanes as usize) as u8)),
        1 => {
            let bits = (rng.next_u64() as u32) & LaneMask::all(lanes).bits();
            LaneMask::from_bits(if bits == 0 { 1 } else { bits })
        }
        _ => LaneMask::all(lanes),
    }
}

/// Patterns over a few dozen words, so that unrelated commands collide.
fn random_pattern(rng: &mut Rng) -> AffinePattern {
    let b = rng.gen_range_i64(0, 40);
    let n = rng.gen_range_i64(1, 10);
    match rng.gen_index(14) {
        0..=3 => AffinePattern::linear(b, n),
        4 => AffinePattern::strided(b, 2, n),
        5 => AffinePattern::strided(b + 2 * n, -2, n),
        6 => AffinePattern::strided(b, 3, n),
        7 => AffinePattern::two_d(b, 1, 8, 4, 3, 0),
        8 => AffinePattern::two_d(b, 1, 9, 4, 4, -1),
        9 => AffinePattern::two_d(b + 16, 2, -5, 3, 3, 0),
        10 => match rng.gen_index(4) {
            0 => AffinePattern::linear(b, EXACT_ADDR_LIMIT + 1),
            1 => AffinePattern::strided(b, 4, EXACT_ADDR_LIMIT + 1),
            2 => AffinePattern::linear(b, 300),
            _ => AffinePattern::linear(b, 0),
        },
        // Rows that abut: a dense block, walked either way.
        11 => AffinePattern::two_d(b, 1, 4, 4, 3, 0),
        12 => AffinePattern::two_d(b + 11, -1, -4, 4, 3, 0),
        _ => AffinePattern::scalar(b),
    }
}

/// A long run in an epoch of its own, so that whether the epoch races is
/// decided by the run alone:
/// - one stream class repeated (clean);
/// - the in-place rotation of config 1 (store, guarded reload into in 1,
///   store of the reloaded data on in 1's other out-port) repeated and cut
///   at a random step: clean under config 1, V006 and V007 under config 0,
///   where in 1 does not reach out 9;
/// - the same rotation with the reload before its last store dropped: a
///   V006 that only the latest older store shows;
/// - loads on both sides of one store: a V007 unless the store's port
///   flows from the loads' in the active config.
fn push_run(p: &mut RevelProgram, rng: &mut Rng, lanes: u8, mask: LaneMask, target: MemTarget) {
    let pattern = random_pattern(rng);
    let reps = 16 + rng.gen_index(48);
    let reload = load(target, pattern, 1);
    let rotation = [store(7, target, pattern), reload.clone(), store(9, target, pattern), reload];
    let (in_port, out_port) = (rng.gen_index(4) as u8, 6 + rng.gen_index(4) as u8);
    let cmds: Vec<StreamCommand> = match rng.gen_index(5) {
        0 => vec![load(target, pattern, in_port); reps],
        1 => vec![store(out_port, target, pattern); reps],
        2 => rotation.into_iter().cycle().take(reps).collect(),
        3 => {
            let mut cmds: Vec<_> = rotation.into_iter().cycle().take(4 * reps).collect();
            cmds.extend([store(7, target, pattern), store(9, target, pattern)]);
            cmds
        }
        _ => {
            let loads = vec![load(target, pattern, in_port); reps / 2];
            [loads.clone(), vec![store(out_port, target, pattern)], loads].concat()
        }
    };
    let barrier = VectorCommand::broadcast(LaneMask::all(lanes), StreamCommand::BarrierScratch);
    p.push(barrier.clone());
    for cmd in cmds {
        p.push(VectorCommand::broadcast(mask, cmd));
    }
    p.push(barrier);
}

fn random_program(seed: u64) -> (RevelProgram, RevelConfig) {
    let mut rng = Rng::seed_from_u64(seed);
    let lanes = 1 + rng.gen_index(8) as u8;
    let mut p = two_config_program(lanes);
    let steps = if seed.is_multiple_of(16) { 160 } else { 8 + rng.gen_index(40) };
    for _ in 0..steps {
        let mask = random_mask(&mut rng, lanes);
        let target = if rng.gen_index(3) == 0 { Shared } else { Private };
        let cmd = match rng.gen_index(32) {
            0..=9 => load(target, random_pattern(&mut rng), rng.gen_index(4) as u8),
            10..=21 => store(6 + rng.gen_index(4) as u8, target, random_pattern(&mut rng)),
            22 => StreamCommand::BarrierScratch,
            23 => StreamCommand::Wait,
            24 => StreamCommand::Configure { config: ConfigId(rng.gen_index(2) as u32) },
            25 => StreamCommand::xfer(
                OutPortId(6 + rng.gen_index(4) as u8),
                InPortId(rng.gen_index(4) as u8),
                4,
                RateFsm::ONCE,
                RateFsm::ONCE,
            ),
            26 => StreamCommand::xfer_right(
                OutPortId(6 + rng.gen_index(4) as u8),
                InPortId(rng.gen_index(4) as u8),
                4,
                RateFsm::ONCE,
                RateFsm::ONCE,
            ),
            27 => {
                push_run(&mut p, &mut rng, lanes, mask, target);
                continue;
            }
            _ => {
                let (l0, l1) = (rng.gen_index(lanes as usize), rng.gen_index(lanes as usize));
                let mut planted = plants(rng.gen_range_i64(0, 40), l0 as u8, l1 as u8);
                push_plant(&mut p, planted.swap_remove(rng.gen_index(planted.len())), mask);
                continue;
            }
        };
        let scale = match rng.gen_index(6) {
            0 => LaneScale::addr(rng.gen_range_i64(1, 6)),
            1 => LaneScale { len_i_per_lane: 1, ..LaneScale::addr(3) },
            _ => LaneScale::BROADCAST,
        };
        p.push(VectorCommand::scaled(mask, scale, cmd));
    }
    (p, machine(lanes))
}

#[test]
fn random_programs_match_the_pairwise_oracle_in_order() {
    let (mut v006, mut v007, mut clean) = (0, 0, 0);
    EPOCHS_CLEARED.with(|n| n.set(0));
    EPOCHS_WALKED.with(|n| n.set(0));
    for seed in 0..256 {
        let (p, cfg) = random_program(seed);
        let got = lint(&p, &cfg);
        assert_eq!(got, reference(&p, &cfg), "seed {seed}, {} lanes", cfg.num_lanes);
        v006 += got.iter().filter(|d| d.code == Code::V006).count();
        v007 += got.iter().filter(|d| d.code == Code::V007).count();
        clean += got.is_empty() as usize;
    }
    // The corpus is not vacuous: both codes fire and some programs pass,
    // and the class pass both clears epochs and sends some to the walk.
    assert!(v006 > 100 && v007 > 100 && clean > 0, "V006 {v006}, V007 {v007}, clean {clean}");
    let cleared = EPOCHS_CLEARED.with(|n| n.get());
    let walked = EPOCHS_WALKED.with(|n| n.get());
    assert!(cleared > 100 && walked > 100, "{cleared} epochs cleared by class, {walked} walked");
}

/// Per segment, the sum over its epochs of (stream classes in the epoch)².
fn classes_squared(seg: &SegmentAccesses) -> u64 {
    let classes: BTreeSet<_> = seg
        .accesses
        .iter()
        .map(|a| (a.epoch, a.set, a.lane, a.target == Shared, a.port, a.is_store))
        .collect();
    let mut per_epoch = vec![0u64; seg.accesses.last().map_or(0, |a| a.epoch as usize + 1)];
    for c in &classes {
        per_epoch[c.0 as usize] += 1;
    }
    per_epoch.iter().map(|k| k * k).sum()
}

/// The `alloc_guard` idea, for comparisons: the lint may compare *sets*,
/// each distinct pair at most once, and stream classes, each pair of an
/// epoch at most once — and on a clean program it visits no access pair at
/// all, so a pairwise loop that creeps back in fails here, exactly, instead
/// of on a stopwatch.
#[test]
fn svd_32_compares_sets_not_accesses() {
    let cfg = BuildCfg::revel(1);
    let built = Bench::Svd { n: 32 }.workload().build(&cfg);
    let machine = cfg.machine_config();
    let ctx = Context::new(&built.program, &machine);

    let segments = ctx.lanes.iter().map(|v| v.segments.len()).max().unwrap();
    let (mut accesses, mut sets_squared, mut classes_sq) = (0u64, 0u64, 0u64);
    for s in 0..segments {
        let seg = SegmentAccesses::build(&ctx, s);
        accesses += seg.accesses.len() as u64;
        sets_squared += (seg.by_set.len() as u64).pow(2);
        classes_sq += classes_squared(&seg);
    }
    assert!(accesses > 9_000, "the long cell: {accesses} accesses");

    EXACT_OVERLAP_TESTS.with(|n| n.set(0));
    PAIRS_VISITED.with(|n| n.set(0));
    CLASS_PAIRS.with(|n| n.set(0));
    let mut got = Vec::new();
    ScratchHazards.check(&ctx, &mut got);
    let exact = EXACT_OVERLAP_TESTS.with(|n| n.get());
    let visited = PAIRS_VISITED.with(|n| n.get());
    let class_pairs = CLASS_PAIRS.with(|n| n.get());

    oracle::OVERLAPPING_PAIRS.with(|n| n.set(0));
    let mut want = Vec::new();
    oracle::check(&ctx, &mut want);
    let overlapping = oracle::OVERLAPPING_PAIRS.with(|n| n.get());

    assert_eq!(got, want);
    assert!(exact <= sets_squared, "{exact} exact set comparisons for Σ sets² = {sets_squared}");
    assert!(class_pairs <= classes_sq, "{class_pairs} class pairs for Σ classes² = {classes_sq}");
    assert_eq!(visited, 0, "a clean epoch is cleared by class ({overlapping} pairs overlap)");
    assert!(overlapping * 20 < accesses * accesses / 2, "the bound is far below all pairs");

    // Every grid program is clean, so no grid cell walks an access pair.
    for cell in evaluation_grid() {
        let built = cell.bench.workload().build(&cell.cfg);
        let machine = cell.cfg.machine_config();
        let ctx = Context::new(&built.program, &machine);
        let label = format!("{} {} [{}]", cell.bench.name(), cell.bench.params(), cell.arch);
        let classes_sq: u64 = (0..ctx.lanes.iter().map(|v| v.segments.len()).max().unwrap_or(0))
            .map(|s| classes_squared(&SegmentAccesses::build(&ctx, s)))
            .sum();
        PAIRS_VISITED.with(|n| n.set(0));
        CLASS_PAIRS.with(|n| n.set(0));
        let mut got = Vec::new();
        ScratchHazards.check(&ctx, &mut got);
        assert!(got.is_empty(), "{label}: {got:?}");
        assert_eq!(PAIRS_VISITED.with(|n| n.get()), 0, "{label}");
        let class_pairs = CLASS_PAIRS.with(|n| n.get());
        assert!(class_pairs <= classes_sq, "{label}: {class_pairs} class pairs, Σ {classes_sq}");
    }
}
