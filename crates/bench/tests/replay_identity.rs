//! Replay is exact, word for word, on every small cell of the evaluation
//! grid. `grid_oracle` compares reports and tolerance-based verdicts, so a
//! replay that rounded differently from the simulator would pass it; here
//! a trace recorded on one dataset must reproduce the whole memory image —
//! every lane's private scratchpad and the shared one — of a full
//! simulation of each other dataset, bit for bit, on one machine reused
//! across datasets in both orders. Edge values (`-0.0`, a signalling NaN,
//! `-inf`) must leave a full simulation's timing report the seed-1
//! trace's, too.
//!
//! It also pins what lets one trace serve every seed of a cell: a seeded
//! build is structurally the unseeded one (the engine's trace cache, keyed
//! by cell, checks that identity on a batch's first dataset only), and a
//! seed's dataset half (`Workload::dataset`, all a batch builds for its
//! later seeds) is its full build's dataset.

use revel_bench::grid::{evaluation_grid, Cell};
use revel_core::compiler::BuildCfg;
use revel_core::engine;
use revel_core::isa::LaneId;
use revel_core::sim::{structural_id, Machine, RevelProgram, RunReport, TimingTrace};
use revel_core::workloads::{
    apply_init, record_timing, replay_trace_on, BuiltKernel, Cholesky, Dataset, MemInit, Workload,
};
use revel_core::Bench;

/// The 35 small-suite cells of the grid: every architecture and rung.
fn small_cells() -> Vec<Cell> {
    let small = Bench::suite_small();
    evaluation_grid().into_iter().filter(|c| small.contains(&c.bench)).collect()
}

fn label(cell: &Cell) -> String {
    format!("{}-{} [{}]", cell.bench.name(), cell.bench.params(), cell.arch)
}

/// The report of a full simulation of `built` on `cell`'s machine, and
/// the memory image it leaves.
fn full_run(cell: &Cell, built: &BuiltKernel) -> (RunReport, Vec<u64>) {
    let mut machine = Machine::new(cell.cfg.machine_config(), cell.cfg.sim_options());
    apply_init(&mut machine, &built.init);
    let report = machine.run(&built.program).expect("full simulation");
    (report, memory_image(&machine))
}

/// Every word of every lane's private scratchpad, then the shared one.
fn memory_image(machine: &Machine) -> Vec<u64> {
    let cfg = machine.config();
    let words = cfg.lane.spad_words;
    let mut image: Vec<u64> = (0..cfg.num_lanes)
        .flat_map(|l| machine.read_private(LaneId(l as u8), 0, words))
        .map(f64::to_bits)
        .collect();
    image.extend(machine.read_shared(0, cfg.shared_spad_words).iter().map(|v| v.to_bits()));
    image
}

/// What is wrong with `cell`'s replays, if anything.
fn replay_divergences(cell: &Cell) -> Vec<String> {
    let (cfg, opts) = (&cell.cfg, cell.cfg.sim_options());
    let build = |seed| cell.bench.workload_seeded(seed).build(cfg);
    let (_, trace) = record_timing(&build(1), cfg, opts).expect("timing walk on seed 1");
    let full = [(2, full_run(cell, &build(2)).1), (3, full_run(cell, &build(3)).1)];
    let mut machine = Machine::new(cfg.machine_config(), opts);
    let mut failures = Vec::new();
    for seed in [2, 3, 3, 2] {
        let run = replay_trace_on(&mut machine, &build(seed), &trace).expect("replays");
        let expected = &full.iter().find(|(s, _)| *s == seed).expect("simulated").1;
        let image = memory_image(&machine);
        if let Some(word) = image.iter().zip(expected).position(|(a, b)| a != b) {
            failures.push(format!("seed {seed}: word {word} differs from full simulation"));
        }
        if let Err(e) = run.verified {
            failures.push(format!("seed {seed}: replay fails verification: {e}"));
        }
    }
    failures
}

#[test]
fn replay_reproduces_every_word_of_a_full_simulation_on_every_small_cell() {
    let cells = small_cells();
    assert_eq!(cells.len(), 35);
    let failures: Vec<String> = engine::par_map(&cells, |cell| {
        let name = label(cell);
        replay_divergences(cell)
            .into_iter()
            .map(move |f| format!("{name}: {f}"))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `built` with every fifth word of its dataset overwritten, in turn, by
/// `-0.0`, a signalling NaN with a payload and `-inf`. A replay that
/// elided the first add of a sum or an accumulator (`0.0 + -0.0` is
/// `+0.0`, `-0.0 + NaN` quiets the NaN), started a sum at `+0.0`, or
/// picked the other NaN of two would leave some word different.
fn with_edge_values(mut built: BuiltKernel) -> BuiltKernel {
    let edges = [-0.0, f64::from_bits(0x7ff0_0000_dead_beef), f64::NEG_INFINITY];
    let words = built.init.iter_mut().flat_map(|init| match init {
        MemInit::Private { data, .. } | MemInit::Shared { data, .. } => data.iter_mut(),
    });
    for (k, word) in words.step_by(5).enumerate() {
        *word = edges[k % edges.len()];
    }
    built
}

/// The report fields that carry timing, named where `full` and `traced`
/// differ.
fn timing_divergences(traced: &RunReport, full: &RunReport) -> Vec<&'static str> {
    let mut out = Vec::new();
    if full.cycles != traced.cycles {
        out.push("cycles");
    }
    if full.canonical_text() != traced.canonical_text() {
        out.push("canonical text");
    }
    if full.lane_breakdown != traced.lane_breakdown {
        out.push("lane breakdown");
    }
    out
}

/// Edge values reach neither the arithmetic's bits nor the timing: a
/// replay reproduces a full simulation's memory image word for word, and
/// that full simulation's report is the seed-1 trace's. Timing reads no
/// data by construction, so this is the dynamic evidence for it.
#[test]
fn replay_keeps_edge_values_bit_for_bit_on_every_small_cell() {
    let cells = small_cells();
    assert_eq!(cells.len(), 35);
    let failures: Vec<String> = engine::par_map(&cells, |cell| {
        let (cfg, opts) = (&cell.cfg, cell.cfg.sim_options());
        let build = |seed| cell.bench.workload_seeded(seed).build(cfg);
        let (_, trace) = record_timing(&build(1), cfg, opts).expect("timing walk on seed 1");
        let edged = with_edge_values(build(2));
        let mut machine = Machine::new(cfg.machine_config(), opts);
        replay_trace_on(&mut machine, &edged, &trace).expect("replays");
        let (report, full) = full_run(cell, &edged);
        let mut failures = Vec::new();
        let word = memory_image(&machine).iter().zip(&full).position(|(a, b)| a != b);
        if let Some(word) = word {
            failures.push(format!("{}: word {word} differs from full simulation", label(cell)));
        }
        let timing = timing_divergences(&trace.report, &report);
        if !timing.is_empty() {
            failures.push(format!(
                "{}: {} differ from the seed-1 trace",
                label(cell),
                timing.join(", ")
            ));
        }
        failures
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// What differs between each dataset's memory image after one
/// `Machine::replay_batch` of `trace` over `datasets` (named inits, replayed
/// with `program`'s host ops) and `expected(init)`.
fn batch_divergences(
    cell: &Cell,
    program: &RevelProgram,
    trace: &TimingTrace,
    datasets: &[(String, Vec<MemInit>)],
    expected: impl Fn(&[MemInit]) -> Vec<u64>,
) -> Vec<String> {
    let mut machine = Machine::new(cell.cfg.machine_config(), cell.cfg.sim_options());
    let mut failures = Vec::new();
    machine
        .replay_batch(
            program,
            trace,
            datasets,
            |machine, (_, init)| apply_init(machine, init),
            |machine, (name, init)| {
                let image = memory_image(machine);
                if let Some(word) = image.iter().zip(&expected(init)).position(|(a, b)| a != b) {
                    failures.push(format!("{}: {name}: word {word} differs", label(cell)));
                }
            },
        )
        .expect("replays");
    failures
}

/// An edge-valued dataset replayed in one chunk beside ordinary seeds
/// reproduces its full simulation word for word, and so does every other
/// dataset of the chunk: recomputing a NaN lane through the scalar
/// definition touches only the lanes that produced one.
#[test]
fn an_edge_valued_dataset_replays_bit_for_bit_beside_ordinary_seeds_in_one_chunk() {
    let cells = small_cells();
    assert_eq!(cells.len(), 35);
    let failures: Vec<String> = engine::par_map(&cells, |cell| {
        let build = |seed| cell.bench.workload_seeded(seed).build(&cell.cfg);
        let (_, trace) =
            record_timing(&build(1), &cell.cfg, cell.cfg.sim_options()).expect("timing walk");
        let datasets = [
            ("seed 2".to_string(), build(2).init),
            ("seed 3".to_string(), build(3).init),
            ("edge-valued seed 4".to_string(), with_edge_values(build(4)).init),
            ("seed 5".to_string(), build(5).init),
        ];
        let program = build(1).program;
        batch_divergences(cell, &program, &trace, &datasets, |init| {
            let built = BuiltKernel { init: init.to_vec(), ..build(1) };
            full_run(cell, &built).1
        })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// A dataset's replayed image does not depend on which datasets share its
/// chunk or precede it: 65 seeds cross a chunk boundary and leave a
/// partial last chunk, in both orders, and each dataset's image is a fresh
/// machine's single-dataset replay of it.
#[test]
fn a_datasets_replay_does_not_depend_on_its_chunk() {
    let cells = small_cells();
    assert_eq!(cells.len(), 35);
    let failures: Vec<String> = engine::par_map(&cells, |cell| {
        let (cfg, opts) = (&cell.cfg, cell.cfg.sim_options());
        let built = cell.bench.workload_seeded(1).build(cfg);
        let (_, trace) = record_timing(&built, cfg, opts).expect("timing walk");
        let fresh = |init: &[MemInit]| {
            let mut machine = Machine::new(cfg.machine_config(), opts);
            apply_init(&mut machine, init);
            machine.replay(&built.program, &trace).expect("replays");
            memory_image(&machine)
        };
        let mut datasets: Vec<(String, Vec<MemInit>)> = (1..=65)
            .map(|seed| (format!("seed {seed}"), cell.bench.workload_seeded(seed).build(cfg).init))
            .collect();
        let mut failures = batch_divergences(cell, &built.program, &trace, &datasets, fresh);
        datasets.reverse();
        failures.extend(batch_divergences(cell, &built.program, &trace, &datasets, fresh));
        failures
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Seeds 1–4 and 77 of `build` share its unseeded program's structural
/// id.
fn assert_seeds_share_structure(
    label: &str,
    unseeded: &RevelProgram,
    build: impl Fn(u64) -> RevelProgram,
) {
    let id = structural_id(unseeded);
    for seed in [1, 2, 3, 4, 77] {
        assert_eq!(structural_id(&build(seed)), id, "{label} seed {seed}");
    }
}

#[test]
fn every_seeded_build_of_a_batched_cell_is_structurally_its_unseeded_build() {
    // Every grid cell (both suites), …
    for cell in evaluation_grid() {
        let label = format!("{}-{} [{}]", cell.bench.name(), cell.bench.params(), cell.arch);
        let unseeded = cell.bench.workload().build(&cell.cfg).program;
        assert_seeds_share_structure(&label, &unseeded, |seed| {
            cell.bench.workload_seeded(seed).build(&cell.cfg).program
        });
    }
    // … every kernel of both suites on the 8-lane REVEL machine, and the
    // batch-8 build of each (Cholesky's differs from its batch-1 build).
    let cfg = BuildCfg::revel(8);
    for bench in Bench::suite_small().into_iter().chain(Bench::suite_large()) {
        let label = format!("{}-{} [revel(8)]", bench.name(), bench.params());
        let unseeded = bench.workload().build(&cfg).program;
        assert_seeds_share_structure(&label, &unseeded, |seed| {
            bench.workload_seeded(seed).build(&cfg).program
        });
        if let Bench::Cholesky { n } = bench {
            let unseeded = bench.batch_workload().build(&cfg).program;
            assert_seeds_share_structure(&format!("batch {label}"), &unseeded, |seed| {
                Cholesky::new(n, seed).build(&cfg).program
            });
        }
    }
}

/// Every word of `init`, bit for bit, with where it goes.
fn init_bits(init: &[MemInit]) -> Vec<(Option<u8>, i64, Vec<u64>)> {
    let bits = |data: &[f64]| data.iter().map(|v| v.to_bits()).collect();
    init.iter()
        .map(|mi| match mi {
            MemInit::Private { lane, addr, data } => (Some(*lane), *addr, bits(data)),
            MemInit::Shared { addr, data } => (None, *addr, bits(data)),
        })
        .collect()
}

#[test]
fn a_seeds_dataset_half_is_its_full_builds_dataset_on_every_small_cell() {
    // For seeds 1, 2 and 77 of each cell, the dataset half's init is the
    // full build's, word for word; and on a machine holding each seed's
    // replayed results, the two halves' checks give the same verdict, which
    // passes for that seed and fails for the others.
    const SEEDS: [u64; 3] = [1, 2, 77];
    let cells = small_cells();
    assert_eq!(cells.len(), 35);
    let failures: Vec<String> = engine::par_map(&cells, |cell| {
        let (cfg, opts) = (&cell.cfg, cell.cfg.sim_options());
        let builds = SEEDS.map(|seed| cell.bench.workload_seeded(seed).build(cfg));
        let datasets: [Dataset; 3] =
            SEEDS.map(|seed| cell.bench.workload_seeded(seed).dataset(cfg));
        let (_, trace) = record_timing(&builds[0], cfg, opts).expect("timing walk");
        let mut machine = Machine::new(cfg.machine_config(), opts);
        let mut failures = Vec::new();
        for (i, (built, dataset)) in builds.iter().zip(&datasets).enumerate() {
            if init_bits(&built.init) != init_bits(&dataset.init) {
                failures.push(format!("{}: seed {}: init differs", label(cell), SEEDS[i]));
            }
            replay_trace_on(&mut machine, built, &trace).expect("replays");
            for (j, (other, other_data)) in builds.iter().zip(&datasets).enumerate() {
                let (full, half) = ((other.check)(&machine), (other_data.check)(&machine));
                if full != half || full.is_ok() != (i == j) {
                    failures.push(format!(
                        "{}: seed {}'s results: seed {}'s checks read {full:?} and {half:?}",
                        label(cell),
                        SEEDS[i],
                        SEEDS[j]
                    ));
                }
            }
        }
        failures
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
