//! Replay is exact, word for word, on every small cell of the evaluation
//! grid. `grid_oracle` compares reports and tolerance-based verdicts, so a
//! replay that rounded differently from the simulator would pass it; here
//! a trace recorded on one dataset must reproduce the whole memory image —
//! every lane's private scratchpad and the shared one — of a full
//! simulation of each other dataset, bit for bit, on one machine reused
//! across datasets in both orders.
//!
//! It also pins what lets one trace serve every seed of a cell: a seeded
//! build is structurally the unseeded one (the engine's trace cache, keyed
//! by cell, checks that identity on a batch's first dataset only).

use revel_bench::grid::{evaluation_grid, Cell};
use revel_core::compiler::BuildCfg;
use revel_core::engine;
use revel_core::isa::LaneId;
use revel_core::sim::{structural_id, Machine, RevelProgram};
use revel_core::workloads::{
    apply_init, record_timing, replay_trace_on, BuiltKernel, Cholesky, MemInit, Workload,
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

/// The memory image a full simulation of `built` leaves on `cell`'s machine.
fn full_image(cell: &Cell, built: &BuiltKernel) -> Vec<u64> {
    let mut machine = Machine::new(cell.cfg.machine_config(), cell.cfg.sim_options());
    apply_init(&mut machine, &built.init);
    machine.run(&built.program).expect("full simulation");
    memory_image(&machine)
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
    let full = [(2, full_image(cell, &build(2))), (3, full_image(cell, &build(3)))];
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
        let full = full_image(cell, &edged);
        let word = memory_image(&machine).iter().zip(&full).position(|(a, b)| a != b);
        word.map(|word| format!("{}: word {word} differs from full simulation", label(cell)))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Seeds 1–4 of `build` share its unseeded program's structural id.
fn assert_seeds_share_structure(
    label: &str,
    unseeded: &RevelProgram,
    build: impl Fn(u64) -> RevelProgram,
) {
    let id = structural_id(unseeded);
    for seed in 1..=4 {
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
