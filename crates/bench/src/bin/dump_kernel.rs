//! Disassembles a grid cell's program (the Fig. 15/17-style listing).
//!
//! Usage: `cargo run -p revel-bench --bin dump_kernel --release BENCH PARAMS ARCH`,
//! e.g. `dump_kernel qr n=12 systolic` — the wire identity every other tool
//! takes ([`revel_bench::grid::resolve`]): a Table V bench and its parameter
//! string, then `revel`, `systolic`, `dataflow` or a Fig. 22 ladder label.

use revel_bench::grid;
use revel_core::sim::ControlStep;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name, params, arch] = args.as_slice() else {
        eprintln!("usage: dump_kernel BENCH PARAMS ARCH   (e.g. dump_kernel qr n=12 systolic)");
        std::process::exit(2);
    };
    let Some((bench, cfg)) = grid::resolve(name, params, arch) else {
        eprintln!("no grid cell '{name} {params} [{arch}]'");
        std::process::exit(2);
    };
    let built = bench.workload().build(&cfg);
    println!(
        "{} — {} control steps, {} fabric config(s)\n",
        built.program.name,
        built.program.control.len(),
        built.program.configs.len()
    );
    for (ci, regions) in built.program.configs.iter().enumerate() {
        println!("config {ci}:");
        for r in regions {
            println!(
                "  region '{}' ({}, unroll {}): {} instructions, in {:?}, out {:?}",
                r.name,
                r.kind,
                r.unroll,
                r.dfg.num_instructions(),
                r.input_ports().iter().map(|p| p.0).collect::<Vec<_>>(),
                r.output_ports().iter().map(|p| p.0).collect::<Vec<_>>(),
            );
        }
    }
    println!();
    for (i, step) in built.program.control.iter().enumerate() {
        match step {
            ControlStep::Command(vc) => println!("{i:4}: {vc}"),
            ControlStep::Host(op) => println!("{i:4}: host {}", op.cycles),
        }
    }
}
