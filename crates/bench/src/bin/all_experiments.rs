//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! ```text
//! all_experiments            # auto worker count (one per core)
//! all_experiments --jobs 4   # explicit worker count; tables are
//!                            # byte-identical for every setting
//! ```
//!
//! Every figure generator pulls its simulations through the evaluation
//! engine (`revel_core::engine`), so the large suite is simulated once and
//! Fig. 8/19/23/25/Tab. VII all consume the same cached runs; the footer
//! prints the cache counters as evidence.
use revel_core::{engine, experiments as ex, Bench};

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" | "-j" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => engine::set_jobs(n),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    println!("{}", ex::fig01_percent_ideal());
    println!("{}", ex::fig06_dep_distance());
    println!("{}", ex::fig07_taxonomy_area());
    println!("{}", ex::tab04_asic_models());
    println!("{}", ex::tab06_area_power());

    println!("--- running small-size suite (sim) ---");
    let small = ex::run_comparisons(&Bench::suite_small());
    println!("{}", ex::fig19_batch1(&small));

    println!("--- running large-size suite (sim) ---");
    let large = ex::run_comparisons(&Bench::suite_large());
    println!("{}", ex::fig08_spatial_baselines(&large));
    println!("{}", ex::fig19_batch1(&large));
    println!("{}", ex::fig23_bottlenecks(&large));
    println!("{}", ex::fig25_perf_per_area(&large));
    println!("{}", ex::tab07_asic_overhead(&large));

    println!("{}", ex::fig20_batch8());
    println!("{}", ex::fig21_cpu_scaling());
    println!("{}", ex::fig22_ablation());
    println!("{}", ex::fig24_dpe_sensitivity());

    // Counters (cache hits, simulated/skipped cycles, schedule-cache and
    // verdict-memo hits) are deterministic, so stdout stays byte-identical
    // for every --jobs setting — the schedule cache and the verdict memo
    // count misses exactly at insert time (misses == entries) and the
    // engine cache is single-flight, so the splits no longer shift with
    // worker interleaving. The CI determinism job byte-diffs this stream
    // across --jobs 1/4.
    println!("{}", engine::stats());
    println!("{}", revel_core::sim::schedule_cache_stats());
    println!("{}", revel_core::verify::verdict_memo_stats());
    eprintln!("({} worker(s))", engine::jobs());
}

fn usage() -> ! {
    eprintln!("usage: all_experiments [--jobs N]");
    std::process::exit(2);
}
