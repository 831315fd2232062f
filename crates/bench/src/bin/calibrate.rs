//! Measures golden-run cost per benchmark in both engines — used to size
//! campaign defaults (not a paper artifact).

use kernels::{all_benchmarks, golden_run, Variant};
use std::time::Instant;
use vgpu_sim::GpuConfig;

fn main() {
    bench::cli::Args::from_env().finish();
    let cfg = GpuConfig::default();
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "app", "t_timed", "cycles", "t_func", "instrs", "speedup"
    );
    for b in all_benchmarks() {
        let t0 = Instant::now();
        let gt = golden_run(b.as_ref(), &cfg, Variant::TIMED);
        let dt = t0.elapsed();
        let t1 = Instant::now();
        let gf = golden_run(b.as_ref(), &cfg, Variant::FUNCTIONAL);
        let df = t1.elapsed();
        println!(
            "{:<12} {:>9.1?} {:>12} {:>9.1?} {:>12} {:>9.1}x",
            b.name(),
            dt,
            gt.total_cost,
            df,
            gf.total_cost,
            dt.as_secs_f64() / df.as_secs_f64().max(1e-9)
        );
    }
}
