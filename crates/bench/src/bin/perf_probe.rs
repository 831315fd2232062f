//! Dev utility: per-app uarch campaign cost at small N (not an artifact).
use kernels::all_benchmarks;
use relia::{run_uarch_campaign, CampaignCfg};
use std::time::Instant;

fn main() {
    bench::cli::Args::from_env().finish();
    let cfg = CampaignCfg::new(10, 10, 1);
    let mut total = 0.0;
    for b in all_benchmarks() {
        let t = Instant::now();
        run_uarch_campaign(b.as_ref(), &cfg, false);
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        println!(
            "{:<12} {:>6.2}s  ({:.1} ms/inj over {} inj)",
            b.name(),
            dt,
            dt * 1000.0 / (b.kernels().len() * 5 * 10) as f64,
            b.kernels().len() * 5 * 10
        );
    }
    println!(
        "TOTAL {total:.1}s at N=10 → scale ~{:.0}s per 100 N",
        total * 10.0
    );
}
