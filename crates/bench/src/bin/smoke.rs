//! Quick campaign smoke test (not a paper artifact).

use kernels::apps::{lud::Lud, va::Va};
use relia::{run_sw_campaign, run_uarch_campaign, CampaignCfg};
use std::time::Instant;
use vgpu_sim::HwStructure;

fn main() {
    bench::cli::Args::from_env().finish();
    let cfg = CampaignCfg::new(200, 200, 1);
    for b in [&Va as &dyn kernels::Benchmark, &Lud] {
        let t = Instant::now();
        let avf = run_uarch_campaign(b, &cfg, false);
        let ta = t.elapsed();
        let t = Instant::now();
        let svf = run_sw_campaign(b, &cfg, false);
        let ts = t.elapsed();
        println!("== {} (avf {ta:.1?}, svf {ts:.1?})", b.name());
        for (ka, ks) in avf.kernels.iter().zip(&svf.kernels) {
            print!(
                "  {}: chipAVF={:.4}% [",
                ka.kernel,
                ka.chip_avf(&cfg.gpu).total() * 100.0
            );
            for h in HwStructure::ALL {
                print!(
                    "{}={:.4}% (df {:.3}) ",
                    h.label(),
                    ka.avf(h).total() * 100.0,
                    ka.df_of(h)
                );
            }
            println!("]");
            let s = ks.svf();
            println!(
                "     SVF={:.2}% (sdc {:.2}%, to {:.2}%, due {:.2}%), SVF-LD={:.2}%",
                s.total() * 100.0,
                s.sdc * 100.0,
                s.timeout * 100.0,
                s.due * 100.0,
                ks.svf_ld().total() * 100.0
            );
        }
        println!(
            "  appAVF={:.4}%  appSVF={:.2}%",
            avf.app_avf(&cfg.gpu).total() * 100.0,
            svf.app_svf().total() * 100.0
        );
    }
}
