//! Tracker on/off differential: attaching the ACE lifetime tracker must
//! be invisible — byte-identical functional outputs, identical cycle
//! counts and statistics, and unchanged injection-campaign outcomes —
//! and the ACE word-cycles it measures are pinned exactly, so a change to
//! how the tracker computes liveness cannot silently move them.

use kernels::{all_benchmarks, golden_run, golden_run_ace, Variant};
use relia::{execute_shard, prepare_uarch_campaign, records_fingerprint, CampaignCfg, EngineCfg};
use vgpu_sim::GpuConfig;

/// Exact ACE word-cycles per app on `volta_scaled(4)`: final totals, then
/// one per-launch delta per golden launch (`HwStructure::ALL` order).
type AcePin = (&'static str, [u64; 5], &'static [[u64; 5]]);

#[rustfmt::skip]
const ACE_PINS: [AcePin; 11] = [
    (
        "SRADv1",
        [248015224, 17165080, 13244228, 0, 490105996],
        &[
            [4915200, 0, 0, 0, 0],
            [5027328, 0, 0, 0, 0],
            [27600748, 9345672, 0, 0, 0],
            [39846272, 0, 4279610, 0, 0],
            [47288960, 0, 2342504, 0, 50730368],
            [3987968, 0, 0, 0, 5853184],
            [29684748, 7819408, 0, 0, 0],
            [39846272, 0, 4279610, 0, 59077856],
            [47288960, 0, 2342504, 0, 63492096],
            [2528768, 0, 0, 0, 14606976],
        ],
    ),
    (
        "SRADv2",
        [207425280, 5543794, 5349623, 0, 308692960],
        &[
            [60904854, 2320048, 3022656, 0, 0],
            [51942473, 619169, 363536, 0, 26444800],
            [42635480, 1985408, 1599895, 0, 70216288],
            [51942473, 619169, 363536, 0, 40704128],
        ],
    ),
    (
        "K-Means",
        [329507978, 0, 19394224, 0, 520638568],
        &[
            [10280320, 0, 17536512, 0, 0],
            [160976560, 0, 939744, 0, 0],
            [158251098, 0, 917968, 0, 0],
        ],
    ),
    (
        "HotSpot",
        [94232476, 7989552, 3973718, 0, 56692288],
        &[
            [48323620, 3468136, 2097013, 0, 0],
            [45908856, 4521416, 1876705, 0, 861152],
        ],
    ),
    (
        "LUD",
        [709266448, 198386588, 42493856, 0, 1488413200],
        &[
            [1470032, 5851104, 0, 0, 0],
            [14732192, 41457880, 14315200, 0, 6177536],
            [291999520, 88261116, 1784896, 0, 42355392],
            [1293392, 5409504, 0, 0, 10316928],
            [9946560, 31243904, 809152, 0, 66099936],
            [301339648, 2129408, 0, 0, 136911232],
            [3199232, 5409504, 0, 0, 10080496],
            [8683680, 12682312, 25071072, 0, 43257600],
            [75308800, 532352, 513536, 0, 46144000],
            [1293392, 5409504, 0, 0, 553344],
        ],
    ),
    (
        "SCP",
        [66186216, 763232, 0, 0, 40952],
        &[
            [66186216, 763232, 0, 0, 0],
        ],
    ),
    (
        "VA",
        [15851520, 0, 0, 0, 972800],
        &[
            [15851520, 0, 0, 0, 0],
        ],
    ),
    (
        "NW",
        [46214240, 47406814, 69390, 0, 1607057151],
        &[
            [1216612, 3235130, 496, 0, 0],
            [5147784, 6676398, 17800, 0, 1834657],
            [8607596, 8631060, 798, 0, 1923645],
            [11924688, 12613646, 48700, 0, 19428338],
            [8002220, 8068020, 798, 0, 47920046],
            [8162120, 5451360, 532, 0, 31415995],
            [3153220, 2731200, 266, 0, 52141388],
        ],
    ),
    (
        "PathFinder",
        [22214924, 677684, 3040, 0, 3278304],
        &[
            [7730330, 338842, 1520, 0, 0],
            [14484594, 338842, 1520, 0, 288],
        ],
    ),
    (
        "BackProp",
        [214045636, 5173526, 599136, 0, 271792544],
        &[
            [129138948, 5173526, 196316, 0, 0],
            [84906688, 0, 402820, 0, 164840896],
        ],
    ),
    (
        "BFS",
        [18541671, 0, 4883804, 0, 523487391],
        &[
            [578764, 0, 5836, 0, 0],
            [673630, 0, 0, 0, 2917],
            [386639, 0, 21298, 0, 57482],
            [338444, 0, 0, 0, 204532],
            [489610, 0, 54043, 0, 568915],
            [357037, 0, 0, 0, 980582],
            [720545, 0, 134756, 0, 2825360],
            [404120, 0, 0, 0, 4149358],
            [1491625, 0, 558446, 0, 11249913],
            [511808, 0, 0, 0, 14832926],
            [2962267, 0, 1236967, 0, 24463367],
            [599296, 0, 0, 0, 30052062],
            [3402578, 0, 1499763, 0, 22396573],
            [514272, 0, 0, 0, 26025044],
            [2302257, 0, 1166683, 0, 6673186],
            [375861, 0, 0, 0, 7530665],
            [712554, 0, 179453, 0, 1362636],
            [334782, 0, 0, 0, 1439517],
            [391832, 0, 19910, 0, 302625],
            [327584, 0, 0, 0, 313981],
            [340534, 0, 6649, 0, 348],
            [325632, 0, 0, 0, 0],
        ],
    ),
];

#[test]
fn tracker_is_invisible_to_every_golden_run() {
    let cfg = GpuConfig::volta_scaled(4);
    let benches = all_benchmarks();
    assert_eq!(benches.len(), ACE_PINS.len());
    for (b, (name, totals, per_launch)) in benches.iter().zip(ACE_PINS) {
        let plain = golden_run(b.as_ref(), &cfg, Variant::TIMED);
        let ace = golden_run_ace(b.as_ref(), &cfg);
        assert_eq!(plain.output, ace.golden.output, "{} output", b.name());
        assert_eq!(
            plain.total_cost,
            ace.golden.total_cost,
            "{} total cycles",
            b.name()
        );
        assert_eq!(plain.records.len(), ace.golden.records.len());
        for (p, a) in plain.records.iter().zip(&ace.golden.records) {
            assert_eq!(p.stats, a.stats, "{} per-launch stats", b.name());
        }
        // The instrumentation itself did run.
        assert!(ace.events > 0, "{} recorded no lifetime events", b.name());
        assert_eq!(b.name(), name);
        assert_eq!(ace.totals, totals, "{name} ACE totals");
        assert_eq!(ace.per_launch, per_launch, "{name} per-launch ACE deltas");
    }
}

#[test]
fn ace_runs_do_not_perturb_injection_campaigns() {
    let cfg = CampaignCfg::new(6, 6, 0xD1FF);
    let bench = kernels::apps::va::Va;
    let prep = prepare_uarch_campaign(&bench, &cfg, false);
    let before = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();

    // An instrumented run in between must not leak any state into a
    // fresh campaign: same plan fingerprint, byte-identical records.
    let est = ace::estimate_app(&bench, &cfg.gpu);
    assert!(est.events > 0);

    let prep2 = prepare_uarch_campaign(&bench, &cfg, false);
    assert_eq!(prep.plan.fingerprint(), prep2.plan.fingerprint());
    let after = execute_shard(&prep2, &EngineCfg::single_shot()).unwrap();
    assert_eq!(records_fingerprint(&before), records_fingerprint(&after));
    assert_eq!(before, after);
}
