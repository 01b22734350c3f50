//! Golden tests pinning the stage-based driver to the pre-refactor
//! engine, bit for bit.
//!
//! The `SyntheticConfig::small` rows below were recorded from the
//! monolithic `Cpla::run` loop *before* it was decomposed into discrete
//! flow stages (see `examples/record_snapshot.rs`). Any behavioral drift
//! — a reordered stage, a cache consulted differently, a float summed
//! in another order — shows up here as a changed bit pattern, not as an
//! invisible fraction of a picosecond.
//!
//! Those small designs are uncongested: their partition leaves carry no
//! binding capacity rows, so they cannot see a change in how the SDP
//! treats slack variables. The Table 2 rows (`adaptec1`, and the
//! pre-overflowed `newblue1` whose rounds are all rejected) were
//! recorded with the slacks still on the PSD diagonal; their leaves do
//! carry binding slacks, and multi-round `adaptec1` exercises the
//! warm-started re-solves too.

use cpla::{Cpla, CplaConfig};
use ispd::SyntheticConfig;
use route::{initial_assignment, route_netlist, RouterConfig};

/// A pinned workload.
#[derive(Clone, Copy, Debug)]
enum Design {
    /// `SyntheticConfig::small(seed)` at ratio 0.05, 8 rounds.
    Small(u64),
    /// A Table 2 design at the default configuration (ratio 0.005).
    Named(&'static str),
}

/// One recorded engine outcome on a fixed workload.
struct Expected {
    design: Design,
    /// `f64::to_bits` of the final released-average delay.
    avg_bits: u64,
    /// `f64::to_bits` of the final released-maximum delay.
    max_bits: u64,
    /// `f64::to_bits` of each round's released-average delay, accepted
    /// or not.
    round_avg_bits: &'static [u64],
    via_overflow: u64,
    via_count: u64,
    rounds: usize,
    partitions_solved: usize,
    partitions_reused: usize,
    evaluations: u64,
    gate_accepted: usize,
    gate_rejected: usize,
    released: &'static [usize],
}

/// Recorded by `examples/record_snapshot.rs` (1 thread). The per-round
/// bits and the Table 2 rows were added later, recorded from the
/// engine that still kept its slacks on the PSD diagonal.
/// Last re-pinned after the via-overflow pricing and preference-gated
/// post-mapping fixes: the partition extraction now charges the full
/// `α` weight for vias through at-capacity layers, and Algorithm-1
/// mapping no longer hoists segments onto top layers the relaxation
/// did not pick, so every row moved.
const SNAPSHOT: &[Expected] = &[
    Expected {
        design: Design::Small(3),
        avg_bits: 0x40815a6112938e9e,
        max_bits: 0x4087a09bd0b1666a,
        round_avg_bits: &[
            0x40839164d5c8bc60,
            0x40815a6112938e9e,
            0x40815a6112938e9e,
            0x40815a6112938e9e,
        ],
        via_overflow: 0,
        via_count: 348,
        rounds: 4,
        partitions_solved: 38,
        partitions_reused: 0,
        evaluations: 76,
        gate_accepted: 14,
        gate_rejected: 2,
        released: &[63, 72, 118, 51, 62, 24],
    },
    Expected {
        design: Design::Small(42),
        avg_bits: 0x40881471ccf1109d,
        max_bits: 0x409e5631bc4e257a,
        round_avg_bits: &[
            0x408b04a9c540b455,
            0x4088aeb58718677b,
            0x40885bfdae2378c3,
            0x40882943f81cdf80,
            0x40881471ccf1109d,
            0x40881471ccf1109d,
            0x40881471ccf1109d,
        ],
        via_overflow: 0,
        via_count: 370,
        rounds: 7,
        partitions_solved: 53,
        partitions_reused: 6,
        evaluations: 106,
        gate_accepted: 18,
        gate_rejected: 16,
        released: &[46, 48, 85, 19, 64, 0],
    },
    Expected {
        design: Design::Named("adaptec1"),
        avg_bits: 0x40ce98a63be5dfeb,
        max_bits: 0x40db4e1d95907722,
        round_avg_bits: &[
            0x40d048e85c2ced72,
            0x40cea554b3db9da5,
            0x40cea23e52d08922,
            0x40ce98a63be5dfeb,
            0x40ce97986d429207,
            0x40ce97986d429207,
        ],
        via_overflow: 482,
        via_count: 31587,
        rounds: 6,
        partitions_solved: 159,
        partitions_reused: 84,
        evaluations: 318,
        gate_accepted: 44,
        gate_rejected: 58,
        released: &[
            2475, 4362, 3147, 4217, 1460, 1058, 5059, 1078, 3136, 4363, 4739, 1671, 5438, 2009,
            4096, 4384, 5046, 4574, 1814, 565, 2535, 3200, 1585, 2688, 4173, 2069, 366, 1597,
        ],
    },
    Expected {
        design: Design::Named("newblue1"),
        avg_bits: 0x40d6dcdd8859db98,
        max_bits: 0x40e5cf348f34cfc4,
        round_avg_bits: &[0x40cb4e0172879fd6, 0x40ca2444b9d1e0a1],
        via_overflow: 349,
        via_count: 30160,
        rounds: 2,
        partitions_solved: 92,
        partitions_reused: 0,
        evaluations: 184,
        gate_accepted: 39,
        gate_rejected: 11,
        released: &[
            4571, 4725, 3390, 543, 1459, 4728, 1486, 2640, 3129, 4199, 1312, 4057, 2331, 5289,
            3664, 3815, 4839, 585, 5378, 3057, 428, 5285, 577, 4377, 2058, 3535, 778, 4197,
        ],
    },
];

fn run(design: Design) -> cpla::CplaReport {
    let (cfg, config) = match design {
        Design::Small(seed) => (
            SyntheticConfig::small(seed),
            CplaConfig {
                critical_ratio: 0.05,
                max_rounds: 8,
                threads: 1,
                ..CplaConfig::default()
            },
        ),
        Design::Named(name) => (
            SyntheticConfig::named(name).expect("Table 2 design"),
            CplaConfig {
                threads: 1,
                ..CplaConfig::default()
            },
        ),
    };
    let (mut grid, specs) = cfg.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    Cpla::new(config)
        .run(&mut grid, &netlist, &mut assignment)
        .expect("snapshot workload is well-formed")
}

#[test]
fn stage_driver_matches_the_pre_refactor_engine_bit_for_bit() {
    for e in SNAPSHOT {
        let r = run(e.design);
        let label = format!("design={:?}", e.design);
        assert_eq!(
            r.final_metrics.avg_tcp.to_bits(),
            e.avg_bits,
            "{label}: avg_tcp drifted to {}",
            r.final_metrics.avg_tcp
        );
        assert_eq!(
            r.final_metrics.max_tcp.to_bits(),
            e.max_bits,
            "{label}: max_tcp drifted to {}",
            r.final_metrics.max_tcp
        );
        let round_bits: Vec<u64> = r.rounds.iter().map(|s| s.avg_tcp.to_bits()).collect();
        assert_eq!(round_bits, e.round_avg_bits, "{label}: per-round avg_tcp");
        assert_eq!(r.final_metrics.via_overflow, e.via_overflow, "{label}: OV#");
        assert_eq!(r.final_metrics.via_count, e.via_count, "{label}: via#");
        assert_eq!(r.rounds.len(), e.rounds, "{label}: rounds");
        assert_eq!(
            r.stats.partitions_solved, e.partitions_solved,
            "{label}: partitions_solved"
        );
        assert_eq!(
            r.stats.partitions_reused, e.partitions_reused,
            "{label}: partitions_reused"
        );
        assert_eq!(r.stats.evaluations, e.evaluations, "{label}: evaluations");
        assert_eq!(
            r.stats.gate_accepted, e.gate_accepted,
            "{label}: gate_accepted"
        );
        assert_eq!(
            r.stats.gate_rejected, e.gate_rejected,
            "{label}: gate_rejected"
        );
        assert_eq!(r.released, e.released, "{label}: released set");
    }
}
