//! Pins the Curie replay's exact numbers for the paper's two studies.
//!
//! The replay's own tests check inequalities (saturation, ordering,
//! ramp shape); this one fixes every scalar the figure bins print, bit for
//! bit, and a digest of the three CSV series each study writes.  The
//! values were captured from the batch-simulator implementation the
//! replay was first written against; they must never be regenerated from
//! the code under test.

use melissa_bench::curie::{simulate_study, FullScaleParams, OutputKind, StudyTraces};

/// FNV-1a, 64-bit.
fn fnv1a64(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the three series exactly as `fig6` writes them.
fn csv_digest(t: &StudyTraces) -> u64 {
    [
        t.running_groups.to_csv("running_groups"),
        t.cores_used.to_csv("cores"),
        t.group_exec_time.to_csv("group_exec_s"),
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325, |h, csv| fnv1a64(h, csv.as_bytes()))
}

struct Pinned {
    wall_time_s: u64,
    peak_groups: u32,
    peak_cores: u32,
    blocked_group_seconds: u64,
    cpu_hours_sims: u64,
    data_bytes: u64,
    csv_digest: u64,
}

fn check(server_nodes: u32, want: Pinned) {
    let t = simulate_study(
        &FullScaleParams::default(),
        OutputKind::Melissa,
        server_nodes,
    );
    let got = Pinned {
        wall_time_s: t.wall_time_s.to_bits(),
        peak_groups: t.peak_groups,
        peak_cores: t.peak_cores,
        blocked_group_seconds: t.blocked_group_seconds.to_bits(),
        cpu_hours_sims: t.cpu_hours_sims.to_bits(),
        data_bytes: t.data_bytes.to_bits(),
        csv_digest: csv_digest(&t),
    };
    let show = |p: &Pinned| {
        format!(
            "wall_time_s {:#018x} ({}), peak_groups {}, peak_cores {}, \
             blocked_group_seconds {:#018x}, cpu_hours_sims {:#018x}, \
             data_bytes {:#018x}, csv_digest {:#018x}",
            p.wall_time_s,
            f64::from_bits(p.wall_time_s),
            p.peak_groups,
            p.peak_cores,
            p.blocked_group_seconds,
            p.cpu_hours_sims,
            p.data_bytes,
            p.csv_digest
        )
    };
    assert_eq!(
        show(&got),
        show(&want),
        "the {server_nodes}-node study moved"
    );
}

#[test]
fn study_1_fifteen_server_nodes_is_pinned() {
    check(
        15,
        Pinned {
            wall_time_s: 0x40c2_2ecd_7c34_bfe1,
            peak_groups: 56,
            peak_cores: 28_912,
            blocked_group_seconds: 0x4109_fcad_5826_409e,
            cpu_hours_sims: 0x40f0_715c_98e5_cce2,
            data_bytes: 0x42c5_cd39_f1ff_eaa8,
            csv_digest: 0x8efa_40f1_bbc3_ee50,
        },
    );
}

#[test]
fn study_2_thirty_two_server_nodes_is_pinned() {
    check(
        32,
        Pinned {
            wall_time_s: 0x40b5_b784_7c4c_7735,
            peak_groups: 55,
            peak_cores: 28_672,
            blocked_group_seconds: 0,
            cpu_hours_sims: 0x40e2_1a16_dd83_c881,
            data_bytes: 0x42c5_cd39_f1ff_eaa8,
            csv_digest: 0xb0b8_05c3_3beb_0ab5,
        },
    );
}
