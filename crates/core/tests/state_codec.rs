//! The worker-state codec (`pack_state` / `unpack_state`) and the
//! study-end reduction, from outside the crate:
//!
//! * the v4 bytes of a fixed seeded state are pinned by a digest computed
//!   by an earlier commit's codec, so the layout provably did not move;
//! * `unpack_state` is fed truncated, bit-flipped and arbitrary bytes and
//!   must answer `Err(CheckpointError::…)` — never a panic, an abort or an
//!   allocation sized by the blob;
//! * the in-place reduction equals the historical pack → unpack → merge
//!   reduction (kept here as the reference) byte for byte.

use melissa::server::checkpoint::{pack_state, unpack_state, write_state, CheckpointError};
use melissa::server::state::WorkerState;
use melissa::shard::{reduce_owned_states, reduce_worker_states};
use melissa_mesh::CellRange;
use proptest::prelude::*;

/// Deterministic value stream (no RNG crate: the golden digest must not
/// depend on a generator's implementation).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
    }
}

/// Feeds one whole `(group, timestep)` — every role in one chunk.
fn feed(st: &mut WorkerState, lcg: &mut Lcg, group: u64, ts: u32) {
    let slab = st.slab();
    for role in 0..(st.dim() + 2) as u16 {
        let vals: Vec<f64> = (0..slab.len).map(|_| lcg.next()).collect();
        st.on_data(group, role, ts, slab.start as u64, &vals);
    }
}

/// The pinned state: three ragged tiles at `p = 3`, thresholds, quantiles,
/// a finished group, a running group and an in-flight assembly.
fn golden_state() -> WorkerState {
    const TS: u32 = 3;
    let slab = CellRange {
        start: 11,
        len: 301,
    };
    let mut st = WorkerState::with_stats(1, slab, 3, TS as usize, &[-2.5, 4.0], &[0.05, 0.5, 0.95]);
    let mut lcg = Lcg(2017);
    for ts in 0..TS {
        feed(&mut st, &mut lcg, 4, ts);
    }
    feed(&mut st, &mut lcg, 9, 0);
    feed(&mut st, &mut lcg, 9, 1);
    // Group 13 is still assembling.
    st.on_data(13, 0, 0, slab.start as u64, &vec![1.0; slab.len]);
    st
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn v4_bytes_match_the_parent_commits_golden_digest() {
    let bytes = pack_state(&golden_state());
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (GOLDEN_LEN, GOLDEN_FNV1A64),
        "the v4 checkpoint byte layout moved"
    );
    // And the pinned bytes still restore to a state that re-packs to them.
    let back = unpack_state(&bytes, 1).expect("golden bytes restore");
    assert_eq!(pack_state(&back), bytes);
}

/// Records what each `write` call was handed.
#[derive(Default)]
struct Writes {
    bytes: Vec<u8>,
    largest: usize,
    calls: usize,
}

impl std::io::Write for Writes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.largest = self.largest.max(buf.len());
        self.calls += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The streaming writer lays down exactly the bytes of `pack_state`: the
/// pinned digest again, from a sink that receives them in pieces no
/// larger than one timestep's Sobol' state and the scalars ahead of it.
#[test]
fn streamed_bytes_match_pack_state_and_the_golden_digest() {
    let state = golden_state();
    let mut sink = Writes::default();
    let written = write_state(&state, &mut sink).expect("the sink takes every write");
    let streamed = sink.bytes;
    assert_eq!(written, streamed.len() as u64);
    assert_eq!(streamed, pack_state(&state));
    let sobol_part = 8 * (4 * state.dim() + 4) * state.slab().len;
    assert!(
        sink.largest <= sobol_part + 64 && sink.calls > 1,
        "{} writes, the largest {} B, a Sobol' part {sobol_part} B",
        sink.calls,
        sink.largest
    );
    assert_eq!(
        (streamed.len(), fnv1a64(&streamed)),
        (GOLDEN_LEN, GOLDEN_FNV1A64),
        "the streamed v4 layout moved"
    );
}

/// `pack_state(&golden_state())` computed by the codec of commit ef3cea6,
/// which still kept the interval section as an in-memory ledger (this
/// state's groups never moved, so the ledger held one segment each).
/// Before the fixture lost its migrated and banned groups, the pin was
/// `(195_720, 0x5e78_c1b1_7487_ffb1)`, from commit 449bbdf.
const GOLDEN_LEN: usize = 195_600;
const GOLDEN_FNV1A64: u64 = 0x1c40_4cf4_06e1_9e1c;

// ---------------------------------------------------------------------
// Hostile bytes
// ---------------------------------------------------------------------

mod common;

/// Records the largest single allocation the test binary ever asks for,
/// so "no allocation sized by the blob" is an assertion, not a hope.
#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// No test in this file legitimately allocates more than the golden blob
/// a few times over; a size taken from hostile bytes would dwarf this.
const ALLOC_CEILING: usize = 16 << 20;

fn assert_no_blob_sized_allocation() {
    let peak = common::largest_alloc();
    assert!(
        peak < ALLOC_CEILING,
        "a {peak}-byte allocation was requested"
    );
}

/// A state small enough to attack exhaustively (≈ 1.6 kB packed) that
/// still has every section: thresholds, quantiles, a finished and a
/// running group in the interval section.
fn tiny_state() -> WorkerState {
    let slab = CellRange { start: 3, len: 5 };
    let mut st = WorkerState::with_stats(0, slab, 2, 3, &[0.5], &[0.25, 0.75]);
    let mut lcg = Lcg(7);
    for ts in 0..3 {
        feed(&mut st, &mut lcg, 1, ts);
    }
    feed(&mut st, &mut lcg, 2, 0);
    st
}

/// `Ok` is fine (a flipped payload bit is still a valid state); anything
/// else must be a typed error.  Returns whether the blob was rejected.
fn rejected(bytes: &[u8]) -> bool {
    match unpack_state(bytes, 0) {
        Ok(_) => false,
        Err(CheckpointError::Corrupt(_) | CheckpointError::UnsupportedVersion { .. }) => true,
        Err(CheckpointError::Io(e)) => panic!("no I/O happens while unpacking: {e}"),
    }
}

#[test]
fn every_prefix_truncation_is_an_error() {
    let bytes = pack_state(&tiny_state());
    assert!(!rejected(&bytes));
    for cut in 0..bytes.len() {
        assert!(rejected(&bytes[..cut]), "prefix of {cut} bytes accepted");
    }
    assert_no_blob_sized_allocation();
}

#[test]
fn every_single_bit_flip_and_byte_smash_is_survived() {
    let bytes = pack_state(&tiny_state());
    let mut hostile = bytes.clone();
    for at in 0..bytes.len() {
        for smashed in (0..8).map(|bit| bytes[at] ^ (1 << bit)).chain([0x00, 0xff]) {
            hostile[at] = smashed;
            rejected(&hostile);
        }
        hostile[at] = bytes[at];
    }
    assert_no_blob_sized_allocation();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A handful of random bit flips anywhere in a valid blob.
    #[test]
    fn random_bit_flips_never_panic(
        flips in prop::collection::vec((0usize..1 << 20, 0u8..8), 1..6),
    ) {
        let mut bytes = pack_state(&tiny_state());
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        rejected(&bytes);
        assert_no_blob_sized_allocation();
    }

    /// Arbitrary bytes, bare and behind a valid header (so the walk gets
    /// past the magic and into the size fields).
    #[test]
    fn arbitrary_bytes_are_rejected(
        noise in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..600),
        version in 2u32..5,
    ) {
        prop_assert!(rejected(&noise) || noise.is_empty());
        let mut framed = Vec::new();
        framed.extend_from_slice(&0x4d4c5341u32.to_le_bytes());
        framed.extend_from_slice(&version.to_le_bytes());
        framed.extend_from_slice(&0u64.to_le_bytes());
        framed.extend_from_slice(&noise);
        rejected(&framed);
        assert_no_blob_sized_allocation();
    }
}

// ---------------------------------------------------------------------
// The in-place reduction against the historical one
// ---------------------------------------------------------------------

/// The reduction as it ran before it went in place: every state through
/// `pack_state` → `unpack_state`, then the per-worker left fold in shard
/// order.  Kept as the reference the consuming reduction must match.
fn reference_reduce(shards: &[Vec<WorkerState>]) -> Vec<WorkerState> {
    let drain =
        |st: &WorkerState| unpack_state(&pack_state(st), st.worker_id()).expect("round trip");
    (0..shards[0].len())
        .map(|w| {
            let mut acc = drain(&shards[0][w]);
            for shard in &shards[1..] {
                acc.merge(&drain(&shard[w]));
            }
            acc
        })
        .collect()
}

const TS: u32 = 3;

/// Random lineages: `n_shards × n_workers` states over six groups, each
/// group either whole on one shard or abandoned half-assembled; plus an
/// assembly left in flight on shard 0.
fn random_lineages(n_shards: usize, n_workers: usize, seed: u64) -> Vec<Vec<WorkerState>> {
    let mut lcg = Lcg(seed);
    let mut pick = |n: usize| (lcg.next() + 10.0) as usize * 7919 % n;
    let mut shards: Vec<Vec<WorkerState>> = (0..n_shards)
        .map(|_| {
            (0..n_workers)
                .map(|w| {
                    let slab = CellRange {
                        start: w * 9,
                        len: 9,
                    };
                    WorkerState::with_stats(w, slab, 2, TS as usize, &[0.5], &[0.25, 0.75])
                })
                .collect()
        })
        .collect();
    let mut values = Lcg(seed ^ 0xabcd);
    for g in 0..6u64 {
        let home = pick(n_shards);
        let abandoned = pick(3) == 1;
        for st in &mut shards[home] {
            if abandoned {
                // One role of the first timestep only: left in flight.
                let slab = st.slab();
                st.on_data(g, 1, 0, slab.start as u64, &vec![2.0; slab.len]);
            } else {
                for ts in 0..TS {
                    feed(st, &mut values, g, ts);
                }
            }
        }
    }
    for st in &mut shards[0] {
        let slab = st.slab();
        st.on_data(77, 0, 1, slab.start as u64, &vec![3.0; slab.len]);
    }
    shards
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Consuming and borrowing reduction both equal the historical
    /// pack → unpack → merge reduction, byte for byte under `pack_state`.
    #[test]
    fn in_place_reduction_equals_the_codec_round_trip_reduction(
        n_shards in 1usize..5,
        n_workers in 1usize..4,
        seed in 0u64..1 << 40,
    ) {
        let shards = random_lineages(n_shards, n_workers, seed);
        prop_assert!(shards[0].iter().all(|st| st.pending_assemblies() > 0));
        let want: Vec<Vec<u8>> = reference_reduce(&shards).iter().map(pack_state).collect();
        let borrowed: Vec<Vec<u8>> = reduce_worker_states(&shards).iter().map(pack_state).collect();
        prop_assert!(borrowed == want, "borrowing reduction differs");
        let reduced = reduce_owned_states(shards);
        prop_assert!(reduced.iter().all(|st| st.pending_assemblies() == 0));
        prop_assert!(reduced.iter().all(|st| st.pooled_assemblies() == 0));
        let owned: Vec<Vec<u8>> = reduced.iter().map(pack_state).collect();
        prop_assert!(owned == want, "consuming reduction differs");
    }
}
