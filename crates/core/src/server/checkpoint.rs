//! Server checkpoint files (paper Sections 4.2.1 and 5.4).
//!
//! Each server process independently writes one binary file holding its
//! full statistics state and bookkeeping ("each process of the Melissa
//! Server independently saves one checkpoint file to the Lustre file
//! system").  In-flight assemblies are *not* saved: on restart their
//! groups replay from the beginning and discard-on-replay drops what was
//! already integrated.
//!
//! Layout (little-endian, via `melissa_transport::codec`):
//! magic, version, worker_id, slab, p, n_timesteps, per-timestep packed
//! Sobol' state, per-timestep packed moments and min/max, the threshold
//! accumulators, the Robbins–Monro quantile records, the last-completed
//! map, the finished list and the integrated-interval section.
//! Field-level tables of the layout (and the determinism rules it obeys)
//! are documented in `melissa_stats::checkpoint_format`.
//!
//! The byte codec is exposed separately from the file I/O
//! ([`pack_state`] / [`unpack_state`]) for the other places a state leaves
//! its process: shards in other processes shipping states to the reducer,
//! the daemon's `results` RPC.  The round trip is bit-identical.  The
//! in-process study-end reduction owns its states and does not use it.
//!
//! Who holds which copy:
//!
//! * [`pack_state`] builds one whole-state image in memory: what an
//!   out-of-process shard ships.
//! * [`write_state`] writes the same bytes with no image: one bulk array
//!   at a time through a staging buffer the size of the largest one.
//!   [`write_checkpoint`] and a daemon-hosted study's results files are
//!   written this way.
//! * [`unpack_state`] reads a borrowed byte slice and allocates only the
//!   state it restores, so a caller that already holds the bytes (a
//!   checkpoint read into one buffer of its file's size, a results file
//!   read into a reply frame, the frame on the client side) needs no
//!   second copy to unpack them.
//!
//! ## Format version
//!
//! The format is **v4**.  Its last section lists, per group, the
//! timestep segments `(lower_exclusive, last]` this worker integrated.
//! A worker integrates a group's timesteps in order and groups never
//! move between shards, so that is always the one segment
//! `(-1, last_completed]`: the writer derives it from the last-completed
//! map and the reader refuses any other entry as
//! [`CheckpointError::Corrupt`].  Any other version is rejected with a
//! typed [`CheckpointError::UnsupportedVersion`].

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut};
use melissa_mesh::CellRange;
use melissa_sobol::UbiquitousSobol;
use melissa_stats::{FieldMinMax, FieldMoments, FieldQuantiles, FieldThreshold};
use melissa_transport::codec::{
    copy_words_to_le, get_count, get_f64, get_u32, get_u64, get_words, words_from_le, WireError,
};

use super::state::WorkerState;

const MAGIC: u32 = 0x4d4c5341; // "MLSA"
/// The checkpoint format version.
const VERSION: u32 = 4;

/// Checkpoint read failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid checkpoint (magic/shape mismatch).
    Corrupt(&'static str),
    /// The file's format version is not the supported one — the found
    /// version is carried so operators can tell another format's file
    /// from a corrupt one.
    UnsupportedVersion {
        /// The version field the file actually contained.
        found: u32,
    },
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { what } | WireError::Invalid { what } => {
                CheckpointError::Corrupt(what)
            }
            WireError::Schema { found, .. } => CheckpointError::UnsupportedVersion { found },
        }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (supported: {VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// File name of worker `w`'s checkpoint inside a checkpoint directory.
pub fn checkpoint_file(dir: &Path, worker_id: usize) -> std::path::PathBuf {
    dir.join(format!("melissa_worker_{worker_id}.ckpt"))
}

/// One run of bytes of the packed layout, in file order: scalar fields
/// as bytes, bulk arrays by reference until the output buffer exists.
enum Part<'a> {
    Scalars(Vec<u8>),
    Sobol(&'a UbiquitousSobol),
    F64(&'a [f64]),
    U64(&'a [u64]),
}

impl Part<'_> {
    fn len(&self) -> usize {
        match self {
            Part::Scalars(b) => b.len(),
            Part::Sobol(s) => 8 * UbiquitousSobol::doubles_per_cell(s.dim()) * s.cells(),
            Part::F64(v) => 8 * v.len(),
            Part::U64(v) => 8 * v.len(),
        }
    }

    fn write(&self, dst: &mut [u8]) {
        match self {
            Part::Scalars(b) => dst.copy_from_slice(b),
            Part::Sobol(s) => s.pack_le_into(dst),
            Part::F64(v) => copy_words_to_le(dst, v),
            Part::U64(v) => copy_words_to_le(dst, v),
        }
    }
}

/// The packed layout as a list of parts: [`plan`] walks the format once,
/// appending scalars to `head` and queueing each bulk array right after
/// the scalars ahead of it.  Either output follows:
/// [`into_vec`](Self::into_vec) sizes one buffer exactly and fills it in
/// file order, [`write_to`](Self::write_to) streams the parts.
#[derive(Default)]
struct Plan<'a> {
    parts: Vec<Part<'a>>,
    head: Vec<u8>,
}

impl<'a> Plan<'a> {
    fn bulk(&mut self, part: Part<'a>) {
        let head = std::mem::take(&mut self.head);
        self.parts.push(Part::Scalars(head));
        self.parts.push(part);
    }

    /// The parts in file order, the scalars after the last array included
    /// — still in pairs of (scalars, what follows them).
    fn finish(mut self) -> Vec<Part<'a>> {
        self.bulk(Part::Scalars(Vec::new()));
        self.parts
    }

    fn into_vec(self) -> Vec<u8> {
        let parts = self.finish();
        let mut out = vec![0u8; parts.iter().map(Part::len).sum()];
        let mut rest = out.as_mut_slice();
        for part in &parts {
            let (slot, tail) = rest.split_at_mut(part.len());
            part.write(slot);
            rest = tail;
        }
        out
    }

    /// Writes the layout to `w` in file order through one staging buffer
    /// the size of the largest bulk array with the scalars ahead of it:
    /// each such pair is laid out in the buffer behind the ones before
    /// it, and the buffer goes out in one `write_all` when the next pair
    /// would not fit.
    fn write_to(self, w: &mut impl Write) -> io::Result<u64> {
        let parts = self.finish();
        let pair_len = |pair: &[Part<'_>]| pair.iter().map(Part::len).sum();
        let capacity = parts.chunks(2).map(pair_len).max().unwrap_or(0);
        // Zeroed once; every pair then overwrites the bytes it stages.
        let mut staged = vec![0u8; capacity];
        let (mut filled, mut written) = (0, 0);
        for pair in parts.chunks(2) {
            let len = pair_len(pair);
            if filled + len > capacity {
                w.write_all(&staged[..filled])?;
                written += filled as u64;
                filled = 0;
            }
            let mut rest = &mut staged[filled..filled + len];
            for part in pair {
                let (slot, tail) = rest.split_at_mut(part.len());
                part.write(slot);
                rest = tail;
            }
            filled += len;
        }
        w.write_all(&staged[..filled])?;
        Ok(written + filled as u64)
    }
}

/// Packs `state` into the v4 checkpoint byte layout.
///
/// This is the serialisation shared by the on-disk checkpoint files and
/// out-of-process shards.  The output is a
/// deterministic function of the state (bookkeeping maps are written in
/// sorted order), and `pack_state ∘ unpack_state` is bit-identical
/// (asserted by `v4_roundtrip_is_bit_identical`).  The buffer is
/// allocated once at its final size and the tiled state is written
/// straight into it.
pub fn pack_state(state: &WorkerState) -> Vec<u8> {
    plan(state).into_vec()
}

/// Writes the bytes of [`pack_state`] to `w` without a whole-state image:
/// one bulk array at a time (a timestep's Sobol' state, moment or
/// quantile array, with the scalars ahead of it) goes through one staging
/// buffer the size of the largest of them.  Returns the byte count.
/// Checkpoint saves ([`write_checkpoint`]) and the daemon's results files
/// are written this way.
pub fn write_state(state: &WorkerState, w: &mut impl Write) -> io::Result<u64> {
    plan(state).write_to(w)
}

/// The v4 layout of `state`, for [`pack_state`] and [`write_state`].
fn plan(state: &WorkerState) -> Plan<'_> {
    let (sobol, moments, minmax, thresholds, quantiles, last_completed, finished) =
        state.checkpoint_parts();
    let mut plan = Plan::default();
    plan.head.put_u32_le(MAGIC);
    plan.head.put_u32_le(VERSION);
    plan.head.put_u64_le(state.worker_id() as u64);
    plan.head.put_u64_le(state.slab().start as u64);
    plan.head.put_u64_le(state.slab().len as u64);
    plan.head.put_u32_le(state.dim() as u32);
    plan.head.put_u32_le(state.n_timesteps() as u32);
    // The tiled Sobol' state packs into the legacy role-major layout,
    // keeping the file format stable.
    for s in sobol {
        let part = Part::Sobol(s);
        plan.head.put_u64_le(s.n_groups());
        plan.head.put_u64_le(part.len() as u64 / 8);
        plan.bulk(part);
    }
    for m in moments {
        let (n, mean, m2, m3, m4) = m.raw_state();
        plan.head.put_u64_le(n);
        plan.head.put_u64_le(mean.len() as u64);
        for arr in [mean, m2, m3, m4] {
            plan.bulk(Part::F64(arr));
        }
    }
    for mm in minmax {
        let (n, mn, mx) = mm.raw_state();
        plan.head.put_u64_le(n);
        plan.head.put_u64_le(mn.len() as u64);
        for arr in [mn, mx] {
            plan.bulk(Part::F64(arr));
        }
    }
    let n_thresholds = thresholds.first().map_or(0, |v| v.len());
    plan.head.put_u64_le(n_thresholds as u64);
    for ti in 0..n_thresholds {
        for per_ts in thresholds {
            let (threshold, n, exceeded) = per_ts[ti].raw_state();
            plan.head.put_f64_le(threshold);
            plan.head.put_u64_le(n);
            plan.head.put_u64_le(exceeded.len() as u64);
            plan.bulk(Part::U64(exceeded));
        }
    }
    // Quantile section.  Probabilities and the step exponent
    // are shared across timesteps; the per-timestep record arrays are the
    // tiled storage verbatim.
    let n_probs = quantiles.first().map_or(0, |q| q.probs().len());
    plan.head.put_u64_le(n_probs as u64);
    if let Some(first) = quantiles.first() {
        plan.head.put_f64_le(first.gamma());
        for p in first.probs() {
            plan.head.put_f64_le(*p);
        }
        for q in quantiles {
            let (n, _, _, records) = q.raw_state();
            plan.head.put_u64_le(n);
            plan.head.put_u64_le(records.len() as u64);
            plan.bulk(Part::F64(records));
        }
    }
    // Sorted by group id so checkpoint bytes are a deterministic function
    // of the state (HashMap iteration order is salted per instance).
    let mut completed: Vec<(u64, i64)> = last_completed.iter().map(|(g, ts)| (*g, *ts)).collect();
    completed.sort_unstable_by_key(|&(g, _)| g);
    plan.head.put_u64_le(completed.len() as u64);
    for &(g, ts) in &completed {
        plan.head.put_u64_le(g);
        plan.head.put_i64_le(ts);
    }
    plan.head.put_u64_le(finished.len() as u64);
    for g in finished {
        plan.head.put_u64_le(*g);
    }
    // Integrated-interval section, in the same group order: each group's
    // one segment `(-1, last_completed]`.
    plan.head.put_u64_le(completed.len() as u64);
    for (g, ts) in completed {
        plan.head.put_u64_le(g);
        plan.head.put_u64_le(1);
        plan.head.put_i64_le(-1);
        plan.head.put_i64_le(ts);
    }
    plan
}

/// Writes `state` to `dir`, returning the byte count (the paper reports
/// 959 MB per process for the full-scale study).  The bytes of
/// [`pack_state`] are streamed into a `.ckpt.tmp` file ([`write_state`]:
/// no image of the state is built), synced, and renamed over the last
/// checkpoint.
pub fn write_checkpoint(dir: &Path, state: &WorkerState) -> Result<u64, CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let path = checkpoint_file(dir, state.worker_id());
    let tmp = path.with_extension("ckpt.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    let written = write_state(state, &mut f)?;
    f.sync_all()?;
    std::fs::rename(&tmp, &path)?;
    Ok(written)
}

/// Unpacks a checkpoint byte buffer produced by [`pack_state`] into a
/// [`WorkerState`] for worker `worker_id`.  Safe on untrusted bytes: every
/// failure is an `Err`.
pub fn unpack_state(bytes: &[u8], worker_id: usize) -> Result<WorkerState, CheckpointError> {
    use CheckpointError::Corrupt;
    let buf = &mut &*bytes;

    if get_u32(buf, "header")? != MAGIC {
        return Err(Corrupt("bad magic"));
    }
    let version = get_u32(buf, "header")?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    if get_u64(buf, "shape")? != worker_id as u64 {
        return Err(Corrupt("worker id mismatch"));
    }
    let start = usize::try_from(get_u64(buf, "shape")?).ok();
    let len = usize::try_from(get_u64(buf, "shape")?).ok();
    let p = get_u32(buf, "shape")? as usize;
    let n_timesteps = get_u32(buf, "shape")? as usize;
    let slab = start
        .zip(len)
        .filter(|&(start, len)| len > 0 && start.checked_add(len).is_some());
    let sobol_len = len.and_then(|len| p.checked_mul(4)?.checked_add(4)?.checked_mul(len));
    let (Some((start, len)), Some(sobol_len), true) = (slab, sobol_len, p > 0) else {
        return Err(Corrupt("degenerate shape"));
    };
    let slab = CellRange { start, len };
    // Bound the count (three 16-byte section headers per timestep) before sizing vectors by it.
    if n_timesteps > buf.remaining() / 48 {
        return Err(Corrupt("timestep count"));
    }

    let mut sobol = Vec::with_capacity(n_timesteps);
    for _ in 0..n_timesteps {
        let n = get_u64(buf, "sobol header")?;
        let raw = get_words(buf, sobol_len, 1, "sobol payload")?;
        sobol.push(UbiquitousSobol::unpack_le(p, slab.len, n, raw));
    }

    let mut moments = Vec::with_capacity(n_timesteps);
    for _ in 0..n_timesteps {
        let n = get_u64(buf, "moments header")?;
        let raw = get_words(buf, slab.len, 4, "moments payload")?;
        let mut arrays = raw.chunks_exact(slab.len * 8).map(words_from_le);
        let [mean, m2, m3, m4] = std::array::from_fn(|_| arrays.next().expect("four arrays read"));
        moments.push(FieldMoments::from_raw_state(n, mean, m2, m3, m4));
    }

    let mut minmax = Vec::with_capacity(n_timesteps);
    for _ in 0..n_timesteps {
        let n = get_u64(buf, "minmax header")?;
        let (mn, mx) = get_words(buf, slab.len, 2, "minmax payload")?.split_at(slab.len * 8);
        let (mn, mx) = (words_from_le(mn), words_from_le(mx));
        minmax.push(FieldMinMax::from_raw_state(n, mn, mx));
    }

    let n_thresholds = get_count(buf, 24, "threshold count")?;
    let mut thresholds: Vec<Vec<FieldThreshold>> = vec![Vec::new(); n_timesteps];
    for _ in 0..n_thresholds {
        for per_ts in thresholds.iter_mut() {
            let threshold = get_f64(buf, "threshold header")?;
            let n = get_u64(buf, "threshold header")?;
            let exceeded = words_from_le(get_words(buf, slab.len, 1, "threshold payload")?);
            per_ts.push(FieldThreshold::from_raw_state(threshold, n, exceeded));
        }
    }

    // Quantile section (empty when order statistics are off).  All values
    // are validated here and rejected as `Corrupt` rather than letting
    // `FieldQuantiles` constructor asserts panic: this runs on worker
    // threads, where a panic would kill the worker instead of triggering
    // the fresh-state fallback.
    let mut quantiles: Vec<FieldQuantiles> = Vec::new();
    let n_probs = get_count(buf, 8, "quantile prob count")?;
    if n_probs > 4096 {
        return Err(Corrupt("implausible quantile count"));
    }
    if n_probs > 0 {
        let gamma = get_f64(buf, "quantile config")?;
        if !(gamma > 0.5 && gamma <= 1.0) {
            return Err(Corrupt("quantile step exponent"));
        }
        let probs = (0..n_probs)
            .map(|_| get_f64(buf, "quantile config"))
            .collect::<Result<Vec<f64>, _>>()?;
        if !probs.iter().all(|&p| p > 0.0 && p < 1.0) {
            return Err(Corrupt("quantile probability"));
        }
        let flat_len = n_probs
            .checked_mul(slab.len)
            .ok_or(Corrupt("quantile payload"))?;
        for _ in 0..n_timesteps {
            let n = get_u64(buf, "quantile header")?;
            let (words, _) = get_words(buf, flat_len, 1, "quantile payload")?.as_chunks::<8>();
            let records = words.iter().map(|w| f64::from_le_bytes(*w));
            let q = FieldQuantiles::from_raw_state(slab.len, &probs, gamma, n, records);
            quantiles.push(q);
        }
    }

    let n_groups = get_count(buf, 16, "bookkeeping")?;
    let mut last_completed = HashMap::with_capacity(n_groups);
    for _ in 0..n_groups {
        last_completed.insert(get_u64(buf, "last_completed entry")?, buf.get_i64_le());
    }
    let n_finished = get_count(buf, 8, "finished count")?;
    let finished = words_from_le(&buf[..n_finished * 8]);
    buf.advance(n_finished * 8);

    // Integrated-interval section: exactly the segment `(-1, last]` of
    // every group the last-completed map holds, in increasing group order.
    if get_count(buf, 32, "interval group count")? != last_completed.len() {
        return Err(Corrupt("interval group count"));
    }
    let mut previous = None;
    for _ in 0..last_completed.len() {
        let (g, n_segs) = (buf.get_u64_le(), buf.get_u64_le());
        let (lo, hi) = (buf.get_i64_le(), buf.get_i64_le());
        if n_segs != 1 || lo != -1 || last_completed.get(&g) != Some(&hi) || previous >= Some(g) {
            return Err(Corrupt("interval segment"));
        }
        previous = Some(g);
    }

    Ok(WorkerState::from_checkpoint_parts(
        worker_id,
        slab,
        p,
        n_timesteps,
        sobol,
        moments,
        minmax,
        thresholds,
        quantiles,
        last_completed,
        finished,
    ))
}

/// Reads worker `worker_id`'s checkpoint from `dir`.
pub fn read_checkpoint(dir: &Path, worker_id: usize) -> Result<WorkerState, CheckpointError> {
    let mut file = std::fs::File::open(checkpoint_file(dir, worker_id))?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| CheckpointError::Corrupt("file size"))?;
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    unpack_state(&bytes, worker_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("melissa-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn populated_state() -> WorkerState {
        let mut st = WorkerState::with_stats(
            2,
            CellRange { start: 5, len: 3 },
            2,
            2,
            &[1.5],
            &[0.25, 0.5, 0.75],
        );
        for ts in 0..2u32 {
            for role in 0..4u16 {
                let vals: Vec<f64> = (0..3)
                    .map(|i| (role as f64) * 2.0 + i as f64 + ts as f64)
                    .collect();
                st.on_data(11, role, ts, 5, &vals);
            }
        }
        for role in 0..4u16 {
            st.on_data(12, role, 0, 5, &[1.0, 2.0, 3.0]);
        }
        st
    }

    #[test]
    fn roundtrip_preserves_statistics_and_bookkeeping() {
        let dir = tmpdir("rt");
        let st = populated_state();
        let bytes = write_checkpoint(&dir, &st).unwrap();
        assert!(bytes > 0);
        let back = read_checkpoint(&dir, 2).unwrap();
        assert_eq!(back.slab(), st.slab());
        assert_eq!(back.n_timesteps(), st.n_timesteps());
        for ts in 0..2 {
            assert_eq!(back.sobol(ts), st.sobol(ts));
            assert_eq!(back.moments(ts), st.moments(ts));
            assert_eq!(back.quantiles(ts), st.quantiles(ts));
        }
        assert_eq!(back.finished_groups(), st.finished_groups());
        assert_eq!(back.last_completed(11), st.last_completed(11));
        assert_eq!(back.last_completed(12), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The in-memory codec round-trips without touching the filesystem —
    /// the path a remote shard's states take to the reducer — and
    /// re-packing the unpacked state reproduces the exact bytes.
    #[test]
    fn pack_unpack_roundtrip_is_bit_identical_in_memory() {
        let st = populated_state();
        let bytes = pack_state(&st);
        let back = unpack_state(&bytes, 2).unwrap();
        for ts in 0..2 {
            assert_eq!(back.sobol(ts), st.sobol(ts));
            assert_eq!(back.moments(ts), st.moments(ts));
            assert_eq!(back.minmax(ts), st.minmax(ts));
            assert_eq!(back.thresholds(ts), st.thresholds(ts));
            assert_eq!(back.quantiles(ts), st.quantiles(ts));
        }
        assert_eq!(back.finished_groups(), st.finished_groups());
        assert_eq!(pack_state(&back), bytes);
    }

    /// The current (v4) format round-trips bit-identically: writing the
    /// restored state again produces the same bytes.
    #[test]
    fn v4_roundtrip_is_bit_identical() {
        let dir_a = tmpdir("v4a");
        let dir_b = tmpdir("v4b");
        let st = populated_state();
        write_checkpoint(&dir_a, &st).unwrap();
        let back = read_checkpoint(&dir_a, 2).unwrap();
        write_checkpoint(&dir_b, &back).unwrap();
        let bytes_a = std::fs::read(checkpoint_file(&dir_a, 2)).unwrap();
        let bytes_b = std::fs::read(checkpoint_file(&dir_b, 2)).unwrap();
        assert_eq!(bytes_a, bytes_b);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// A kill after a checkpoint, a restore, and a replay of the
    /// remaining groups must leave the quantile estimates bit-identical
    /// to an uninterrupted run (the Robbins–Monro recursion is a pure
    /// function of its restored state and the subsequent sample order).
    #[test]
    fn restored_quantiles_continue_bit_identically() {
        let dir = tmpdir("qcont");
        let probs = [0.25, 0.5, 0.75];
        let slab = CellRange { start: 0, len: 6 };
        let feed = |st: &mut WorkerState, g: u64| {
            for role in 0..4u16 {
                let vals: Vec<f64> = (0..6)
                    .map(|i| ((g * 37 + role as u64 * 11 + i) % 17) as f64 - 8.0)
                    .collect();
                st.on_data(g, role, 0, 0, &vals);
            }
        };
        let mut uninterrupted = WorkerState::with_stats(0, slab, 2, 1, &[], &probs);
        let mut original = WorkerState::with_stats(0, slab, 2, 1, &[], &probs);
        for g in 0..5 {
            feed(&mut uninterrupted, g);
            feed(&mut original, g);
        }
        write_checkpoint(&dir, &original).unwrap();
        drop(original); // the "kill": in-memory state is gone
        let mut restored = read_checkpoint(&dir, 0).unwrap();
        for g in 5..9 {
            feed(&mut uninterrupted, g);
            feed(&mut restored, g);
        }
        assert_eq!(restored.quantiles(0), uninterrupted.quantiles(0));
        assert_eq!(restored.sobol(0), uninterrupted.sobol(0));
        assert_eq!(restored.moments(0), uninterrupted.moments(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The interval section is derived: one segment `(-1, last]` per
    /// group, in group order.  An image whose section says anything else —
    /// two segments, another lower bound, another last timestep, a group
    /// twice or out of order — is refused as corrupt.
    #[test]
    fn interval_section_other_than_the_last_completed_map_is_corrupt() {
        let bytes = pack_state(&populated_state());
        // Groups 11 (last 1) and 12 (last 0): the section is the last
        // 8 + 2 × 32 bytes.
        let section = bytes.len() - 8 - 64;
        assert_eq!(bytes[section..section + 8], 2u64.to_le_bytes());
        let entry = |i: usize| section + 8 + 32 * i;
        let word = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!((0..2).map(|i| word(entry(i))).collect::<Vec<_>>(), [11, 12]);
        assert_eq!(
            (0..2).map(|i| word(entry(i) + 24)).collect::<Vec<_>>(),
            [1, 0]
        );
        let cases: [(&str, &[(usize, i64)]); 6] = [
            ("two segments", &[(entry(0) + 8, 2)]),
            ("lower bound 0", &[(entry(0) + 16, 0)]),
            ("last timestep 0", &[(entry(0) + 24, 0)]),
            ("group 11 twice", &[(entry(1), 11), (entry(1) + 24, 1)]),
            ("unknown group", &[(entry(1), 13)]),
            (
                "out of order",
                &[
                    (entry(0), 12),
                    (entry(0) + 24, 0),
                    (entry(1), 11),
                    (entry(1) + 24, 1),
                ],
            ),
        ];
        for (what, writes) in cases {
            let mut hostile = bytes.clone();
            for &(at, value) in writes {
                hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            assert!(
                matches!(unpack_state(&hostile, 2), Err(CheckpointError::Corrupt(_))),
                "{what} accepted"
            );
        }
        let mut short = bytes.clone();
        short[section..section + 8].copy_from_slice(&1u64.to_le_bytes());
        short.truncate(bytes.len() - 32);
        assert!(matches!(
            unpack_state(&short, 2),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(unpack_state(&bytes, 2).is_ok());
    }

    #[test]
    fn unsupported_version_reports_found_and_supported() {
        let dir = tmpdir("ver");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        std::fs::write(checkpoint_file(&dir, 0), bytes).unwrap();
        let err = match read_checkpoint(&dir, 0) {
            Err(e) => e,
            Ok(_) => panic!("the v3 format is no longer readable"),
        };
        assert!(matches!(
            err,
            CheckpointError::UnsupportedVersion { found: 3 }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("version 3") && msg.contains("supported: 4"),
            "error must name found and supported versions: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_state_continues_with_discard_on_replay() {
        let dir = tmpdir("dor");
        let st = populated_state();
        write_checkpoint(&dir, &st).unwrap();
        let mut back = read_checkpoint(&dir, 2).unwrap();
        // Group 12 completed ts 0 before the checkpoint; a restarted
        // instance replays from ts 0 — the replay must be discarded.
        for role in 0..4u16 {
            assert!(!back.on_data(12, role, 0, 5, &[9.0, 9.0, 9.0]));
        }
        assert_eq!(back.replays_discarded, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = tmpdir("missing");
        assert!(matches!(
            read_checkpoint(&dir, 0),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn corrupt_magic_is_detected() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(checkpoint_file(&dir, 0), [0u8; 64]).unwrap();
        assert!(matches!(
            read_checkpoint(&dir, 0),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_id_mismatch_is_detected() {
        let dir = tmpdir("wid");
        let st = populated_state(); // worker 2
        write_checkpoint(&dir, &st).unwrap();
        // Rename to pose as worker 0.
        std::fs::rename(checkpoint_file(&dir, 2), checkpoint_file(&dir, 0)).unwrap();
        assert!(matches!(
            read_checkpoint(&dir, 0),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
