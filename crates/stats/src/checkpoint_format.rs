//! The checkpoint wire format (v4): field tables for the byte layout
//! every statistics family round-trips through.
//!
//! This is a **documentation-only** module.  The codec itself lives in
//! the `melissa` core crate (`melissa::server::checkpoint::pack_state` /
//! `unpack_state`, plus the `write_checkpoint` / `read_checkpoint` file
//! wrappers), but the payload of every section is the `raw_state()` of
//! an accumulator defined *here* in `melissa-stats` (or in
//! `melissa-sobol` for the Sobol' tiles).  The tables below make that
//! contract auditable in one place — for the checkpoint files and for
//! every other place a worker state leaves its process as these bytes:
//! a remote shard shipping its states to the reducer, the daemon's
//! `results` RPC.  (The in-process study-end
//! reduction owns its states and merges them in place; it produces no
//! bytes.)
//!
//! ## Conventions
//!
//! * **Endianness** — every integer and float is **little-endian**
//!   (`put_u32_le`/`put_u64_le`/`put_f64_le` of the
//!   `melissa_transport::codec` / `bytes` helpers).  There is no
//!   alignment or padding: fields are packed back to back.
//! * **Lengths before payloads** — every variable-length array is
//!   preceded by its element count as a `u64`, so a reader can validate
//!   section sizes before allocating.
//! * **Determinism rule (sorted bookkeeping)** — the serialized bytes
//!   are a *pure function of the logical state*.  Wherever the in-memory
//!   representation has nondeterministic order (the `last_completed`
//!   hash map, whose iteration order is salted per process), the writer
//!   sorts by key before emitting.  This is what makes
//!   `pack ∘ unpack ∘ pack` bit-stable, lets tests compare checkpoint
//!   bytes across runs (the core crate pins a golden digest of them), and
//!   guarantees that a state shipped through the codec reduces to the
//!   same bits as one merged in place.
//!
//! ## File header
//!
//! | field | type | value / meaning |
//! |---|---|---|
//! | magic | `u32` | `0x4d4c5341` (`"MLSA"`) |
//! | version | `u32` | `3` (current); `2` still readable |
//! | worker_id | `u64` | owning worker; must match the file name |
//! | slab.start | `u64` | first global cell of the worker's slab |
//! | slab.len | `u64` | cells in the slab (all per-cell arrays use this length) |
//! | p | `u32` | number of variable parameters |
//! | n_timesteps | `u32` | per-timestep sections repeat this many times |
//!
//! ## Section 1 — Sobol' state (× `n_timesteps`)
//!
//! One record per timestep, packing the tiled
//! `melissa_sobol::UbiquitousSobol` into its stable role-major layout
//! (`pack_into`; the cache-blocked tile layout is an in-memory detail,
//! never serialized):
//!
//! | field | type | meaning |
//! |---|---|---|
//! | n_groups | `u64` | groups folded into this timestep |
//! | flat_len | `u64` | must equal `(4 + 4p) · slab.len` |
//! | flat | `f64 × flat_len` | per-cell accumulators, role-major |
//!
//! ## Section 2 — field moments (× `n_timesteps`)
//!
//! [`FieldMoments::raw_state`](crate::FieldMoments::raw_state) =
//! `(n, mean, M2, M3, M4)`:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | n | `u64` | samples per cell (shared count) |
//! | len | `u64` | must equal `slab.len` |
//! | mean, M2, M3, M4 | `f64 × len` each | Pébay central-moment sums, four arrays back to back |
//!
//! ## Section 3 — min/max envelope (× `n_timesteps`)
//!
//! [`FieldMinMax::raw_state`](crate::FieldMinMax::raw_state) =
//! `(n, min, max)`:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | n | `u64` | samples per cell |
//! | len | `u64` | must equal `slab.len` |
//! | min, max | `f64 × len` each | per-cell envelope |
//!
//! ## Section 4 — threshold exceedance
//!
//! A `u64` threshold count `T`, then **threshold-major** (all timesteps
//! of threshold 0, then threshold 1, …), each record being
//! [`FieldThreshold::raw_state`](crate::FieldThreshold::raw_state):
//!
//! | field | type | meaning |
//! |---|---|---|
//! | threshold | `f64` | the exceedance level |
//! | n | `u64` | samples per cell |
//! | len | `u64` | must equal `slab.len` |
//! | exceeded | `u64 × len` | per-cell exceedance counters (exact integers) |
//!
//! ## Section 5 — Robbins–Monro quantiles
//!
//! The section starts with the probability count `m` as a `u64`; when
//! `m = 0` (order statistics disabled) nothing else follows.  Otherwise:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | gamma | `f64` | step exponent γ ∈ (0.5, 1], shared across timesteps |
//! | probs | `f64 × m` | target probabilities, in tracked order |
//! | per timestep: n | `u64` | samples folded in |
//! | per timestep: flat_len | `u64` | must equal `m · slab.len` |
//! | per timestep: records | `f64 × flat_len` | the [`FieldQuantiles`](crate::FieldQuantiles) cell-contiguous records verbatim |
//!
//! ## Section 6 — bookkeeping
//!
//! | field | type | meaning |
//! |---|---|---|
//! | n_groups | `u64` | entries in the last-completed map |
//! | (group, ts) | `(u64, i64) × n_groups` | **sorted by group id** (the determinism rule) |
//! | n_finished | `u64` | fully integrated groups |
//! | finished | `u64 × n_finished` | in completion order |
//!
//! In-flight assemblies are deliberately **not** serialized: on restore
//! their groups replay from the beginning and discard-on-replay drops
//! everything at or below the per-group `last_completed` floor.  The
//! study-end reduction drops them for the same reason, whether a state
//! reaches it as these bytes or by value: at study end, pending
//! assemblies belong only to abandoned groups whose partial data was
//! never integrated anywhere.
//!
//! ## Section 7 — integrated intervals
//!
//! | field | type | meaning |
//! |---|---|---|
//! | n_groups | `u64` | equal to Section 6's `n_groups`, the same groups **sorted by group id** |
//! | per group: group, n_segs | `u64, u64` | the group, and `n_segs = 1` |
//! | per group: (lo, hi) | `(i64, i64)` | `(-1, last_completed)`: the timesteps `(lo, hi]` this worker integrated |
//!
//! A worker integrates each group's timesteps in order and a group never
//! changes shards, so the section is a function of Section 6: the writer
//! derives it, and the reader refuses any other entry as corrupt.
//!
//! ## Version
//!
//! The format is **v4** (Sections 1–7).  Re-writing a restored state
//! reproduces the file bit for bit.  A file of any other version is
//! rejected with a typed error carrying the version found.
