//! Cache-blocked tile infrastructure for ubiquitous-statistics state.
//!
//! The server's hot path updates one accumulator record per mesh cell per
//! incoming group.  A role-major structure-of-arrays spreads each cell's
//! record over dozens of megabyte-scale arrays, so a single cell update
//! touches that many distinct cache lines and the hardware prefetchers run
//! out of streams.  The cure is the classic cache-blocking move: store one
//! packed record per cell, cells consecutive, in 64-byte-aligned storage,
//! and sweep the state tile by tile where one tile's records fit in L1/L2.
//!
//! This module provides the two building blocks shared by
//! `melissa-stats` and `melissa-sobol`:
//!
//! * [`AlignedVec`] — a fixed-capacity `f64` buffer with 64-byte (cache
//!   line) base alignment;
//! * [`tile_cells`] — the tile size heuristic (records per tile sized to
//!   the L1 budget).
//!
//! Tiles are the L1 blocking, not a unit of parallelism: a sweep walks
//! them in order on the thread that calls it, borrowing each tile's
//! slices of the state arrays in turn.  The server's parallelism is one
//! worker thread per slab of the mesh.

use std::alloc::{self, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Cache-line base alignment for tile storage.
pub const TILE_ALIGN: usize = 64;

/// Per-tile state budget in bytes (≈ half a typical 32 KiB L1d, leaving
/// room for the incoming field stripes).
const TILE_STATE_BYTES: usize = 16 * 1024;

/// Number of cells per tile for records of `stride` doubles, always a
/// power of two in `[32, 1024]`.
///
/// For the paper's `p = 6` (stride `4 + 4p = 28`, 224 B/record) this
/// yields 64 cells — 14 KiB of state per tile.
pub fn tile_cells(stride: usize) -> usize {
    assert!(stride > 0, "record stride must be positive");
    let fit = (TILE_STATE_BYTES / (stride * 8)).max(1);
    // Largest power of two ≤ fit: stay *under* the L1 budget.
    (1usize << (usize::BITS - 1 - fit.leading_zeros())).clamp(32, 1024)
}

/// A heap `f64` buffer with fixed length and 64-byte base alignment.
///
/// `Vec<f64>` only guarantees 8-byte alignment; tile sweeps want records
/// to start on cache-line boundaries so a tile never straddles an extra
/// line and (future) SIMD loads can assume alignment.
pub struct AlignedVec {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively, like Vec<f64>.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocates `len` zeroed doubles.
    pub fn zeroed(len: usize) -> Self {
        assert!(len > 0, "AlignedVec must be non-empty");
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size; alloc_zeroed yields a valid
        // all-zero f64 buffer (0.0 is all-zero bits).
        let raw = unsafe { alloc::alloc_zeroed(layout) };
        let ptr =
            NonNull::new(raw as *mut f64).unwrap_or_else(|| alloc::handle_alloc_error(layout));
        Self { ptr, len }
    }

    /// Allocates a copy of `values`.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut v = Self::zeroed(values.len());
        v.copy_from_slice(values);
        v
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * 8, TILE_ALIGN).expect("tile layout")
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        // SAFETY: allocated with the identical layout in `zeroed`.
        unsafe { alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
    }
}

impl Deref for AlignedVec {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        // SAFETY: ptr/len describe the owned allocation.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: ptr/len describe the owned allocation, borrowed uniquely.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len = {})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_vec_is_cache_line_aligned_and_zeroed() {
        let v = AlignedVec::zeroed(1000);
        assert_eq!(v.as_ptr() as usize % TILE_ALIGN, 0);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn aligned_vec_clone_and_eq() {
        let mut v = AlignedVec::zeroed(37);
        v[3] = 1.5;
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w[3], 1.5);
    }

    #[test]
    fn tile_cells_matches_l1_budget() {
        // p = 6: stride 28 → 64 cells → 14 KiB/tile, comfortably in L1.
        assert_eq!(tile_cells(28), 64);
        // Tiny strides clamp high, huge strides clamp low.
        assert_eq!(tile_cells(1), 1024);
        assert_eq!(tile_cells(4096), 32);
    }
}
