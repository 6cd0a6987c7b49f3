//! Bandwidth-lean payload codec: lossless f64-oriented compression for
//! the TCP wire path.
//!
//! In transit processing moves the analysis to the data, but the solver
//! fields still cross the interconnect once.  Smooth solver fields (the
//! tube-bundle temperature grids Melissa streams every sweep) are
//! structured: neighbouring cells differ in the low mantissa bytes only.
//! This module exploits that structure with a three-stage **lossless**
//! transform, applied by the TCP writer thread to whole frame payloads and
//! undone by the acceptor before ingest, so everything above the
//! transport — protocol decode, `WorkerState`, statistics — sees
//! bit-identical doubles:
//!
//! 1. **Order-2 integer prediction** over the payload's little-endian
//!    `u64` words: `pred(k) = 2·w(k−1) − w(k−2)` (wrapping), residual
//!    `r(k) = w(k) − pred(k)`.  On a smooth field the linear predictor
//!    cancels both the exponent and the slowly-varying high mantissa
//!    bits, concentrating the signal in the low bytes.  (Melissa's data
//!    frames carry a 35-byte header before the f64 array; `35 % 8 = 3`
//!    head bytes ride raw, so the words from offset 3 are *exactly* the
//!    doubles — alignment is systematic, not accidental.)
//! 2. **Zigzag mapping** folds the sign-extended residuals so small
//!    negative corrections get small unsigned codes (leading-bit
//!    compaction).
//! 3. **Byte-plane transpose + per-plane delta filter + zero-run
//!    coding**: the 8 bytes of each zigzagged residual are split into 8
//!    planes.  Each plane is coded verbatim or after a wrapping
//!    byte-delta, whichever is smaller (one filter-flag byte per
//!    plane).  On smooth fields the high planes are entirely zero, and
//!    the boundary plane just above the entropy floor varies slowly, so
//!    its delta is almost entirely zero too; both run-length-code to
//!    nothing.  Tokens `0x00..=0x7F` introduce a literal run of
//!    `token + 1` bytes; `0x80..=0xFF` encode a run of `token − 0x7F`
//!    zero bytes (1–128).
//!
//! A payload that does not shrink is sent **raw** (the codec returns
//! `None` and the wire frame is marked uncompressed), so adversarial
//! high-entropy data costs only the compression attempt, never wire
//! bytes.
//!
//! # What it costs, and when it pays
//!
//! Compression spends sender CPU to save wire time, so it pays only on a
//! link slower than
//!
//! ```text
//! break-even link rate = (1 − 1/ratio) × encode rate
//! ```
//!
//! (a payload byte costs `1/encode` to code and saves `(1 − 1/ratio)/link`
//! on the wire; the receiver's decode runs on another node and must only
//! keep up).  Both sides of that are measured on the real tube-bundle
//! frames — 8 227 B, in which six or seven of the eight byte planes are
//! incompressible mantissa noise, not on the smooth analytic fixture that
//! flatters the codec: `ratio` is 1.20–1.29 on a frame set and 1.24 over a
//! whole study, `encode` ≈ 1 600 MiB/s and `decode` ≈ 2 900 MiB/s on one
//! core of the reference host (`transport_compress/codec_*/tube8k` in
//! `BENCH_transport.json` v7, `wire_probe` with `SHAPE=codec`, and
//! `compress.*` in a traced `study_bench` run), against 13 GiB/s for a
//! `memcpy` of the same frames.  That puts the break-even at
//! ≈ 0.19 × 1 600 ≈ 310 MiB/s ≈ 2.6 Gb/s: the codec cannot win on a
//! loopback or a 10 GbE link, and should win on 1 GbE.  Per link, the same
//! quantities are counted live ([`TcpTransport::wire_io`], the scrape's
//! `wire_codec_seconds_total` / `wire_codec_bytes_total`).
//!
//! # How the kernels work: SSE2, sixteen bytes per operation
//!
//! **Encode, pass one** predicts and zigzags two words per operation —
//! `w(k)`, `w(k−1)` and `w(k−2)` are three unaligned loads of the payload
//! — and transposes eight residual words, held two to a register, as an
//! 8 × 8 byte matrix with three rounds of byte and 16-bit unpacks; each
//! plane receives its eight bytes with one 8-byte store into one
//! contiguous buffer of planes, and the `n mod 8` tail is scalar.
//! **Pass two**, per plane, builds two *zero maps* — one bit per byte,
//! from a compare and a mask move per sixteen bytes: is the byte zero,
//! and does it equal the byte before?  The second is the zero map of the
//! plane's byte-delta, read straight off the plane, so the delta is tried
//! on every plane without being written.  Shifts and ANDs over a map, 64
//! bytes at a time, find the positions where literal bytes and zero runs
//! of two or more alternate, and those give the coded size, exactly.  The
//! verbatim coding is written in the same walk that sizes it whenever the
//! longest it could be still leaves the image shorter than the payload
//! (sized first otherwise, so that the raw fallback is decided before
//! anything is written past that); the delta is materialised and written
//! only when it wins, which on the seed-7 tube frames it does for none of
//! 5 120 planes.  Literal runs move in 32-byte blocks rather than by
//! `memcpy` calls (the runs are short — a real plane has 85–165 runs per
//! KiB).
//! **Decode** fills two planes at a time from their tokens with the same
//! block moves (a token's position depends on the token before, so one
//! plane decodes at the latency of a load per token and two overlap),
//! undoes a delta with a byte prefix sum of four shift-and-add rounds per
//! sixteen bytes, and gathers eight words per step back through the same
//! transpose; the unzigzag is two words per operation, and the order-2
//! restore is two running sums, serial and scalar.  All working storage
//! is a [`PlaneScratch`] the caller owns, and output goes to the caller's
//! buffer ([`compress_into`], [`decompress_into`]), so a link codes a
//! burst of frames into one block with no allocation per frame.
//!
//! SSE2 is part of every x86_64 CPU, so nothing is detected at run time.
//! Other targets run the word-at-a-time kernels the SSE2 ones replaced
//! (module `portable`: a SWAR transpose in three rounds of block swaps, a
//! SWAR zero test with a multiply that gathers the flags, a SWAR byte
//! prefix sum); tests compile both and hold them to each other byte for
//! byte.  The byte-at-a-time codec that came before either is kept,
//! verbatim, as the oracle of this module's tests: the container is
//! whatever it writes, byte for byte, and `tests/wire_codec.rs` pins a
//! digest of real frames' containers computed with it.
//!
//! [`TcpTransport::wire_io`]: crate::tcp::TcpTransport::wire_io

use crate::codec::{WireError, WireResult};

/// Per-link wire compression mode, negotiated at connection handshake
/// and selectable per study ([`TcpTransportConfig`]'s and `StudyConfig`'s
/// `compression`/`wire_compression` fields).
///
/// [`TcpTransportConfig`]: crate::tcp::TcpTransportConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCompression {
    /// Frames cross the wire verbatim (the default).
    #[default]
    Off,
    /// Lossless in-frame compression: order-2 prediction + zigzag +
    /// byte-plane transpose + zero-run coding, raw fallback when a
    /// payload does not shrink.  Bit-identical doubles on ingest.
    Transpose,
}

impl WireCompression {
    /// True when the transport should run the lossless wire codec.
    pub fn wire_codec_enabled(&self) -> bool {
        !matches!(self, WireCompression::Off)
    }

    /// Handshake wire encoding: `(mode, 0)`.  The second byte is a
    /// reserved zero, kept so the handshake bytes do not change.
    pub fn to_wire(self) -> (u8, u8) {
        match self {
            WireCompression::Off => (0, 0),
            WireCompression::Transpose => (1, 0),
        }
    }

    /// Decodes the handshake pair; unknown modes fall back to `Off`
    /// (forward compatibility: an unknown proposal is simply declined).
    pub fn from_wire(mode: u8, _reserved: u8) -> Self {
        match mode {
            1 => WireCompression::Transpose,
            _ => WireCompression::Off,
        }
    }

    /// Short human label for reports and bench ids.
    pub fn label(&self) -> String {
        match self {
            WireCompression::Off => "off".into(),
            WireCompression::Transpose => "transpose".into(),
        }
    }
}

impl std::fmt::Display for WireCompression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Moves a run rounded up to whole [`COPY_BLOCK`]s — `to` and `from` are
/// that long — so that its last block moves bytes past the run's end,
/// which the next token overwrites.  The first block moves on its own,
/// so that a short run costs one fixed-size move and not a `memcpy` call.
#[inline(always)]
fn move_run(to: &mut [u8], from: &[u8]) {
    to[..COPY_BLOCK].copy_from_slice(&from[..COPY_BLOCK]);
    if to.len() > COPY_BLOCK {
        to[COPY_BLOCK..].copy_from_slice(&from[COPY_BLOCK..]);
    }
}

/// Zero-run token space: `0x00..=0x7F` literal runs, `0x80..=0xFF` zero
/// runs (see module docs).
const MAX_LITERAL_RUN: usize = 128;
const MAX_ZERO_RUN: usize = 128;
/// Container framing besides the head bytes and the coded planes: the
/// `u32` original length, and a `u32` length plus a flag byte per plane.
const CONTAINER_FRAMING: usize = 4 + 8 * 5;
/// The most a container can decode to per byte of image: a token byte
/// stands for at most 128 plane bytes, and a word has eight planes.
const MAX_EXPANSION: usize = 8 * MAX_ZERO_RUN;
/// Literal bytes move in blocks of this many, whole: a run's last block
/// reads and writes past the run's end, into bytes the next token
/// overwrites, so buffers on both sides carry this much slack.  What a
/// short run costs is one block move, not a `memcpy` call.
const COPY_BLOCK: usize = 32;

#[inline]
fn zigzag(r: u64) -> u64 {
    let s = r as i64;
    ((s << 1) ^ (s >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    ((z >> 1) as i64 ^ -((z & 1) as i64)) as u64
}

/// Predicts and zigzags word `w` from the two before it: the residual
/// byte planes are made of.
#[inline(always)]
fn residual(w: u64, w1: u64, w2: u64) -> u64 {
    zigzag(w.wrapping_sub(w1.wrapping_mul(2).wrapping_sub(w2)))
}

/// The codec's working storage, owned by whoever runs it — a link's
/// writer, an acceptor's reader — so a frame costs no allocation once
/// the buffers have grown to the link's frame size.
#[derive(Debug, Default)]
pub struct PlaneScratch {
    /// The eight byte planes of a payload's residuals, one after the
    /// other (the encoder puts [`PLANE_LEAD`] zero bytes in front and pads
    /// each plane with zero bytes to whole 64-byte chunks).
    planes: Vec<u8>,
    /// The byte-delta of a plane whose delta the encoder writes, and the
    /// run maps of the plane as it is and of its delta.
    delta: Vec<u8>,
    plain_runs: RunMap,
    delta_runs: RunMap,
}

/// Zero bytes in front of the encoder's first plane: the byte before a
/// plane, which its delta's zero map compares the plane's first byte
/// with, is zero for every plane (the others have their padding there).
/// Sixteen keeps the planes as aligned as the buffer.
const PLANE_LEAD: usize = 16;

/// Pass one of the encoder, scalar: predicts and zigzags the words of
/// `words` from word `from` on and scatters each residual's bytes into
/// eight planes `stride` apart.  The kernels run it on the `n mod 8`
/// words behind their last whole block.
fn split_tail(words: &[u8], planes: &mut [u8], stride: usize, from: usize) {
    let word = |k: usize| u64::from_le_bytes(words[8 * k..][..8].try_into().expect("8 bytes"));
    let before = |back: usize| from.checked_sub(back).map_or(0, word);
    let (mut w1, mut w2) = (before(1), before(2)); // w(k−1), w(k−2)
    for k in from..words.len() / 8 {
        let w = word(k);
        for (p, byte) in residual(w, w1, w2).to_le_bytes().into_iter().enumerate() {
            planes[p * stride + k] = byte;
        }
        (w2, w1) = (w1, w);
    }
}

/// The kernels on SSE2, which every x86_64 CPU has, so there is nothing
/// to detect: two words, or sixteen plane bytes, per operation.  Each
/// kernel's `unsafe` is the intrinsics and the unaligned loads and
/// stores, whose ranges the kernel bounds before it touches memory.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::split_tail;
    use std::arch::x86_64::*;

    /// Transposes the 8 × 8 byte matrix held two rows to a register (row
    /// `2i` in the low half of `rows[i]`, row `2i + 1` in the high half)
    /// into its columns, held the same way: byte unpacks interleave rows
    /// 0, 2 and 1, 3 (and 4, 6 and 5, 7), 16-bit unpacks join those into
    /// rows 0, 2, 4, 6 and 1, 3, 5, 7, and byte unpacks interleave the two
    /// into whole columns.  Each round mixes registers the round before
    /// kept apart, which keeps the compiler from fusing two rounds into a
    /// byte shuffle SSE2 has no instruction for.  Its own inverse:
    /// residual words in, plane bytes out, and back.
    #[inline(always)]
    fn transpose(rows: [__m128i; 4]) -> [__m128i; 4] {
        let [a, b, c, d] = rows;
        // SAFETY: register-only SSE2 operations, part of the x86_64 baseline.
        unsafe {
            let (r02, r13) = (_mm_unpacklo_epi8(a, b), _mm_unpackhi_epi8(a, b));
            let (r46, r57) = (_mm_unpacklo_epi8(c, d), _mm_unpackhi_epi8(c, d));
            // Bytes 0–3 and 4–7 of the even rows, and of the odd rows.
            let (even03, even47) = (_mm_unpacklo_epi16(r02, r46), _mm_unpackhi_epi16(r02, r46));
            let (odd03, odd47) = (_mm_unpacklo_epi16(r13, r57), _mm_unpackhi_epi16(r13, r57));
            [
                _mm_unpacklo_epi8(even03, odd03),
                _mm_unpackhi_epi8(even03, odd03),
                _mm_unpacklo_epi8(even47, odd47),
                _mm_unpackhi_epi8(even47, odd47),
            ]
        }
    }

    /// [`super::residual`] of two words at once.
    #[inline(always)]
    fn residuals(w: __m128i, w1: __m128i, w2: __m128i) -> __m128i {
        // SAFETY: register-only SSE2 operations, part of the x86_64 baseline.
        unsafe {
            let r = _mm_sub_epi64(_mm_add_epi64(w, w2), _mm_add_epi64(w1, w1));
            // All ones where the residual is negative: 0 − its sign bit.
            let sign = _mm_sub_epi64(_mm_setzero_si128(), _mm_srli_epi64::<63>(r));
            _mm_xor_si128(_mm_slli_epi64::<1>(r), sign)
        }
    }

    /// Predicts, zigzags and transposes the eight words at `src` into
    /// eight planes `stride` apart from `dst`: one 8-byte store per plane.
    ///
    /// # Safety
    ///
    /// `src − 16 .. src + 64` must be readable (the two words before the
    /// block are its prediction's history), and `dst + p · stride ..
    /// + 8` writable for every `p < 8`.
    #[inline(always)]
    unsafe fn split_block(src: *const u8, dst: *mut u8, stride: usize) {
        // SAFETY: SSE2 is part of the x86_64 baseline; the caller vouches
        // for the ranges.
        unsafe {
            let load = |at: usize| _mm_loadu_si128(src.add(at).sub(16).cast());
            let z = [0, 16, 32, 48].map(|k| residuals(load(k + 16), load(k + 8), load(k)));
            for (i, columns) in transpose(z).into_iter().enumerate() {
                _mm_storel_epi64(dst.add(2 * i * stride).cast(), columns);
                _mm_storeh_pd(
                    dst.add((2 * i + 1) * stride).cast(),
                    _mm_castsi128_pd(columns),
                );
            }
        }
    }

    /// Pass one of the encoder: predicts and zigzags the whole words of
    /// `words` and scatters their bytes into eight planes `stride` apart,
    /// eight words at a time through [`split_block`] and the rest through
    /// [`split_tail`].
    pub(super) fn split_planes(words: &[u8], planes: &mut [u8], stride: usize) {
        let n = words.len() / 8;
        assert!(
            n <= stride && planes.len() >= 8 * stride,
            "eight planes of n bytes"
        );
        let dst = planes.as_mut_ptr();
        if n >= 8 {
            // The first block's history, w(−1) and w(−2), is zero: it is
            // read from a copy behind sixteen zero bytes.
            let mut first = [0u8; 16 + 64];
            first[16..].copy_from_slice(&words[..64]);
            // SAFETY: `first` is the sixteen bytes before the copy and the
            // copy; the stores stay in `planes[..8 · stride]` because
            // `8 ≤ n ≤ stride`.
            unsafe { split_block(first.as_ptr().add(16), dst, stride) };
        }
        for block in 1..n / 8 {
            // SAFETY: the loads read `words[64 · block − 16 .. 64 · (block
            // + 1)]`, inside `words` because `64 · (block + 1) ≤ 8n`; the
            // stores stay in `planes[..8 · stride]` because `8 · block + 8
            // ≤ n ≤ stride`.
            unsafe { split_block(words.as_ptr().add(64 * block), dst.add(8 * block), stride) };
        }
        split_tail(words, planes, stride, n / 8 * 8);
    }

    /// The zero maps of the plane behind the first byte of
    /// `lead_and_plane`, over its whole 64-byte chunks: one bit per byte,
    /// set in `zeros` where the byte is zero and in `repeats` where it
    /// equals the byte before — where the plane's byte-delta is zero.
    pub(super) fn zero_maps(lead_and_plane: &[u8], zeros: &mut Vec<u64>, repeats: &mut Vec<u64>) {
        let chunks = lead_and_plane.len().saturating_sub(1) / 64;
        zeros.resize(chunks, 0);
        repeats.resize(chunks, 0);
        let from = lead_and_plane.as_ptr();
        for (chunk, (zeros, repeats)) in zeros.iter_mut().zip(repeats.iter_mut()).enumerate() {
            let (mut zero, mut repeat) = (0u64, 0u64);
            for k in 0..4 {
                let at = 64 * chunk + 16 * k;
                // SAFETY: SSE2 is part of the x86_64 baseline; the loads
                // read `lead_and_plane[at .. at + 17]`, inside it because
                // the loop stops at the last whole chunk behind the lead.
                let (z, r) = unsafe {
                    let before = _mm_loadu_si128(from.add(at).cast());
                    let bytes = _mm_loadu_si128(from.add(at + 1).cast());
                    (
                        _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, _mm_setzero_si128())),
                        _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, before)),
                    )
                };
                zero |= (z as u64) << (16 * k);
                repeat |= (r as u64) << (16 * k);
            }
            (*zeros, *repeats) = (zero, repeat);
        }
    }

    /// Undoes the byte-delta filter: a wrapping prefix sum over `plane`,
    /// sixteen bytes per step in four shift-and-add rounds, plus the last
    /// byte of the step before in every byte.
    pub(super) fn prefix_sum_bytes(plane: &mut [u8]) {
        let mut chunks = plane.chunks_exact_mut(16);
        // SAFETY: a register-only SSE2 operation, part of the x86_64 baseline.
        let mut carry = unsafe { _mm_setzero_si128() };
        for chunk in chunks.by_ref() {
            // SAFETY: SSE2 is part of the x86_64 baseline; the load and
            // the store cover `chunk`'s sixteen bytes.
            unsafe {
                let mut x = _mm_loadu_si128(chunk.as_ptr().cast());
                x = _mm_add_epi8(x, _mm_slli_si128::<1>(x));
                x = _mm_add_epi8(x, _mm_slli_si128::<2>(x));
                x = _mm_add_epi8(x, _mm_slli_si128::<4>(x));
                x = _mm_add_epi8(x, _mm_slli_si128::<8>(x));
                x = _mm_add_epi8(x, carry);
                _mm_storeu_si128(chunk.as_mut_ptr().cast(), x);
                // Byte 15 into every byte.
                carry =
                    _mm_shuffle_epi32::<0xFF>(_mm_shufflehi_epi16::<0xFF>(_mm_unpackhi_epi8(x, x)));
            }
        }
        // SAFETY: a register-only SSE2 operation, part of the x86_64 baseline.
        let mut prev = unsafe { _mm_cvtsi128_si32(carry) } as u8;
        for b in chunks.into_remainder() {
            prev = prev.wrapping_add(*b);
            *b = prev;
        }
    }

    /// The eight residuals whose zigzagged bytes are the decoder's
    /// planes' bytes `at .. at + 8` (plane `p` at `planes[p · stride ..]`),
    /// back through [`transpose`] and unzigzagged.
    #[inline(always)]
    pub(super) fn gather_residuals(planes: &[u8], stride: usize, at: usize) -> [u64; 8] {
        assert!(
            7 * stride + at + 8 <= planes.len(),
            "eight rows of eight bytes"
        );
        let from = planes.as_ptr();
        // SAFETY: SSE2 is part of the x86_64 baseline; each load reads
        // `planes[p · stride + at ..][..8]` for `p < 8`, inside `planes` by
        // the assertion.  The transmute reinterprets four registers as the
        // eight little-endian words they hold; every bit pattern is a word.
        unsafe {
            let row = |p: usize| _mm_loadl_epi64(from.add(p * stride + at).cast());
            let rows = [0, 2, 4, 6].map(|p| _mm_unpacklo_epi64(row(p), row(p + 1)));
            let residuals = transpose(rows).map(|z| {
                let odd = _mm_and_si128(z, _mm_set1_epi64x(1));
                _mm_xor_si128(
                    _mm_srli_epi64::<1>(z),
                    _mm_sub_epi64(_mm_setzero_si128(), odd),
                )
            });
            std::mem::transmute::<[__m128i; 4], [u64; 8]>(residuals)
        }
    }
}

/// The word-at-a-time kernels the SSE2 ones replaced: what a target
/// without SSE2 runs, and, in tests, what the SSE2 ones must match.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod portable {
    use super::{residual, split_tail, unzigzag};

    /// Transposes an 8 × 8 byte matrix held as eight little-endian words
    /// (row `j` = word `j`, column `p` = its byte `p`) by swapping the
    /// off-diagonal 4 × 4, 2 × 2 and 1 × 1 blocks.  Its own inverse: eight
    /// residual words in, the eight bytes of each plane out, and back.
    #[inline(always)]
    fn transpose8x8(mut x: [u64; 8]) -> [u64; 8] {
        for i in [0, 1, 2, 3] {
            let (a, b) = (x[i], x[i + 4]);
            x[i] = (a & 0x0000_0000_FFFF_FFFF) | (b << 32);
            x[i + 4] = (a >> 32) | (b & 0xFFFF_FFFF_0000_0000);
        }
        for i in [0, 1, 4, 5] {
            let (a, b) = (x[i], x[i + 2]);
            x[i] = (a & 0x0000_FFFF_0000_FFFF) | ((b << 16) & 0xFFFF_0000_FFFF_0000);
            x[i + 2] = ((a >> 16) & 0x0000_FFFF_0000_FFFF) | (b & 0xFFFF_0000_FFFF_0000);
        }
        for i in [0, 2, 4, 6] {
            let (a, b) = (x[i], x[i + 1]);
            x[i] = (a & 0x00FF_00FF_00FF_00FF) | ((b << 8) & 0xFF00_FF00_FF00_FF00);
            x[i + 1] = ((a >> 8) & 0x00FF_00FF_00FF_00FF) | (b & 0xFF00_FF00_FF00_FF00);
        }
        x
    }

    /// Pass one of the encoder: predicts and zigzags the whole words of
    /// `words` and scatters their bytes into eight planes `stride` apart —
    /// eight words at a time through [`transpose8x8`], so a plane receives
    /// eight bytes per store — and the rest through [`split_tail`].
    pub(super) fn split_planes(words: &[u8], planes: &mut [u8], stride: usize) {
        let (mut w1, mut w2) = (0u64, 0u64); // w(k−1), w(k−2)
        let mut blocks = words.chunks_exact(64);
        let mut at = 0;
        for block in blocks.by_ref() {
            let mut z = [0u64; 8];
            for (z, chunk) in z.iter_mut().zip(block.chunks_exact(8)) {
                let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                *z = residual(w, w1, w2);
                (w2, w1) = (w1, w);
            }
            for (p, bytes) in transpose8x8(z).into_iter().enumerate() {
                planes[p * stride + at..][..8].copy_from_slice(&bytes.to_le_bytes());
            }
            at += 8;
        }
        split_tail(words, planes, stride, at);
    }

    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

    /// One bit per byte of `x`, set where the byte is zero: an exact SWAR
    /// zero test (no carry crosses a byte) leaves `0x80` in those bytes,
    /// and a multiply gathers the eight flags — the 64 partial products
    /// have distinct exponents, so none carries, and the diagonal lands in
    /// the top byte.
    #[inline(always)]
    fn zero_flags(x: u64) -> u64 {
        let zero_bytes = !(((x & LOW7) + LOW7) | x | LOW7);
        (zero_bytes >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
    }

    /// The zero maps of the plane behind the first byte of
    /// `lead_and_plane`, as the SSE2 kernel of that name makes them, eight
    /// bytes per step.
    pub(super) fn zero_maps(lead_and_plane: &[u8], zeros: &mut Vec<u64>, repeats: &mut Vec<u64>) {
        zeros.clear();
        repeats.clear();
        let (lead, plane) = lead_and_plane.split_at(1);
        let mut before = lead[0];
        for chunk in plane.chunks_exact(64) {
            let (mut zero, mut repeat) = (0u64, 0u64);
            for (k, word) in chunk.chunks_exact(8).enumerate() {
                let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                let shifted = (x << 8) | before as u64;
                zero |= zero_flags(x) << (8 * k);
                repeat |= zero_flags(x ^ shifted) << (8 * k);
                before = (x >> 56) as u8;
            }
            zeros.push(zero);
            repeats.push(repeat);
        }
    }

    /// Undoes the byte-delta filter: a wrapping prefix sum over `plane`,
    /// eight bytes per step.  Even and odd bytes are summed in separate
    /// 16-bit lanes — a multiplication by `0x0001_0001_0001_0001` is a
    /// prefix sum over lanes, and eight bytes cannot overflow one — then
    /// folded back modulo 256 with the running total of the words before.
    pub(super) fn prefix_sum_bytes(plane: &mut [u8]) {
        const LANES: u64 = 0x0001_0001_0001_0001;
        const EVEN: u64 = 0x00FF_00FF_00FF_00FF;
        let mut carry = 0u64; // the last byte's sum, in the low 8 bits
        let mut words = plane.chunks_exact_mut(8);
        for word in words.by_ref() {
            let x = u64::from_le_bytes((&*word).try_into().expect("8-byte chunk"));
            let even = (x & EVEN).wrapping_mul(LANES); // e0, e0+e1, …
            let odd = ((x >> 8) & EVEN).wrapping_mul(LANES);
            let before = carry.wrapping_mul(LANES);
            // Byte 2m sums the even bytes up to m and the odd ones below m;
            // byte 2m+1 sums both up to m.
            let at_even = (even + (odd << 16) + before) & EVEN;
            let at_odd = (even + odd + before) & EVEN;
            let sums = at_even | (at_odd << 8);
            word.copy_from_slice(&sums.to_le_bytes());
            carry = sums >> 56;
        }
        let mut prev = carry as u8;
        for b in words.into_remainder() {
            prev = prev.wrapping_add(*b);
            *b = prev;
        }
    }

    /// The eight residuals whose zigzagged bytes are the decoder's
    /// planes' bytes `at .. at + 8`, back through [`transpose8x8`] and
    /// unzigzagged.
    #[inline(always)]
    pub(super) fn gather_residuals(planes: &[u8], stride: usize, at: usize) -> [u64; 8] {
        transpose8x8(std::array::from_fn(|p| {
            u64::from_le_bytes(planes[p * stride + at..][..8].try_into().expect("8 bytes"))
        }))
        .map(unzigzag)
    }
}

#[cfg(target_arch = "x86_64")]
use sse2 as kernels;

#[cfg(not(target_arch = "x86_64"))]
use portable as kernels;

/// Where the runs of one byte plane lie, 64 bytes to a word — the
/// encoder's second pass.  A byte belongs to a **zero run** when it and a
/// neighbour are zero; everything else — other bytes, and lone zeros
/// among them, which cost less as literals than as two tokens — is
/// **literal**.  Sizing a plane's coding and writing it both walk this
/// map, never the plane's bytes, to find the runs.
#[derive(Debug, Default)]
struct RunMap {
    /// One bit per byte: is it zero?  (Filled by [`kernels::zero_maps`].)
    zeros: Vec<u64>,
    /// One bit per byte: does one kind of run end and the other start
    /// here?
    edges: Vec<u64>,
}

impl RunMap {
    /// Finds the runs of a plane of `n` bytes from its zero map, which
    /// covers at least `n + 2` bytes: the bytes past `n` count as zero, so
    /// that a zero on the plane's last byte counts as one of a pair.
    fn find_edges(&mut self, n: usize) {
        let Self { zeros, edges } = self;
        debug_assert!(zeros.len() * 64 >= n + 2);
        zeros[n / 64] |= !0 << (n % 64);
        for word in &mut zeros[n / 64 + 1..] {
            *word = !0;
        }
        edges.clear();
        let (mut pairs_before, mut runs_before) = (0u64, 0u64);
        for (w, &z) in zeros[..=n / 64].iter().enumerate() {
            let next = zeros.get(w + 1).copied().unwrap_or(!0);
            let pairs = z & ((z >> 1) | (next << 63)); // zero, and so is the next byte
            let runs = pairs | (pairs << 1) | (pairs_before >> 63);
            edges.push(runs ^ ((runs << 1) | (runs_before >> 63)));
            (pairs_before, runs_before) = (pairs, runs);
        }
        // Runs end with the plane: an edge at `n`, and none past it.
        edges[n / 64] &= (1 << (n % 64)) - 1;
        edges[n / 64] |= 1 << (n % 64);
    }

    /// Calls `f(is_zero_run, start, end)` for each run of the plane, in
    /// order.
    #[inline(always)]
    fn for_each_run(&self, mut f: impl FnMut(bool, usize, usize)) {
        let (mut start, mut zero_run) = (0, false);
        for (w, &word) in self.edges.iter().enumerate() {
            let mut left = word;
            while left != 0 {
                let end = 64 * w + left.trailing_zeros() as usize;
                left &= left - 1;
                if end > start {
                    f(zero_run, start, end);
                }
                (start, zero_run) = (end, !zero_run);
            }
        }
    }

    /// Length of the plane's zero-run coding, exactly, without coding it.
    ///
    /// A zero run is coded in tokens of up to 128 bytes.  A literal run
    /// is coded in pieces of up to 128 bytes, each behind its token; a
    /// piece that would start on one of the run's lone zeros codes that
    /// zero as a zero run of one instead — one byte either way — and
    /// starts after it.
    fn coded_len(&self) -> usize {
        let mut len = 0;
        self.for_each_run(|zero_run, start, end| {
            if zero_run {
                len += (end - start).div_ceil(MAX_ZERO_RUN);
            } else {
                len += end - start;
                let mut at = start;
                while at < end {
                    at += (self.zeros[at / 64] >> (at % 64) & 1) as usize;
                    at += MAX_LITERAL_RUN;
                    len += 1;
                }
            }
        });
        len
    }

    /// Writes the zero-run coding of `plane`, which this maps, to
    /// `out[at..]` and returns where it ends.  Wants [`COPY_BLOCK`] bytes
    /// of slack after the plane and after the coding.
    fn emit(&self, plane: &[u8], out: &mut [u8], mut at: usize) -> usize {
        self.for_each_run(|zero_run, mut start, end| {
            while start < end {
                if zero_run || plane[start] == 0 {
                    let run = match zero_run {
                        true => (end - start).min(MAX_ZERO_RUN),
                        false => 1,
                    };
                    out[at] = 0x80 + (run - 1) as u8;
                    at += 1;
                    start += run;
                } else {
                    let run = (end - start).min(MAX_LITERAL_RUN);
                    out[at] = (run - 1) as u8;
                    at += 1;
                    let (from, to) = (&plane[start..], &mut out[at..]);
                    let mut block = 0;
                    while block < run {
                        to[block..block + COPY_BLOCK]
                            .copy_from_slice(&from[block..block + COPY_BLOCK]);
                        block += COPY_BLOCK;
                    }
                    at += run;
                    start += run;
                }
            }
        });
        at
    }
}

/// The longest zero-run coding of a plane of `n` bytes.  A literal run
/// of `l` bytes codes to at most `l + ⌈l / 128⌉`; a zero run of two or
/// more saves at least one byte, which pays the token that rounding up
/// charges the literal run after it; only the first literal run and a
/// final zero run of one byte go unpaid.
fn max_coded_len(n: usize) -> usize {
    n + n.div_ceil(MAX_LITERAL_RUN) + 2
}

/// Appends the lossless image of `payload` (see the module docs) to
/// `out` and returns its length — or returns `None` with `out` as it
/// was, unless the image is strictly smaller than the payload: the
/// caller then sends the payload raw, so the wire path never regresses
/// on incompressible data.  `out` is grown by up to the payload's length
/// and a little while the image is written.
///
/// Layout of the image:
/// `u32 LE original length · head bytes (len % 8, raw) · 8 × (u32 LE
/// plane length · u8 filter flag (0 = plain, 1 = byte-delta) ·
/// zero-run-coded plane)`.
pub fn compress_into(
    payload: &[u8],
    scratch: &mut PlaneScratch,
    out: &mut Vec<u8>,
) -> Option<usize> {
    let n = payload.len() / 8;
    if n < 4 {
        return None; // too small for prediction to pay for the header
    }
    let head = payload.len() - n * 8;
    let stride = (n + 2).next_multiple_of(64);
    let PlaneScratch {
        planes,
        delta,
        plain_runs,
        delta_runs,
    } = scratch;
    // What is left in the buffers from an earlier payload is overwritten
    // or never read, except the lead and the padding behind each plane.
    planes.resize(PLANE_LEAD + 8 * stride + COPY_BLOCK, 0);
    kernels::split_planes(&payload[head..], &mut planes[PLANE_LEAD..], stride);
    for plane in planes[PLANE_LEAD..].chunks_exact_mut(stride) {
        plane[n..].fill(0);
    }

    let base = out.len();
    out.resize(base + payload.len() + COPY_BLOCK, 0);
    let image = &mut out[base..];
    image[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    image[4..4 + head].copy_from_slice(&payload[..head]);
    let mut at = 4 + head;
    for p in 0..8 {
        // A plane is coded verbatim or after a wrapping byte-delta —
        // which turns a slowly-varying plane (the residual bits just
        // above the entropy floor of a smooth field) into zero runs —
        // whichever is shorter, verbatim on a tie.  The delta is sized
        // from its run map, which the plane's bytes give directly, and
        // written only when it wins; a plane of nothing but full zero
        // runs cannot be beaten and skips it.  The verbatim coding is
        // written as it is sized when the longest it can be leaves the
        // image shorter than the payload; otherwise it is sized first, so
        // that the raw fallback is decided before anything is written
        // past that.
        let plane = PLANE_LEAD + p * stride;
        kernels::zero_maps(
            &planes[plane - 1..plane + stride],
            &mut plain_runs.zeros,
            &mut delta_runs.zeros,
        );
        let plane = &planes[plane..];
        plain_runs.find_edges(n);
        let written = at + 5 + max_coded_len(n) <= payload.len();
        let mut len = match written {
            true => plain_runs.emit(plane, image, at + 5) - (at + 5),
            false => plain_runs.coded_len(),
        };
        let mut flag = 0;
        if len > n.div_ceil(MAX_ZERO_RUN) {
            delta_runs.find_edges(n);
            let filtered = delta_runs.coded_len();
            if filtered < len {
                (len, flag) = (filtered, 1);
            }
        }
        if at + 5 + len >= payload.len() {
            out.truncate(base);
            return None; // not shrinking: send raw
        }
        image[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        image[at + 4] = flag;
        if flag == 1 {
            delta.resize(stride + COPY_BLOCK, 0);
            delta[0] = plane[0];
            for ((d, &b), &before) in delta[1..n].iter_mut().zip(&plane[1..n]).zip(plane) {
                *d = b.wrapping_sub(before);
            }
            delta_runs.emit(delta, image, at + 5);
        } else if !written {
            plain_runs.emit(plane, image, at + 5);
        }
        at += 5 + len;
    }
    out.truncate(base + at);
    Some(at)
}

/// [`compress_into`] a fresh buffer, with its own scratch.
pub fn compress_payload(payload: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    compress_into(payload, &mut PlaneScratch::default(), &mut out).map(|_| out)
}

/// The payload length `image` claims to decode to, once the claim is
/// known to be one the image could keep: its fixed framing is there, and
/// it does not ask for more than 1 024 bytes per byte it holds (a token
/// byte stands for at most 128 plane bytes, a word has eight planes).
/// What a caller may allocate for [`decompress_into`] — four hostile
/// bytes cannot ask for 4 GiB.
pub fn decoded_len(image: &[u8]) -> WireResult<usize> {
    let claimed = image.first_chunk::<4>().ok_or(WireError::Truncated {
        what: "compressed payload length",
    })?;
    let orig_len = u32::from_le_bytes(*claimed) as usize;
    if image.len() < CONTAINER_FRAMING + orig_len % 8 {
        return Err(WireError::Truncated {
            what: "compressed payload framing",
        });
    }
    if orig_len > 7 + MAX_EXPANSION.saturating_mul(image.len()) {
        return Err(WireError::Invalid {
            what: "compressed payload claims more than it can hold",
        });
    }
    Ok(orig_len)
}

/// Decodes the token of the zero-run-coded plane `coded` at `pos` into
/// `plane` at `at`, and returns where the next token and the next byte
/// are.  `plane` has [`COPY_BLOCK`] bytes of slack behind its `n` bytes:
/// runs are written in whole blocks, and what a run's last block writes
/// past its end the next token overwrites.
#[inline(always)]
fn decode_token(
    coded: &[u8],
    pos: usize,
    plane: &mut [u8],
    at: usize,
    n: usize,
) -> WireResult<(usize, usize)> {
    let token = *coded.get(pos).ok_or(WireError::Truncated {
        what: "compressed plane token",
    })?;
    let pos = pos + 1;
    let run = (token & 0x7F) as usize + 1;
    let zero_run = token >= 0x80;
    if at + run > n {
        return Err(WireError::Invalid {
            what: match zero_run {
                true => "zero run overflows plane",
                false => "literal run overflows plane",
            },
        });
    }
    let blocks = run.next_multiple_of(COPY_BLOCK);
    let to = &mut plane[at..at + blocks];
    if zero_run {
        to[..COPY_BLOCK].fill(0);
        if blocks > COPY_BLOCK {
            to[COPY_BLOCK..].fill(0);
        }
        return Ok((pos, at + run));
    }
    if let Some(from) = coded.get(pos..pos + blocks) {
        move_run(to, from);
    } else {
        // The coding ends within the run's last block.
        let literals = coded.get(pos..pos + run).ok_or(WireError::Truncated {
            what: "compressed plane literals",
        })?;
        to[..run].copy_from_slice(literals);
    }
    Ok((pos + run, at + run))
}

/// Decodes the zero-run-coded planes `coded` of `n` bytes each into the
/// fronts of `planes`, a token of each in turn: a token's position
/// depends on the token before, so a plane decodes at the latency of a
/// load per token, and two independent planes overlap.
fn decode_plane_pair(coded: [&[u8]; 2], planes: [&mut [u8]; 2], n: usize) -> WireResult<()> {
    let ([a, b], [plane_a, plane_b]) = (coded, planes);
    let (mut pos_a, mut at_a, mut pos_b, mut at_b) = (0, 0, 0, 0);
    while at_a < n && at_b < n {
        (pos_a, at_a) = decode_token(a, pos_a, plane_a, at_a, n)?;
        (pos_b, at_b) = decode_token(b, pos_b, plane_b, at_b, n)?;
    }
    while at_a < n {
        (pos_a, at_a) = decode_token(a, pos_a, plane_a, at_a, n)?;
    }
    while at_b < n {
        (pos_b, at_b) = decode_token(b, pos_b, plane_b, at_b, n)?;
    }
    if pos_a != a.len() || pos_b != b.len() {
        return Err(WireError::Invalid {
            what: "trailing bytes after plane",
        });
    }
    Ok(())
}

/// Inverts [`compress_into`]: restores the exact original payload of
/// `image` into `out`, whose length is the image's [`decoded_len`].
pub fn decompress_into(image: &[u8], scratch: &mut PlaneScratch, out: &mut [u8]) -> WireResult<()> {
    let orig_len = decoded_len(image)?;
    if out.len() != orig_len {
        return Err(WireError::Invalid {
            what: "output is not the decoded length",
        });
    }
    let n = orig_len / 8;
    let head = orig_len - n * 8;
    let (head_out, words_out) = out.split_at_mut(head);
    head_out.copy_from_slice(&image[4..4 + head]);
    let mut pos = 4 + head;

    // Every plane byte read back below is written first (a plane decodes
    // to exactly `n` bytes or the image is refused), so stale contents
    // need no clearing.
    let stride = n + COPY_BLOCK;
    scratch.planes.resize(8 * stride, 0);
    let mut next_plane = || {
        let &[l0, l1, l2, l3, flag] =
            image[pos..]
                .first_chunk::<5>()
                .ok_or(WireError::Truncated {
                    what: "compressed plane header",
                })?;
        let plane_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if flag > 1 {
            return Err(WireError::Invalid {
                what: "unknown plane filter flag",
            });
        }
        pos += 5;
        let coded = pos
            .checked_add(plane_len)
            .and_then(|end| image.get(pos..end))
            .ok_or(WireError::Truncated {
                what: "compressed plane body",
            })?;
        pos += plane_len;
        Ok((coded, flag == 1))
    };
    for pair in scratch.planes.chunks_exact_mut(2 * stride) {
        let (first, second) = pair.split_at_mut(stride);
        let (coded_a, delta_a) = next_plane()?;
        let (coded_b, delta_b) = next_plane()?;
        decode_plane_pair([coded_a, coded_b], [&mut *first, &mut *second], n)?;
        for (plane, delta) in [(first, delta_a), (second, delta_b)] {
            if delta {
                kernels::prefix_sum_bytes(&mut plane[..n]);
            }
        }
    }
    if pos != image.len() {
        return Err(WireError::Invalid {
            what: "trailing bytes after compressed payload",
        });
    }

    // Gather the planes back into words — eight at a time through the
    // transpose — and undo zigzag and prediction.  The residual is the
    // change of the step `d(k) = w(k) − w(k−1)`, so the words are two
    // running sums, one addition apart each.
    let planes = &scratch.planes[..];
    let (mut w, mut d) = (0u64, 0u64);
    let mut restore = |r: u64, dst: &mut [u8]| {
        d = d.wrapping_add(r);
        w = w.wrapping_add(d);
        dst.copy_from_slice(&w.to_le_bytes());
    };
    let mut blocks = words_out.chunks_exact_mut(64);
    let mut at = 0;
    for block in blocks.by_ref() {
        let residuals = kernels::gather_residuals(planes, stride, at);
        for (r, dst) in residuals.into_iter().zip(block.chunks_exact_mut(8)) {
            restore(r, dst);
        }
        at += 8;
    }
    for dst in blocks.into_remainder().chunks_exact_mut(8) {
        let z = u64::from_le_bytes(std::array::from_fn(|p| planes[p * stride + at]));
        restore(unzigzag(z), dst);
        at += 1;
    }
    Ok(())
}

/// [`decompress_into`] a fresh buffer, with its own scratch.
pub fn decompress_payload(image: &[u8]) -> WireResult<Vec<u8>> {
    let mut out = vec![0; decoded_len(image)?];
    decompress_into(image, &mut PlaneScratch::default(), &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time codec this module shipped until the word-at-a-time
    /// kernels replaced it, kept verbatim as the reference: the container
    /// is whatever this encoder writes and this decoder accepts.
    mod oracle {
        use crate::codec::{WireError, WireResult};
        use crate::compress::{unzigzag, zigzag, MAX_LITERAL_RUN, MAX_ZERO_RUN};

        /// Zero-run codes one byte plane into `out`.
        fn rle_encode_plane(plane: &[u8], out: &mut Vec<u8>) {
            let mut i = 0;
            while i < plane.len() {
                if plane[i] == 0 {
                    let mut run = 1;
                    while run < MAX_ZERO_RUN && i + run < plane.len() && plane[i + run] == 0 {
                        run += 1;
                    }
                    out.push(0x80 + (run as u8 - 1));
                    i += run;
                } else {
                    // Literal run: stop at the next zero PAIR (a lone zero inside
                    // a literal run costs less as a literal than as two tokens).
                    let start = i;
                    let mut end = i + 1;
                    while end < plane.len() && end - start < MAX_LITERAL_RUN {
                        if plane[end] == 0 && (end + 1 >= plane.len() || plane[end + 1] == 0) {
                            break;
                        }
                        end += 1;
                    }
                    out.push((end - start - 1) as u8);
                    out.extend_from_slice(&plane[start..end]);
                    i = end;
                }
            }
        }

        /// Decodes one zero-run-coded plane of exactly `n` bytes.
        fn rle_decode_plane(src: &[u8], pos: &mut usize, n: usize) -> WireResult<Vec<u8>> {
            let mut plane = Vec::with_capacity(n);
            while plane.len() < n {
                let token = *src.get(*pos).ok_or(WireError::Truncated {
                    what: "compressed plane token",
                })?;
                *pos += 1;
                if token >= 0x80 {
                    let run = (token - 0x7F) as usize;
                    if plane.len() + run > n {
                        return Err(WireError::Invalid {
                            what: "zero run overflows plane",
                        });
                    }
                    plane.resize(plane.len() + run, 0);
                } else {
                    let run = token as usize + 1;
                    if plane.len() + run > n {
                        return Err(WireError::Invalid {
                            what: "literal run overflows plane",
                        });
                    }
                    let lit = src.get(*pos..*pos + run).ok_or(WireError::Truncated {
                        what: "compressed plane literals",
                    })?;
                    plane.extend_from_slice(lit);
                    *pos += run;
                }
            }
            Ok(plane)
        }

        /// Compresses one frame payload with the lossless transform described in
        /// the module docs.  Returns `None` unless the result is strictly
        /// smaller than the input (the caller then sends the payload raw), so
        /// the wire path never regresses on incompressible data.
        ///
        /// Layout of the compressed image:
        /// `u32 LE original length · head bytes (len % 8, raw) · 8 × (u32 LE
        /// plane length · u8 filter flag (0 = plain, 1 = byte-delta) ·
        /// zero-run-coded plane)`.
        pub(super) fn compress_payload(payload: &[u8]) -> Option<Vec<u8>> {
            let n_words = payload.len() / 8;
            if n_words < 4 {
                return None; // too small for prediction to pay for the header
            }
            let head = payload.len() - n_words * 8;

            // Predict + zigzag in one pass, scattering into byte planes.
            let mut planes: Vec<Vec<u8>> = (0..8).map(|_| Vec::with_capacity(n_words)).collect();
            let (mut w1, mut w2) = (0u64, 0u64); // w(k−1), w(k−2)
            for chunk in payload[head..].chunks_exact(8) {
                let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                let pred = w1.wrapping_mul(2).wrapping_sub(w2);
                let z = zigzag(w.wrapping_sub(pred));
                let zb = z.to_le_bytes();
                for (plane, &b) in planes.iter_mut().zip(zb.iter()) {
                    plane.push(b);
                }
                w2 = w1;
                w1 = w;
            }

            let mut out = Vec::with_capacity(payload.len() / 2);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload[..head]);
            let mut plain = Vec::new();
            let mut deltas = Vec::with_capacity(n_words);
            let mut delta_coded = Vec::new();
            for plane in &planes {
                // Code the plane both verbatim and byte-delta-filtered; the
                // delta turns a slowly-varying plane (the residual bits just
                // above the entropy floor of a smooth field) into zero runs.
                plain.clear();
                rle_encode_plane(plane, &mut plain);
                deltas.clear();
                let mut prev = 0u8;
                for &b in plane {
                    deltas.push(b.wrapping_sub(prev));
                    prev = b;
                }
                delta_coded.clear();
                rle_encode_plane(&deltas, &mut delta_coded);
                let (flag, coded) = if delta_coded.len() < plain.len() {
                    (1u8, &delta_coded)
                } else {
                    (0u8, &plain)
                };
                out.extend_from_slice(&(coded.len() as u32).to_le_bytes());
                out.push(flag);
                out.extend_from_slice(coded);
                if out.len() >= payload.len() {
                    return None; // not shrinking: send raw
                }
            }
            Some(out)
        }

        /// Inverts [`compress_payload`], restoring the exact original payload.
        pub(super) fn decompress_payload(comp: &[u8]) -> WireResult<Vec<u8>> {
            let orig_len = u32::from_le_bytes(
                comp.get(..4)
                    .ok_or(WireError::Truncated {
                        what: "compressed payload length",
                    })?
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            let n_words = orig_len / 8;
            let head = orig_len - n_words * 8;
            let mut pos = 4;
            let head_bytes = comp.get(pos..pos + head).ok_or(WireError::Truncated {
                what: "compressed payload head",
            })?;
            let mut out = Vec::with_capacity(orig_len);
            out.extend_from_slice(head_bytes);
            pos += head;

            let mut planes = Vec::with_capacity(8);
            for _ in 0..8 {
                let plane_len = u32::from_le_bytes(
                    comp.get(pos..pos + 4)
                        .ok_or(WireError::Truncated {
                            what: "compressed plane length",
                        })?
                        .try_into()
                        .expect("4 bytes"),
                ) as usize;
                pos += 4;
                let flag = *comp.get(pos).ok_or(WireError::Truncated {
                    what: "plane filter flag",
                })?;
                if flag > 1 {
                    return Err(WireError::Invalid {
                        what: "unknown plane filter flag",
                    });
                }
                pos += 1;
                let end = pos + plane_len;
                if end > comp.len() {
                    return Err(WireError::Truncated {
                        what: "compressed plane body",
                    });
                }
                let mut at = pos;
                let mut plane = rle_decode_plane(&comp[..end], &mut at, n_words)?;
                if at != end {
                    return Err(WireError::Invalid {
                        what: "trailing bytes after plane",
                    });
                }
                if flag == 1 {
                    // Undo the byte-delta filter with a wrapping prefix sum.
                    let mut prev = 0u8;
                    for b in plane.iter_mut() {
                        prev = prev.wrapping_add(*b);
                        *b = prev;
                    }
                }
                planes.push(plane);
                pos = end;
            }
            if pos != comp.len() {
                return Err(WireError::Invalid {
                    what: "trailing bytes after compressed payload",
                });
            }

            let (mut w1, mut w2) = (0u64, 0u64);
            for k in 0..n_words {
                let mut zb = [0u8; 8];
                for (b, plane) in zb.iter_mut().zip(planes.iter()) {
                    *b = plane[k];
                }
                let pred = w1.wrapping_mul(2).wrapping_sub(w2);
                let w = pred.wrapping_add(unzigzag(u64::from_le_bytes(zb)));
                out.extend_from_slice(&w.to_le_bytes());
                w2 = w1;
                w1 = w;
            }
            Ok(out)
        }
    }

    /// Codes `payload` behind bytes already in the output and with a
    /// scratch that has seen another payload, and holds the result against
    /// the oracle: the same container bytes (or `None` for `None`), the
    /// earlier output untouched, and a decode — the oracle's and ours —
    /// that restores the payload.
    fn roundtrip(payload: &[u8]) {
        const EARLIER: &[u8] = b"earlier images";
        let mut scratch = PlaneScratch::default();
        let mut out = EARLIER.to_vec();
        let _ = compress_into(&[0xA5; 999], &mut scratch, &mut Vec::new());
        let coded = compress_into(payload, &mut scratch, &mut out);
        assert_eq!(&out[..EARLIER.len()], EARLIER);
        let image = &out[EARLIER.len()..];
        let expected = oracle::compress_payload(payload);
        assert_eq!(coded.map(|len| &image[..len]), expected.as_deref());
        assert_eq!(coded.unwrap_or(0), image.len());
        assert_eq!(compress_payload(payload), expected);
        // `None` is the raw fallback: nothing to invert.
        if coded.is_some() {
            assert!(image.len() < payload.len(), "compressed must be smaller");
            assert_eq!(decoded_len(image), Ok(payload.len()));
            let mut back = vec![0xEE; payload.len()];
            decompress_into(image, &mut scratch, &mut back).unwrap();
            assert_eq!(back, payload);
            assert_eq!(oracle::decompress_payload(image).unwrap(), payload);
            assert_eq!(decompress_payload(image).unwrap(), payload);
        }
    }

    /// A payload whose residual byte planes are exactly `planes`: the
    /// transform run backwards, so a test can put any run structure in
    /// front of the tokeniser.
    fn payload_with_planes(head: &[u8], planes: &[Vec<u8>; 8]) -> Vec<u8> {
        let mut payload = head.to_vec();
        let (mut w1, mut w2) = (0u64, 0u64);
        let residuals =
            (0..planes[0].len()).map(|k| u64::from_le_bytes(std::array::from_fn(|p| planes[p][k])));
        for z in residuals {
            let w = w1
                .wrapping_mul(2)
                .wrapping_sub(w2)
                .wrapping_add(unzigzag(z));
            payload.extend_from_slice(&w.to_le_bytes());
            (w2, w1) = (w1, w);
        }
        payload
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn nonzero_byte(&mut self) -> u8 {
            1 + self.below(255) as u8
        }
    }

    /// One plane of `n` bytes: all zero, constant (the delta filter's
    /// case), noise, or zero runs and literal runs of the lengths where
    /// the token space and the word scans have their edges.
    fn structured_plane(rng: &mut XorShift, n: usize) -> Vec<u8> {
        const ZERO_RUNS: [usize; 8] = [1, 1, 2, 7, 127, 128, 129, 300];
        const LITERAL_RUNS: [usize; 9] = [1, 2, 3, 9, 127, 128, 129, 256, 300];
        let mut plane = match rng.below(7) {
            0..=2 => vec![0; n],
            3 => vec![rng.nonzero_byte(); n],
            4 => (0..n).map(|_| rng.next() as u8).collect(),
            _ => {
                let mut plane = Vec::with_capacity(n + 600);
                while plane.len() < n {
                    if rng.below(4) > 0 {
                        let run = ZERO_RUNS[rng.below(ZERO_RUNS.len())];
                        plane.resize(plane.len() + run, 0);
                    }
                    let run = LITERAL_RUNS[rng.below(LITERAL_RUNS.len())];
                    let start = plane.len();
                    plane.extend((0..run).map(|_| rng.nonzero_byte()));
                    // Lone zeros inside the literal run, one of them
                    // perhaps where a 128-byte split lands.
                    if run > 2 && rng.below(2) == 0 {
                        plane[start + 1 + rng.below(run - 2)] = 0;
                    }
                    if run > 128 && rng.below(2) == 0 {
                        plane[start + 128] = 0;
                    }
                }
                plane.truncate(n);
                plane
            }
        };
        if rng.below(4) == 0 {
            plane[n - 1] = 0; // a zero on the final byte counts as a pair
        }
        plane
    }

    fn structured_payload(seed: u64, n_words: usize, head: usize) -> Vec<u8> {
        let mut rng = XorShift(seed | 1);
        let head: Vec<u8> = (0..head).map(|_| rng.next() as u8).collect();
        let planes: [Vec<u8>; 8] = std::array::from_fn(|_| structured_plane(&mut rng, n_words));
        payload_with_planes(&head, &planes)
    }

    #[test]
    fn runs_at_every_word_offset_match_the_oracle() {
        // One interesting plane, seven zero ones: zero runs and literal
        // runs of the edge lengths, started at every offset into a word,
        // with and without a lone zero after a full literal run.
        for offset in 0..8 {
            for run in [1usize, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300] {
                for zero_run in [true, false] {
                    for tail in [&[][..], &[0], &[0, 5], &[0, 0, 5], &[5, 0]] {
                        let mut plane = vec![if zero_run { 9u8 } else { 0 }; offset];
                        plane.extend(std::iter::repeat_n(if zero_run { 0u8 } else { 7 }, run));
                        plane.extend_from_slice(tail);
                        while plane.len() < 4 {
                            plane.push(0);
                        }
                        let n = plane.len();
                        for interesting in [0, 7] {
                            let planes: [Vec<u8>; 8] = std::array::from_fn(|p| {
                                if p == interesting {
                                    plane.clone()
                                } else {
                                    vec![0; n]
                                }
                            });
                            roundtrip(&payload_with_planes(&[1, 2, 3], &planes));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn raw_fallback_is_reached_at_the_same_plane_as_the_oracle() {
        // Noise in the planes from `first_noisy` on, zeros below: the
        // image outgrows the payload in the middle of the plane loop.
        let mut rng = XorShift(0x5EED);
        for first_noisy in 0..8 {
            for n in [64usize, 67, 1028] {
                let planes: [Vec<u8>; 8] = std::array::from_fn(|p| {
                    if p < first_noisy {
                        vec![0; n]
                    } else {
                        (0..n).map(|_| rng.next() as u8).collect()
                    }
                });
                roundtrip(&payload_with_planes(&[], &planes));
            }
        }
    }

    #[test]
    fn mutated_images_decode_as_the_oracle_decodes_them() {
        let payload = structured_payload(0xC0DEC, 67, 3);
        let image = compress_payload(&payload).expect("structured planes shrink");
        let agree =
            |bytes: &[u8]| match (decompress_payload(bytes), oracle::decompress_payload(bytes)) {
                (Ok(ours), Ok(theirs)) => assert_eq!(ours, theirs),
                (Err(_), Err(_)) => {}
                (ours, theirs) => panic!("{ours:?} against the oracle's {theirs:?}"),
            };
        for cut in 0..image.len() {
            agree(&image[..cut]);
        }
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            agree(&flipped);
        }
    }

    #[test]
    fn a_decoded_length_the_image_cannot_hold_is_refused_unallocated() {
        // Four bytes asking for 4 GiB, and the same claim in front of a
        // plausible amount of framing.
        assert!(decompress_payload(&u32::MAX.to_le_bytes()).is_err());
        let mut lying = u32::MAX.to_le_bytes().to_vec();
        lying.resize(CONTAINER_FRAMING + 7 + 100, 0x80);
        assert_eq!(
            decoded_len(&lying),
            Err(WireError::Invalid {
                what: "compressed payload claims more than it can hold"
            })
        );
        // The most a real image expands: all-zero words, 128 per token.
        let zeros = vec![0u8; 8 * 128 * 50 + 7];
        let image = compress_payload(&zeros).expect("zeros shrink");
        assert_eq!(image.len(), CONTAINER_FRAMING + 7 + 8 * 50);
        assert_eq!(decoded_len(&image), Ok(zeros.len()));
        // The caller's buffer must be that length.
        let mut short = vec![0; zeros.len() - 1];
        assert!(decompress_into(&image, &mut PlaneScratch::default(), &mut short).is_err());
    }

    /// A smooth solver-like field: the fixture the ≥2× acceptance ratio
    /// is measured on (also used by the bench and the wire smoke).
    pub(crate) fn smooth_field(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                let tau = std::f64::consts::TAU;
                300.0 + 40.0 * (tau * x).sin() + 5.0 * (5.0 * tau * x).cos()
            })
            .collect()
    }

    fn as_bytes(values: &[f64]) -> Vec<u8> {
        // 3 head bytes mimic the data-frame header tail (35 % 8).
        let mut payload = vec![0xAB, 0xCD, 0xEF];
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload
    }

    #[test]
    fn smooth_field_compresses_at_least_2x() {
        let payload = as_bytes(&smooth_field(8192));
        let c = compress_payload(&payload).expect("smooth field must compress");
        let ratio = payload.len() as f64 / c.len() as f64;
        assert!(ratio >= 2.0, "ratio {ratio:.2} below the 2× acceptance bar");
        assert_eq!(decompress_payload(&c).unwrap(), payload);
    }

    #[test]
    fn adversarial_f64_fields_roundtrip_bit_exactly() {
        let nan_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let fields: Vec<Vec<f64>> = vec![
            vec![0.0; 64],
            vec![-0.0; 64],
            [f64::NAN, nan_payload, f64::INFINITY, f64::NEG_INFINITY].repeat(16),
            (0..64).map(f64::from_bits).collect(), // subnormals
            [f64::MIN_POSITIVE, -f64::MIN_POSITIVE, f64::MAX, f64::MIN].repeat(16),
            vec![1.0; 64],
        ];
        for field in fields {
            let payload = as_bytes(&field);
            if let Some(c) = compress_payload(&payload) {
                let back = decompress_payload(&c).unwrap();
                assert_eq!(back, payload, "bit-exact roundtrip");
            }
        }
    }

    #[test]
    fn tiny_and_empty_payloads_fall_back_to_raw() {
        assert!(compress_payload(&[]).is_none());
        assert!(compress_payload(&[1, 2, 3]).is_none());
        assert!(compress_payload(&[0; 24]).is_none()); // < 4 words
    }

    #[test]
    fn high_entropy_payload_falls_back_to_raw() {
        // A keyed xorshift stream: incompressible by construction.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut payload = Vec::with_capacity(4096);
        for _ in 0..512 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            payload.extend_from_slice(&x.to_le_bytes());
        }
        assert!(
            compress_payload(&payload).is_none(),
            "high-entropy data must take the raw path, not grow on the wire"
        );
    }

    #[test]
    fn truncated_decode_is_an_error_not_a_panic() {
        let payload = as_bytes(&smooth_field(256));
        let c = compress_payload(&payload).unwrap();
        for cut in [0, 1, 3, 4, 7, c.len() / 2, c.len() - 1] {
            assert!(decompress_payload(&c[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = c.clone();
        long.push(0);
        assert!(decompress_payload(&long).is_err());
    }

    #[test]
    fn wire_mode_roundtrips() {
        for mode in [WireCompression::Off, WireCompression::Transpose] {
            let (m, b) = mode.to_wire();
            assert_eq!(WireCompression::from_wire(m, b), mode);
        }
        // Unknown or malformed proposals are declined, not errors.
        assert_eq!(WireCompression::from_wire(9, 0), WireCompression::Off);
        assert_eq!(WireCompression::from_wire(2, 24), WireCompression::Off);
        assert!(WireCompression::Transpose.wire_codec_enabled());
        assert!(!WireCompression::Off.wire_codec_enabled());
    }

    /// Uniform byte strategy (the vendored shim has no `any::<u8>()`).
    fn any_byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|b| b as u8)
    }

    proptest! {
        #[test]
        fn arbitrary_payloads_roundtrip(
            payload in prop::collection::vec(any_byte(), 0..4097),
        ) {
            roundtrip(&payload);
        }

        #[test]
        fn structured_planes_match_the_oracle(
            seed in 0u64..u64::MAX,
            n_words in 4usize..513,
            head in 0usize..8,
        ) {
            roundtrip(&structured_payload(seed, n_words, head));
        }

        #[test]
        fn arbitrary_f64_fields_roundtrip(
            // Raw bit patterns cover NaN payloads, ±inf, subnormals and
            // ±0.0; the smooth tail exercises the compressible path in
            // the same payload.
            bits in prop::collection::vec(0u64..u64::MAX, 0..512),
            head in prop::collection::vec(any_byte(), 0..8),
            smooth in prop::collection::vec(-1.0e3..1.0e3f64, 0..64),
        ) {
            let mut payload = head;
            for b in &bits {
                payload.extend_from_slice(&f64::from_bits(*b).to_le_bytes());
            }
            for v in &smooth {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            roundtrip(&payload);
        }

        #[test]
        fn decompress_never_panics_on_garbage(
            junk in prop::collection::vec(any_byte(), 0..512),
        ) {
            let _ = decompress_payload(&junk);
        }

        #[test]
        fn the_kernels_agree_on_payloads_of_any_length(
            seed in 0u64..u64::MAX,
            n_words in 4usize..1101,
        ) {
            let _ = kernels_hold(&mut XorShift(seed | 1), n_words);
        }
    }

    /// One plane of `n` bytes of each kind the kernels have an edge for:
    /// all zero; noise; a staircase, whose byte-delta wins; zero runs that
    /// cross a 64-byte word; noise ending in a zero run at `n − 1` and at
    /// `n`; and structured planes.
    fn edge_planes(rng: &mut XorShift, n: usize) -> [Vec<u8>; 8] {
        let noise = |rng: &mut XorShift| (0..n).map(|_| rng.nonzero_byte()).collect::<Vec<u8>>();
        let mut crossing = noise(rng);
        for zeros in [60..70, 120..140, 250..260] {
            crossing[zeros.start.min(n)..zeros.end.min(n)].fill(0);
        }
        let mut ends_before_last = noise(rng);
        ends_before_last[n - 4..n - 1].fill(0);
        let mut ends_at_last = noise(rng);
        ends_at_last[n - 3..].fill(0);
        [
            vec![0; n],
            (0..n).map(|_| rng.next() as u8).collect(),
            (0..n).map(|i| 1 + (i / 37) as u8).collect(),
            crossing,
            ends_before_last,
            ends_at_last,
            structured_plane(rng, n),
            structured_plane(rng, n),
        ]
    }

    /// Runs both kernels of every stage on a payload of `n` words whose
    /// planes are [`edge_planes`] in an order drawn from `rng`, requires
    /// the same bytes of them — and the planes the payload was built
    /// from — then round-trips the payload against the oracle.  Returns
    /// whether the image coded a plane as a byte-delta.
    fn kernels_hold(rng: &mut XorShift, n: usize) -> bool {
        let mut planes = edge_planes(rng, n);
        for p in (1..8).rev() {
            planes.swap(p, rng.below(p + 1));
        }
        let head: Vec<u8> = (0..n % 8).map(|_| rng.next() as u8).collect();
        let payload = payload_with_planes(&head, &planes);
        #[cfg(target_arch = "x86_64")]
        sse2_matches_portable(&payload[head.len()..], &planes);
        roundtrip(&payload);
        // Whether a plane (the staircase) took the delta filter; noisy
        // structured planes may send the payload raw instead.
        compress_payload(&payload).is_some_and(|image| {
            let mut pos = 4 + head.len();
            (0..8).any(|_| {
                let len = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap());
                pos += 5 + len as usize;
                image[pos - len as usize - 1] == 1
            })
        })
    }

    /// The SSE2 kernels against the portable ones on the whole words of a
    /// payload whose residual planes are `planes`.
    #[cfg(target_arch = "x86_64")]
    fn sse2_matches_portable(words: &[u8], planes: &[Vec<u8>; 8]) {
        let n = words.len() / 8;
        let stride = (n + 2).next_multiple_of(64);
        // Pass one, into buffers holding junk, as a reused scratch does.
        let mut split = vec![0xEE; PLANE_LEAD + 8 * stride + COPY_BLOCK];
        let mut expected = split.clone();
        sse2::split_planes(words, &mut split[PLANE_LEAD..], stride);
        portable::split_planes(words, &mut expected[PLANE_LEAD..], stride);
        assert_eq!(split, expected, "split_planes, n = {n}");
        for (p, plane) in planes.iter().enumerate() {
            assert_eq!(
                &split[PLANE_LEAD + p * stride..][..n],
                &plane[..],
                "plane {p}"
            );
        }
        // The zero maps of each plane as the encoder pads it.
        for plane in split[PLANE_LEAD..].chunks_exact_mut(stride) {
            plane[n..].fill(0);
        }
        let (mut zeros, mut repeats) = (Vec::new(), Vec::new());
        let (mut want_zeros, mut want_repeats) = (Vec::new(), Vec::new());
        for p in 0..8 {
            let lead_and_plane = &split[PLANE_LEAD + p * stride - 1..][..stride + 1];
            sse2::zero_maps(lead_and_plane, &mut zeros, &mut repeats);
            portable::zero_maps(lead_and_plane, &mut want_zeros, &mut want_repeats);
            assert_eq!(
                (&zeros, &repeats),
                (&want_zeros, &want_repeats),
                "zero maps, n = {n}"
            );
            for (i, pair) in lead_and_plane.windows(2).enumerate() {
                let bit = |map: &[u64]| map[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(bit(&zeros), pair[1] == 0, "zero bit {i} of plane {p}");
                assert_eq!(
                    bit(&repeats),
                    pair[1] == pair[0],
                    "repeat bit {i} of plane {p}"
                );
            }
        }
        // The byte prefix sum, over every length up to a plane and a tail
        // of each remainder.
        for (p, plane) in planes.iter().enumerate() {
            let from = p * 3 % n;
            let (mut sums, mut want) = (plane[from..].to_vec(), plane[from..].to_vec());
            sse2::prefix_sum_bytes(&mut sums);
            portable::prefix_sum_bytes(&mut want);
            assert_eq!(sums, want, "prefix sum of plane {p} from {from}");
            let mut total = 0u8;
            for (&sum, &byte) in sums.iter().zip(&plane[from..]) {
                total = total.wrapping_add(byte);
                assert_eq!(sum, total);
            }
        }
        // Pass one backwards, from planes laid out as the decoder lays them.
        let stride = n + COPY_BLOCK;
        let mut decoded = vec![0xEE; 8 * stride];
        for (p, plane) in planes.iter().enumerate() {
            decoded[p * stride..][..n].copy_from_slice(plane);
        }
        for at in (0..n / 8 * 8).step_by(8) {
            let residuals = sse2::gather_residuals(&decoded, stride, at);
            assert_eq!(residuals, portable::gather_residuals(&decoded, stride, at));
            for (k, residual) in residuals.into_iter().enumerate() {
                let z = u64::from_le_bytes(std::array::from_fn(|p| planes[p][at + k]));
                assert_eq!(residual, unzigzag(z), "word {}", at + k);
            }
        }
    }

    #[test]
    fn the_kernels_agree_at_every_word_count_and_tail() {
        let mut rng = XorShift(0x5E2_2024);
        let deltas = (4..=1100).filter(|&n| kernels_hold(&mut rng, n)).count();
        assert!(
            deltas > 1097 * 3 / 4,
            "{deltas} of 1 097 images took a delta"
        );
    }
}
