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
//! whole study, `encode` 700–870 MiB/s and `decode` 1 600–1 800 MiB/s on
//! one core of the reference host (`transport_compress/codec_*/tube8k` in
//! `BENCH_transport.json`, `wire_probe` with `SHAPE=codec`, and
//! `compress.*` in a traced `study_bench` run), against 13 GiB/s for a
//! `memcpy` of the same frames.  That puts the break-even at
//! ≈ 0.19 × 700 ≈ 135 MiB/s ≈ 1.1 Gb/s: the codec cannot win on a
//! loopback or a 10 GbE link, and is about even on 1 GbE.  Per link, the
//! same quantities are counted live ([`TcpTransport::wire_io`], the
//! scrape's `wire_codec_seconds_total` / `wire_codec_bytes_total`).
//!
//! # How the kernels work: two passes, a word at a time
//!
//! **Encode, pass one** predicts and zigzags eight words, transposes them
//! as an 8 × 8 byte matrix held in eight `u64`s (three rounds of
//! block swaps) and stores each plane's eight bytes with one word write
//! into one contiguous buffer of planes; the `n mod 8` tail is scalar.
//! **Pass two**, per plane, builds a *run map* — a bitmask with one bit per
//! byte, "is it zero", computed eight bytes per step with an exact SWAR
//! zero test and a multiply that gathers the eight flags — and from it,
//! with shifts and ANDs over 64 bytes at a time, the positions where
//! literal bytes and zero runs of two or more alternate.  The coded size
//! of the plane and of its byte-delta (one vectorisable subtraction) follow
//! from their maps alone, exactly, so only the winner is written: token
//! bytes, and literal runs moved in 32-byte blocks rather than by `memcpy`
//! calls (the runs are short — a real plane is ≈ 70 tokens per KiB).
//! **Decode** fills planes from the tokens with the same block moves,
//! undoes a delta with a SWAR byte prefix sum (even and odd bytes summed in
//! 16-bit lanes by one multiply each), and gathers eight words per step
//! back through the same transpose.  All working storage is a
//! [`PlaneScratch`] the caller owns, and output goes to the caller's
//! buffer ([`compress_into`], [`decompress_into`]), so a link codes a
//! burst of frames into one block with no allocation per frame.
//!
//! The byte-at-a-time codec these kernels replaced is kept, verbatim, as
//! the oracle of this module's tests: the container is whatever it writes,
//! byte for byte, and `tests/wire_codec.rs` pins a digest of real frames'
//! containers computed with it.
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

/// The codec's working storage, owned by whoever runs it — a link's
/// writer, an acceptor's reader — so a frame costs no allocation once
/// the buffers have grown to the link's frame size.
#[derive(Debug, Default)]
pub struct PlaneScratch {
    /// The eight byte planes of a payload's residuals, one after the
    /// other (the encoder pads each with zero bytes to whole 64-byte
    /// chunks).
    planes: Vec<u8>,
    /// The byte-delta of the plane the encoder is deciding on, and the
    /// run maps of the plane as it is and of its delta.
    delta: Vec<u8>,
    plain_runs: RunMap,
    delta_runs: RunMap,
}

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

/// Pass one of the encoder: predicts and zigzags `words` (whole
/// little-endian `u64`s) and scatters the residuals' bytes into eight
/// planes `stride` apart — eight words at a time through
/// [`transpose8x8`], so a plane receives eight bytes per store.
fn split_planes(words: &[u8], planes: &mut [u8], stride: usize) {
    let (mut w1, mut w2) = (0u64, 0u64); // w(k−1), w(k−2)
    let mut residual = |chunk: &[u8]| {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let z = zigzag(w.wrapping_sub(w1.wrapping_mul(2).wrapping_sub(w2)));
        (w2, w1) = (w1, w);
        z
    };
    let mut blocks = words.chunks_exact(64);
    let mut at = 0;
    for block in blocks.by_ref() {
        let mut z = [0u64; 8];
        for (z, chunk) in z.iter_mut().zip(block.chunks_exact(8)) {
            *z = residual(chunk);
        }
        for (p, bytes) in transpose8x8(z).into_iter().enumerate() {
            planes[p * stride + at..][..8].copy_from_slice(&bytes.to_le_bytes());
        }
        at += 8;
    }
    for chunk in blocks.remainder().chunks_exact(8) {
        for (p, byte) in residual(chunk).to_le_bytes().into_iter().enumerate() {
            planes[p * stride + at] = byte;
        }
        at += 1;
    }
}

const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// `0x80` in every byte of the result whose byte in `x` is zero, `0x00`
/// in the others — exact: no carry crosses a byte.
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// Where the runs of one byte plane lie, 64 bytes to a word — the
/// encoder's second pass.  A byte belongs to a **zero run** when it and a
/// neighbour are zero; everything else — other bytes, and lone zeros
/// among them, which cost less as literals than as two tokens — is
/// **literal**.  Sizing a plane's coding and writing it both walk this
/// map, never the plane's bytes, to find the runs.
#[derive(Debug, Default)]
struct RunMap {
    /// One bit per byte: is it zero?
    zeros: Vec<u64>,
    /// One bit per byte: does one kind of run end and the other start
    /// here?
    edges: Vec<u64>,
}

impl RunMap {
    /// Maps the first `n` bytes of `plane`, which is whole 64-byte
    /// chunks, zero past `n` by at least two bytes — the zeros that make a
    /// zero on the plane's last byte count as one of a pair.
    fn map(&mut self, plane: &[u8], n: usize) {
        let Self { zeros, edges } = self;
        zeros.clear();
        zeros.extend(plane.chunks_exact(64).map(|chunk| {
            let mut bits = 0u64;
            for (k, word) in chunk.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                // Gathers the eight flags (bit 7 of each byte) into one
                // byte: the 64 partial products have distinct exponents,
                // so none carries, and the diagonal lands in the top byte.
                let flags = (zero_bytes(word) >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                bits |= flags << (8 * k);
            }
            bits
        }));
        debug_assert!(zeros.len() * 64 >= n + 2);
        edges.clear();
        let (mut pairs_before, mut runs_before) = (0u64, 0u64);
        for (w, &z) in zeros.iter().enumerate() {
            let next = zeros.get(w + 1).copied().unwrap_or(!0);
            let pairs = z & ((z >> 1) | (next << 63)); // zero, and so is the next byte
            let runs = pairs | (pairs << 1) | (pairs_before >> 63);
            edges.push(runs ^ ((runs << 1) | (runs_before >> 63)));
            (pairs_before, runs_before) = (pairs, runs);
        }
        // Runs end with the plane.
        edges.truncate(n / 64 + 1);
        edges[n / 64] &= (1 << (n % 64)) - 1;
    }

    /// Calls `f(is_zero_run, start, end)` for each run of the plane's
    /// `n` bytes, in order.
    #[inline(always)]
    fn for_each_run(&self, n: usize, mut f: impl FnMut(bool, usize, usize)) {
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
        if n > start {
            f(zero_run, start, n);
        }
    }

    /// Length of the plane's zero-run coding, exactly, without coding it.
    ///
    /// A zero run is coded in tokens of up to 128 bytes.  A literal run
    /// is coded in pieces of up to 128 bytes, each behind its token; a
    /// piece that would start on one of the run's lone zeros codes that
    /// zero as a zero run of one instead — one byte either way — and
    /// starts after it.
    fn coded_len(&self, n: usize) -> usize {
        let mut len = 0;
        self.for_each_run(n, |zero_run, start, end| {
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
    fn emit(&self, plane: &[u8], n: usize, out: &mut [u8], mut at: usize) -> usize {
        self.for_each_run(n, |zero_run, mut start, end| {
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
    // or never read, except the padding behind each plane.
    planes.resize(8 * stride + COPY_BLOCK, 0);
    delta.resize(stride + COPY_BLOCK, 0);
    split_planes(&payload[head..], planes, stride);
    for plane in planes.chunks_exact_mut(stride) {
        plane[n..].fill(0);
    }
    delta[n..].fill(0);

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
        // whichever is shorter, verbatim on a tie.  Both are sized from
        // their run maps and only the winner is written; a plane of
        // nothing but full zero runs cannot be beaten and skips the
        // delta.
        let plane = &planes[p * stride..];
        plain_runs.map(&plane[..stride], n);
        let (mut len, mut flag, mut source, mut runs) =
            (plain_runs.coded_len(n), 0, plane, &*plain_runs);
        if len > n.div_ceil(MAX_ZERO_RUN) {
            delta[0] = plane[0];
            for ((d, &b), &before) in delta[1..n]
                .iter_mut()
                .zip(&plane[1..n])
                .zip(&plane[..n - 1])
            {
                *d = b.wrapping_sub(before);
            }
            delta_runs.map(&delta[..stride], n);
            let filtered = delta_runs.coded_len(n);
            if filtered < len {
                (len, flag, source, runs) = (filtered, 1, &delta[..], &*delta_runs);
            }
        }
        if at + 5 + len >= payload.len() {
            out.truncate(base);
            return None; // not shrinking: send raw
        }
        image[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        image[at + 4] = flag;
        at = runs.emit(source, n, image, at + 5);
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

/// Decodes one zero-run-coded plane, `coded`, of exactly `n` bytes into
/// the front of `plane`, which has [`COPY_BLOCK`] bytes of slack behind
/// them: runs are written in whole blocks, and what a run's last block
/// writes past its end the next token overwrites.
fn decode_plane(coded: &[u8], plane: &mut [u8], n: usize) -> WireResult<()> {
    let (mut pos, mut at) = (0, 0);
    while at < n {
        let token = *coded.get(pos).ok_or(WireError::Truncated {
            what: "compressed plane token",
        })?;
        pos += 1;
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
            for block in to.chunks_exact_mut(COPY_BLOCK) {
                block.copy_from_slice(&[0; COPY_BLOCK]);
            }
        } else if let Some(from) = coded.get(pos..pos + blocks) {
            for (to, from) in to
                .chunks_exact_mut(COPY_BLOCK)
                .zip(from.chunks_exact(COPY_BLOCK))
            {
                to.copy_from_slice(from);
            }
            pos += run;
        } else {
            // The coding ends within the run's last block.
            let literals = coded.get(pos..pos + run).ok_or(WireError::Truncated {
                what: "compressed plane literals",
            })?;
            to[..run].copy_from_slice(literals);
            pos += run;
        }
        at += run;
    }
    if pos != coded.len() {
        return Err(WireError::Invalid {
            what: "trailing bytes after plane",
        });
    }
    Ok(())
}

/// Undoes the byte-delta filter: a wrapping prefix sum over `plane`,
/// eight bytes per step.  Even and odd bytes are summed in separate
/// 16-bit lanes — a multiplication by `0x0001_0001_0001_0001` is a prefix
/// sum over lanes, and eight bytes cannot overflow one — then folded
/// back modulo 256 with the running total of the words before.
fn prefix_sum_bytes(plane: &mut [u8]) {
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
    for plane in scratch.planes.chunks_exact_mut(stride) {
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
        decode_plane(coded, plane, n)?;
        if flag == 1 {
            prefix_sum_bytes(&mut plane[..n]);
        }
    }
    if pos != image.len() {
        return Err(WireError::Invalid {
            what: "trailing bytes after compressed payload",
        });
    }

    // Gather the planes back into words — eight at a time through the
    // transpose — and undo zigzag and prediction.
    let planes = &scratch.planes[..];
    let (mut w1, mut w2) = (0u64, 0u64);
    let mut restore = |z: u64, dst: &mut [u8]| {
        let w = w1
            .wrapping_mul(2)
            .wrapping_sub(w2)
            .wrapping_add(unzigzag(z));
        dst.copy_from_slice(&w.to_le_bytes());
        (w2, w1) = (w1, w);
    };
    let mut blocks = words_out.chunks_exact_mut(64);
    let mut at = 0;
    for block in blocks.by_ref() {
        let rows: [u64; 8] = std::array::from_fn(|p| {
            let row = planes[p * stride + at..][..8].try_into().expect("8 bytes");
            u64::from_le_bytes(row)
        });
        for (z, dst) in transpose8x8(rows)
            .into_iter()
            .zip(block.chunks_exact_mut(8))
        {
            restore(z, dst);
        }
        at += 8;
    }
    for dst in blocks.into_remainder().chunks_exact_mut(8) {
        let z = u64::from_le_bytes(std::array::from_fn(|p| planes[p * stride + at]));
        restore(z, dst);
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
    }
}
