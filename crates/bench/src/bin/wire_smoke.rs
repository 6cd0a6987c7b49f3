//! Wire-path acceptance smoke: the five invariants of the bandwidth-lean
//! TCP data path, asserted (not just measured) so CI catches a
//! regression:
//!
//! 1. **Streamed never amortises worse than roundtrip.**  Before burst
//!    batching, a streamed burst of 64 KiB frames ran *slower* per byte
//!    than lone send/recv round trips (`BENCH_transport.json` v3:
//!    1012 vs 2517 MiB/s) because every frame paid its own writer
//!    wakeup and `write` syscall.  The gathered (vectored) burst writer
//!    must keep the streamed shape at roundtrip speed or better.
//!
//!    The asserted burst depth is 8 (512 KiB in flight), deliberately
//!    below the cache-capacity cliff: on a single-core host the two
//!    shapes cannot overlap, so roundtrip — which recycles one
//!    cache-hot frame in a perfect thread relay — is a wall-clock
//!    ceiling, and past ~1 MiB of pipeline the streamed shape starts
//!    measuring cache capacity rather than per-frame overhead (CPU time
//!    per frame triples while syscalls and wakeups per frame stay
//!    *lower* than roundtrip's).  At depth 8 the pipeline is
//!    cache-resident on any host, so the ratio isolates exactly what
//!    burst batching owns: wakeup and syscall amortisation.  The
//!    comparison interleaves the shapes and takes the best round,
//!    because host steal on shared runners produces one-sided downward
//!    spikes; an unbatched writer fails every round, so best-of keeps
//!    the assertion sharp while de-flaking it.
//! 2. **The lossless codec earns ≥ 2× on the smooth-field fixture**, and
//!    a Transpose link delivers those frames bit-identically with the
//!    wire-byte savings visible in the link stats.
//!
//! 3. **A frame costs no wake-up.**  A group's timestep reaches a server
//!    worker as one batch: one queue hand-off to the link writer, one
//!    gathered write, a couple of block reads, one push into the ingest
//!    queue — each waking its consumer at most once per batch.  On a
//!    paced stream of 32-frame timesteps of 8 KiB frames (the tube-bundle
//!    study's shape) that is ≈ 0.18 voluntary context switches per frame,
//!    every thread of the process counted; handing the same frames over
//!    one by one, as the data path did before, costs ≈ 0.8.  The bar is
//!    0.25, so a per-frame wake-up on any hop cannot come back unnoticed.
//!
//! 4. **The wire container is the same bytes.**  The containers of a
//!    fixed seeded set of real tube-bundle frames hash to the digest the
//!    byte-at-a-time codec produced before the word-at-a-time kernels
//!    replaced it (the same set and digest as `tests/wire_codec.rs`), so a
//!    build of this commit and a build of any earlier one interoperate.
//! 5. **A compressed frame costs no allocation.**  Streaming those frames
//!    in 32-frame timesteps over a Transpose link costs ≈ 0.1 allocations
//!    of 4 KiB or more per frame, every thread counted — one block per
//!    timestep on the producer, one block of images per burst on the
//!    writer, one block of restored payloads per read on the acceptor.
//!    The codec used to allocate a dozen times per frame, two of them
//!    that large; the bar is 0.25.
//!
//! 4 repeats exactly; 5 is a count a busy host can only add to (shorter
//! reads), so it is the best of three like 3.  Nothing here asserts on
//! wall-clock speed.
//!
//! The deep-pipeline shape (depth 32, `transport_stream32`'s fixture) is
//! measured and printed for the record, but its ratio is asserted only
//! loosely: on single-core hosts it is cache-capacity-bound (see above),
//! while the regression this smoke exists to catch — per-frame writer
//! overhead — already trips the depth-8 assertion.
//!
//! Run with `cargo run -p melissa-bench --release --bin wire_smoke`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa_bench::{large_allocs, stream_cost, tube_frames, CountingAlloc};
use melissa_transport::{
    compress_payload, decompress_payload, make_transport_with, Receiver, Sender, TcpTransport,
    TcpTransportConfig, TransportKind, WireCompression,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FRAME: usize = 65536;

/// `(frames, bytes, FNV-1a 64)` of the containers of
/// `tube_frames(2017, 30, 5)` — each image behind its `u32` length — as
/// `compress_payload` wrote them at commit 76fbd0d (PR 18).
const GOLDEN_CONTAINERS: (usize, usize, u64) = (384, 2_442_625, 0x51cb_4de7_16a6_efa2);

/// The acceptance fixture: one 64 KiB data-frame-shaped payload (3
/// header-tail bytes + smooth f64 field).
fn smooth_payload(n_doubles: usize) -> Bytes {
    let mut payload = vec![0xAB, 0xCD, 0xEF];
    for i in 0..n_doubles {
        let x = i as f64 / n_doubles as f64;
        let tau = std::f64::consts::TAU;
        let v = 300.0 + 40.0 * (tau * x).sin() + 5.0 * (5.0 * tau * x).cos();
        payload.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(payload)
}

fn mib_per_sec(bytes: usize, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64()
}

/// One interleaved measurement at the given burst depth: returns
/// (roundtrip MiB/s, streamed MiB/s) over `rounds` alternating rounds,
/// plus the best per-round streamed/roundtrip ratio.
fn measure(
    tx: &dyn Sender,
    rx: &dyn Receiver,
    frame: &Bytes,
    depth: usize,
    rounds: usize,
) -> (f64, f64, f64) {
    for _ in 0..4 {
        tx.send(frame.clone()).unwrap();
        rx.recv().unwrap();
    }
    let (mut rt_total, mut st_total) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let mut best_ratio = 0.0f64;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..depth {
            tx.send(frame.clone()).unwrap();
            rx.recv().unwrap();
        }
        let rt = t0.elapsed();

        let t0 = Instant::now();
        for _ in 0..depth {
            tx.send(frame.clone()).unwrap();
        }
        for _ in 0..depth {
            rx.recv().unwrap();
        }
        let st = t0.elapsed();

        rt_total += rt;
        st_total += st;
        best_ratio = best_ratio.max(rt.as_secs_f64() / st.as_secs_f64());
    }
    let bytes = rounds * depth * FRAME;
    (
        mib_per_sec(bytes, rt_total),
        mib_per_sec(bytes, st_total),
        best_ratio,
    )
}

fn main() {
    // --- 1. streamed vs roundtrip on the raw TCP path ------------------
    let t = make_transport_with(TransportKind::Tcp, WireCompression::Off);
    let rx = t.bind("wire-smoke", 33);
    let tx = t.connect("wire-smoke").unwrap();
    let frame = Bytes::from(vec![0u8; FRAME]);

    let (rt8, st8, best8) = measure(tx.as_ref(), rx.as_ref(), &frame, 8, 60);
    println!("tcp 64 KiB roundtrip       : {rt8:10.1} MiB/s (depth 8 rounds)");
    println!("tcp 64 KiB streamed  (d=8) : {st8:10.1} MiB/s, best round ratio {best8:.2}");
    let (rt32, st32, best32) = measure(tx.as_ref(), rx.as_ref(), &frame, 32, 20);
    println!("tcp 64 KiB roundtrip       : {rt32:10.1} MiB/s (depth 32 rounds)");
    println!("tcp 64 KiB streamed  (d=32): {st32:10.1} MiB/s, best round ratio {best32:.2}");
    assert!(
        best8 >= 0.8,
        "streamed burst (depth 8) amortises worse than roundtrip in every round \
         (best ratio {best8:.2} < 0.8): the burst-batched writer regressed"
    );
    assert!(
        best32 >= 0.5,
        "deep streamed burst (depth 32) fell far below roundtrip (best ratio \
         {best32:.2} < 0.5): per-frame writer overhead is back"
    );

    // --- 2. codec ratio and a bit-identical compressed link ------------
    let payload = smooth_payload(8192);
    let compressed = compress_payload(&payload).expect("smooth field must compress");
    let ratio = payload.len() as f64 / compressed.len() as f64;
    println!("codec ratio (smooth)       : {ratio:10.2}x");
    assert!(ratio >= 2.0, "ratio {ratio:.2} below the 2x acceptance bar");
    assert_eq!(
        decompress_payload(&compressed).expect("decode"),
        &payload[..],
        "codec must be lossless"
    );

    let tz = make_transport_with(TransportKind::Tcp, WireCompression::Transpose);
    let rxz = tz.bind("wire-smoke-zip", 33);
    let txz = tz.connect("wire-smoke-zip").unwrap();
    const ZIP_BURST: usize = 32;
    let t0 = Instant::now();
    for _ in 0..ZIP_BURST {
        txz.send(payload.clone()).unwrap();
    }
    for _ in 0..ZIP_BURST {
        assert_eq!(
            &rxz.recv().unwrap()[..],
            &payload[..],
            "compressed link must deliver bit-identical payloads"
        );
    }
    let zipped = mib_per_sec(ZIP_BURST * payload.len(), t0.elapsed());
    println!("tcp streamed (zip)         : {zipped:10.1} MiB/s effective payload");

    let stats = tz.link_stats();
    let link = stats
        .iter()
        .find_map(|(name, s)| (name == "wire-smoke-zip").then_some(s))
        .expect("link rollup");
    println!(
        "wire ratio on link         : {:10.2}x ({} payload / {} wire bytes)",
        link.bytes as f64 / link.wire_bytes as f64,
        link.bytes,
        link.wire_bytes
    );
    assert!(
        link.wire_bytes * 2 <= link.bytes,
        "link moved {} wire bytes for {} payload bytes: ratio below 2x",
        link.wire_bytes,
        link.bytes
    );
    // --- 3. a timestep-batched stream pays per batch, not per frame ----
    // Best of three: a busy host adds switches, it never removes one.
    let node = TcpTransport::new().expect("loopback listener");
    let cost = (0..3)
        .map(|i| {
            let name = format!("wire-smoke-timesteps-{i}");
            let pause = Duration::from_millis(2);
            let filler = [Bytes::from(vec![0x5Au8; 8227])];
            stream_cost(&node, &name, &filler, 32, 100, pause, true)
        })
        .min_by(|a, b| a.voluntary.cmp(&b.voluntary))
        .expect("three runs");
    println!(
        "tcp 8 KiB timestep stream  : {:10.2} voluntary switches/frame, {:.1} frames/writev, \
         {:.1} frames/recv",
        cost.voluntary_per_frame(),
        cost.frames_per_write(),
        cost.frames_per_read()
    );
    assert!(
        cost.voluntary_per_frame() <= 0.25,
        "{:.2} voluntary context switches per frame on a timestep-batched stream: some hop \
         wakes its consumer per frame again",
        cost.voluntary_per_frame()
    );
    assert!(
        cost.frames_per_write() >= 16.0 && cost.frames_per_read() >= 4.0,
        "a timestep's frames no longer share their socket calls"
    );

    // --- 4. the container is the bytes it always was -------------------
    let frames = tube_frames(2017, 30, 5);
    let (mut digest, mut image_bytes) = (0xcbf2_9ce4_8422_2325u64, 0);
    for frame in &frames {
        let image = compress_payload(frame).expect("every one of these frames shrinks");
        for byte in (image.len() as u32).to_le_bytes().iter().chain(&image) {
            digest = (digest ^ *byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
        image_bytes += image.len();
    }
    println!(
        "tube-bundle containers     : {:10.3}x ratio, digest {digest:#018x}",
        (frames.len() * 8227) as f64 / image_bytes as f64
    );
    assert_eq!(
        (frames.len(), image_bytes, digest),
        GOLDEN_CONTAINERS,
        "the wire container's bytes moved"
    );

    // --- 5. a compressed timestep stream allocates per batch -----------
    let mut config = TcpTransportConfig::local();
    config.compression = WireCompression::Transpose;
    let zipped_node = TcpTransport::with_config(config).expect("loopback listener");
    let (allocs, cost) = (0..3)
        .map(|i| {
            let name = format!("wire-smoke-zip-timesteps-{i}");
            let before = large_allocs();
            let pause = Duration::from_millis(2);
            let cost = stream_cost(&zipped_node, &name, &frames, 32, 100, pause, true);
            (large_allocs() - before, cost)
        })
        .min_by_key(|(allocs, _)| *allocs)
        .expect("three runs");
    let per_frame = allocs as f64 / cost.frames as f64;
    let mib_s = |nanos: u64| cost.io.codec_bytes_in as f64 / 1.048576e-3 / nanos as f64;
    println!(
        "zip 8 KiB timestep stream  : {per_frame:10.2} allocations >= 4 KiB/frame, codec encode \
         {:.0} MiB/s, decode {:.0} MiB/s, {} of {} frames raw",
        mib_s(cost.io.codec_encode_nanos),
        mib_s(cost.io.codec_decode_nanos),
        cost.io.codec_raw_frames,
        cost.frames
    );
    assert!(
        per_frame <= 0.25,
        "{per_frame:.2} allocations of 4 KiB or more per frame on a compressed timestep-batched \
         stream: the codec or the link allocates per frame again"
    );
    assert!(
        cost.io.codec_bytes_out < cost.io.codec_bytes_in && cost.io.codec_raw_frames == 0,
        "the frames did not cross the link compressed"
    );
    println!("wire smoke: OK");
}
