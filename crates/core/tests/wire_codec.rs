//! The wire codec (`melissa_transport::compress`) from outside the crate:
//!
//! * the containers of a fixed seeded set of real tube-bundle frames are
//!   pinned by a digest computed with the byte-at-a-time codec the
//!   word-at-a-time kernels replaced, so the wire format provably did not
//!   move (the transport crate's unit tests hold the same kernels against
//!   that codec, kept as their oracle, on generated payloads);
//! * the decoder is fed truncated, bit-flipped and arbitrary bytes —
//!   directly, and as compressed frames on a live TCP link — and must
//!   answer with a typed error on that link: never a panic, never an
//!   allocation sized by four hostile header bytes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use melissa::protocol::DataHeader;
use melissa_sobol::design::PickFreeze;
use melissa_solver::decomposed::DecomposedSimulation;
use melissa_solver::{InjectionParams, UseCaseConfig};
use melissa_transport::codec::{read_frame, write_frame};
use melissa_transport::{
    compress_payload, decompress_payload, TcpTransport, TcpTransportConfig, Transport,
    WireCompression,
};
use proptest::prelude::*;

mod common;

/// Records the largest single allocation the test binary ever asks for.
#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// Nothing here legitimately allocates more than a solver field a few
/// times over; a size taken from a hostile header would dwarf this.
const ALLOC_CEILING: usize = 16 << 20;

fn assert_no_header_sized_allocation() {
    let peak = common::largest_alloc();
    assert!(
        peak < ALLOC_CEILING,
        "a {peak}-byte allocation was requested"
    );
}

/// The `Data` frames group 0 of a tube-bundle study with design seed 2017
/// sends on every fifth of its first 30 timesteps: the default
/// 64 × 32 × 4 mesh over two ranks, 8 227 B a frame
/// (`melissa_bench::tube_frames(2017, 30, 5)`, which `wire_smoke` pins to
/// the same digest — the bench crate cannot be a dependency of this one).
fn tube_frames() -> Vec<Bytes> {
    const RANKS: usize = 2;
    let solver = UseCaseConfig::default();
    let flow = Arc::new(solver.prerun());
    let design = PickFreeze::generate(1, &InjectionParams::parameter_space(), 2017);
    let mut sims: Vec<DecomposedSimulation> = design
        .group(0)
        .rows()
        .iter()
        .map(|row| {
            let params = InjectionParams::from_row(row);
            DecomposedSimulation::new(&solver, Arc::clone(&flow), params, RANKS)
        })
        .collect();
    let mut frames = Vec::new();
    for timestep in 0..30 {
        for sim in &mut sims {
            sim.advance();
        }
        if (timestep + 1) % 5 != 0 {
            continue;
        }
        for rank in 0..RANKS {
            for (role, sim) in sims.iter().enumerate() {
                for (range, values) in sim.rank_chunks(rank) {
                    let header = DataHeader {
                        group_id: 0,
                        instance: 0,
                        role: role as u16,
                        timestep: timestep as u32,
                        start: range.start as u64,
                    };
                    let mut frame = BytesMut::new();
                    header.encode_frame(&mut frame, &values);
                    frames.push(frame.freeze());
                }
            }
        }
    }
    frames
}

fn fnv1a64(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

#[test]
fn containers_of_real_frames_match_the_golden_digest() {
    let frames = tube_frames();
    let (mut digest, mut wire_len, mut raw) = (0xcbf29ce484222325, 0, 0);
    for frame in &frames {
        assert_eq!(frame.len(), 8227);
        match compress_payload(frame) {
            Some(image) => {
                assert_eq!(decompress_payload(&image).expect("decodes"), &frame[..]);
                digest = fnv1a64(digest, &(image.len() as u32).to_le_bytes());
                digest = fnv1a64(digest, &image);
                wire_len += image.len();
            }
            // A frame that goes raw is part of the format too.
            None => {
                digest = fnv1a64(digest, &u32::MAX.to_le_bytes());
                wire_len += frame.len();
                raw += 1;
            }
        }
    }
    assert_eq!(
        (frames.len(), raw, wire_len, digest),
        (GOLDEN_FRAMES, GOLDEN_RAW, GOLDEN_WIRE_LEN, GOLDEN_FNV1A64),
        "the wire container's bytes moved"
    );
}

/// The containers of [`tube_frames`] as `compress_payload` wrote them at
/// commit 76fbd0d (PR 18), the parent of the word-at-a-time kernels.
const GOLDEN_FRAMES: usize = 384;
const GOLDEN_RAW: usize = 0;
const GOLDEN_WIRE_LEN: usize = 2_442_625;
const GOLDEN_FNV1A64: u64 = 0x51cb_4de7_16a6_efa2;

// ---------------------------------------------------------------------
// Hostile bytes
// ---------------------------------------------------------------------

/// A container small enough to attack exhaustively (≈ 200 B) with every
/// kind of plane in it: literal, zero-run, mixed and byte-delta coded.
fn small_image() -> Vec<u8> {
    let mut payload = vec![7u8, 8, 9];
    for i in 0..48 {
        let v = if i % 12 < 4 {
            0.0
        } else {
            300.0 + (i as f64 * 0.37).sin()
        };
        payload.extend_from_slice(&v.to_le_bytes());
    }
    compress_payload(&payload).expect("the field shrinks")
}

/// Every prefix truncation and every single-bit flip of `image`.
fn mutations(image: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..image.len()).map(|cut| image[..cut].to_vec());
    let flips = (0..image.len() * 8).map(|bit| {
        let mut flipped = image.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    cuts.chain(flips)
}

#[test]
fn truncated_and_bit_flipped_images_are_typed_errors() {
    let image = small_image();
    let mut refused = 0;
    for hostile in mutations(&image) {
        // `Ok` is fine (a flipped literal is still a payload).
        refused += decompress_payload(&hostile).is_err() as usize;
    }
    assert!(refused >= image.len(), "every truncation is refused");
    assert_no_header_sized_allocation();
}

/// A peer that speaks the link protocol by hand — the handshake proposing
/// the Transpose codec, then whatever bytes it likes as compressed frames.
struct HostilePeer<'a> {
    node: &'a TcpTransport,
    endpoint: &'a str,
    link: Option<TcpStream>,
    next_link_id: u64,
}

impl HostilePeer<'_> {
    fn dial(&mut self) -> TcpStream {
        let mut stream = TcpStream::connect(self.node.local_addr()).expect("dial");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut hello = BytesMut::new();
        hello.put_u32_le(self.endpoint.len() as u32);
        hello.put_slice(self.endpoint.as_bytes());
        hello.put_u64_le(self.next_link_id);
        self.next_link_id += 1;
        let (mode, bits) = WireCompression::Transpose.to_wire();
        hello.put_u8(mode);
        hello.put_u8(bits);
        write_frame(&mut stream, &hello).expect("hello");
        let reply = read_frame(&mut stream, 1 << 16)
            .expect("reply")
            .expect("reply");
        assert_eq!(reply[0], 0, "the endpoint is bound");
        stream
    }

    /// Sends `image` as one compressed frame and a flush request behind
    /// it; whether the acceptor took the frame (it acknowledged) or closed
    /// the link on it.
    fn offer(&mut self, image: &[u8]) -> bool {
        let mut stream = self.link.take().unwrap_or_else(|| self.dial());
        let mut wire = (image.len() as u32 | 0x8000_0000).to_le_bytes().to_vec();
        wire.extend_from_slice(image);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut ack = [0u8; 9];
        let taken = stream.write_all(&wire).is_ok() && stream.read_exact(&mut ack).is_ok();
        if taken {
            assert_eq!(ack[0], 0xA5, "a cursor ack");
            self.link = Some(stream);
        }
        taken
    }
}

#[test]
fn a_compressed_link_refuses_hostile_images_and_the_node_lives_on() {
    let mut config = TcpTransportConfig::local();
    config.compression = WireCompression::Transpose;
    let node = TcpTransport::with_config(config).expect("node");
    let rx = node.bind("victim", 4);
    let mut peer = HostilePeer {
        node: &node,
        endpoint: "victim",
        link: None,
        next_link_id: 1,
    };

    let image = small_image();
    let payload = decompress_payload(&image).expect("valid");
    assert!(peer.offer(&image), "the untouched image is taken");
    assert_eq!(
        &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
        payload
    );

    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let arbitrary = (0..200).map(|_| {
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let len = next() as usize % 513;
        (0..len).map(|_| next() as u8).collect::<Vec<u8>>()
    });
    let (mut taken, mut refused) = (0, 0);
    for hostile in mutations(&image).chain(arbitrary) {
        // The link and the codec must agree on what is a payload.
        let expected = decompress_payload(&hostile);
        if peer.offer(&hostile) {
            let delivered = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert_eq!(Ok(&delivered[..]), expected.as_deref());
            taken += 1;
        } else {
            assert!(expected.is_err(), "a valid image closed its link");
            refused += 1;
        }
    }
    assert!(taken > 0 && refused > image.len());
    // No frame of a refused image reached the endpoint, and a well-behaved
    // link into the same node still works.
    assert!(rx.try_recv().is_err());
    let tx = node.connect("victim").expect("connect");
    tx.send(Bytes::from(payload.clone())).expect("send");
    assert_eq!(
        &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
        payload
    );
    assert_no_header_sized_allocation();
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_or_allocate_by_their_header(
        junk in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..513),
        claimed in 0u32..u32::MAX,
    ) {
        let _ = decompress_payload(&junk);
        // The same bytes behind a header of their own choosing.
        let mut framed = claimed.to_le_bytes().to_vec();
        framed.extend_from_slice(&junk);
        let _ = decompress_payload(&framed);
        assert_no_header_sized_allocation();
    }
}
