//! Length-checked binary codec over [`bytes`].
//!
//! Melissa's wire format and checkpoint files use a fixed little-endian
//! binary layout (no serde format crate is whitelisted for this
//! reproduction, and a fixed layout is the HPC-realistic choice).  These
//! helpers wrap [`bytes::Buf`]/[`bytes::BufMut`] with explicit truncation
//! errors instead of panics.

use bytes::{Buf, BufMut};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A tag or invariant did not match.
    Invalid {
        /// Human-readable description.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated wire data while reading {what}"),
            WireError::Invalid { what } => write!(f, "invalid wire data: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoding.
pub type WireResult<T> = Result<T, WireError>;

macro_rules! get_prim {
    ($fn_name:ident, $ty:ty, $get:ident, $size:expr) => {
        /// Reads a little-endian primitive, checking remaining length.
        pub fn $fn_name<B: Buf>(buf: &mut B, what: &'static str) -> WireResult<$ty> {
            if buf.remaining() < $size {
                return Err(WireError::Truncated { what });
            }
            Ok(buf.$get())
        }
    };
}

get_prim!(get_u8, u8, get_u8, 1);
get_prim!(get_u16, u16, get_u16_le, 2);
get_prim!(get_u32, u32, get_u32_le, 4);
get_prim!(get_u64, u64, get_u64_le, 8);
get_prim!(get_f64, f64, get_f64_le, 8);

/// An 8-byte wire word (`f64` or `u64`) and its little-endian image.
pub trait LeWord: Copy {
    /// The value's little-endian bytes.
    fn to_le(self) -> [u8; 8];
    /// The value these little-endian bytes encode.
    fn from_le(bytes: [u8; 8]) -> Self;
}

macro_rules! le_word {
    ($ty:ty) => {
        impl LeWord for $ty {
            fn to_le(self) -> [u8; 8] {
                self.to_le_bytes()
            }

            fn from_le(bytes: [u8; 8]) -> Self {
                <$ty>::from_le_bytes(bytes)
            }
        }
    };
}

le_word!(f64);
le_word!(u64);

/// Words staged per `put_slice` call by the bulk slice writers: 4 KiB of
/// stack, so the staging copy stays in L1 and the sink sees a few large
/// appends instead of one per element.
const BULK_WORDS: usize = 512;

/// Appends `map` of each of `values` as little-endian words,
/// [`BULK_WORDS`] at a time (byte-identical to one `put_*_le` per
/// element, on any sink).
fn put_words<B: BufMut, T: LeWord>(buf: &mut B, values: &[T], map: impl Fn(T) -> T) {
    let mut staged = [[0u8; 8]; BULK_WORDS];
    for chunk in values.chunks(BULK_WORDS) {
        for (s, v) in staged.iter_mut().zip(chunk) {
            *s = map(*v).to_le();
        }
        buf.put_slice(staged[..chunk.len()].as_flattened());
    }
}

/// Copies `values` into `dst` as little-endian words — the fixed-offset
/// form of [`put_f64_slice`] / [`put_u64_slice`]'s payload, for writers
/// that fill a pre-sized buffer.  Compiles to a plain copy on
/// little-endian hosts.
///
/// # Panics
/// Panics unless `dst.len() == 8 * values.len()`.
pub fn copy_words_to_le<T: LeWord>(dst: &mut [u8], values: &[T]) {
    let (words, rest) = dst.as_chunks_mut::<8>();
    assert!(
        rest.is_empty() && words.len() == values.len(),
        "length mismatch"
    );
    for (w, v) in words.iter_mut().zip(values) {
        *w = v.to_le();
    }
}

/// Decodes `src` (little-endian words) into `dst` — the inverse of
/// [`copy_words_to_le`], for readers that fill storage they already own
/// (a plain copy on little-endian hosts).
///
/// # Panics
/// Panics unless `src.len() == 8 * dst.len()`.
pub fn copy_words_from_le<T: LeWord>(dst: &mut [T], src: &[u8]) {
    let (words, rest) = src.as_chunks::<8>();
    assert!(
        rest.is_empty() && words.len() == dst.len(),
        "length mismatch"
    );
    for (d, w) in dst.iter_mut().zip(words) {
        *d = T::from_le(*w);
    }
}

/// Decodes `src` (little-endian words) into an owned vector in one bulk
/// sweep, which optimises to a straight memcpy on little-endian hosts.
///
/// # Panics
/// Panics unless `src.len()` is a multiple of 8.
pub fn words_from_le<T: LeWord>(src: &[u8]) -> Vec<T> {
    let (words, rest) = src.as_chunks::<8>();
    assert!(rest.is_empty(), "length mismatch");
    words.iter().map(|w| T::from_le(*w)).collect()
}

/// Writes a `u64`-length-prefixed `f64` slice.
pub fn put_f64_slice<B: BufMut>(buf: &mut B, values: &[f64]) {
    put_f64_slice_map(buf, values, |v| v);
}

/// Writes `map` of each of `values` as a `u64`-length-prefixed `f64`
/// slice, in the one pass that encodes them — for a writer that rounds
/// or scales on the way out without a scratch copy of the field.
pub fn put_f64_slice_map<B: BufMut>(buf: &mut B, values: &[f64], map: impl Fn(f64) -> f64) {
    buf.put_u64_le(values.len() as u64);
    put_words(buf, values, map);
}

/// Reads a `u64`-length-prefixed `f64` vector with a sanity cap.
///
/// Copy-lean: when the remaining payload is one contiguous chunk (always
/// true for `Bytes` frames and byte slices), the values are decoded with
/// one bulk `from_le_bytes` sweep over the chunk — which optimises to a
/// straight memcpy on little-endian hosts — instead of `len` cursor
/// round-trips.  True *zero*-copy (borrowing the frame) is not possible
/// here: the result must own its storage as `Vec<f64>`, and the payload
/// sits at an arbitrary byte offset inside the frame, so its 8-byte
/// alignment is never guaranteed.  One aligned bulk copy is the floor.
pub fn get_f64_vec<B: Buf>(buf: &mut B, what: &'static str) -> WireResult<Vec<f64>> {
    let len = get_u64(buf, what)? as usize;
    if buf.remaining() < len.saturating_mul(8) {
        return Err(WireError::Truncated { what });
    }
    let chunk = buf.chunk();
    if chunk.len() >= len * 8 {
        let out = words_from_le(&chunk[..len * 8]);
        buf.advance(len * 8);
        return Ok(out);
    }
    // Fragmented buffer: fall back to the per-element cursor path.
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(buf.get_f64_le());
    }
    Ok(out)
}

/// Reads a `u64` count of records of at least `record_bytes` each and
/// rejects one the remaining bytes cannot hold — so a count from the wire
/// is bounded by the message before anything is sized by it.
pub fn get_count<B: Buf>(
    buf: &mut B,
    record_bytes: usize,
    what: &'static str,
) -> WireResult<usize> {
    let n = get_u64(buf, what)?;
    match usize::try_from(n) {
        Ok(n) if n <= buf.remaining() / record_bytes => Ok(n),
        _ => Err(WireError::Truncated { what }),
    }
}

/// Reads one counted array section: a `u64` length that must equal
/// `expect`, then `arrays × expect` 8-byte words, returned undecoded (for
/// [`words_from_le`]).  Sizes are checked arithmetic, so
/// an `expect` derived from untrusted fields cannot overflow.
pub fn get_words<'a>(
    buf: &mut &'a [u8],
    expect: usize,
    arrays: usize,
    what: &'static str,
) -> WireResult<&'a [u8]> {
    if get_u64(buf, what)? != expect as u64 {
        return Err(WireError::Invalid { what });
    }
    match expect.checked_mul(8).and_then(|n| n.checked_mul(arrays)) {
        Some(n_bytes) if n_bytes <= buf.len() => {
            let (words, rest) = buf.split_at(n_bytes);
            *buf = rest;
            Ok(words)
        }
        _ => Err(WireError::Truncated { what }),
    }
}

/// Writes a `u32`-length-prefixed UTF-8 string.
pub fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a `u32`-length-prefixed UTF-8 string.
pub fn get_str<B: Buf>(buf: &mut B, what: &'static str) -> WireResult<String> {
    let len = get_u32(buf, what)? as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated { what });
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| WireError::Invalid { what })
}

/// Writes one `u32`-length-prefixed frame to a byte stream (the wire
/// framing of every TCP protocol in this crate: data links and the
/// directory service alike).
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one `u32`-length-prefixed frame from a byte stream; `None` on a
/// clean EOF at a frame boundary.  `cap` bounds the accepted length so a
/// corrupt prefix cannot trigger a huge allocation.
pub fn read_frame<R: std::io::Read>(r: &mut R, cap: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > cap {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {cap}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes a `u64`-length-prefixed `u64` slice.
pub fn put_u64_slice<B: BufMut>(buf: &mut B, values: &[u64]) {
    buf.put_u64_le(values.len() as u64);
    put_words(buf, values, |v| v);
}

/// Reads a `u64`-length-prefixed `u64` vector.
pub fn get_u64_vec<B: Buf>(buf: &mut B, what: &'static str) -> WireResult<Vec<u64>> {
    let len = get_u64(buf, what)? as usize;
    if buf.remaining() < len.saturating_mul(8) {
        return Err(WireError::Truncated { what });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(buf.get_u64_le());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_u64_le(1 << 40);
        buf.put_f64_le(-2.5);
        let mut b = buf.freeze();
        assert_eq!(get_u8(&mut b, "a").unwrap(), 7);
        assert_eq!(get_u16(&mut b, "b").unwrap(), 300);
        assert_eq!(get_u32(&mut b, "c").unwrap(), 70_000);
        assert_eq!(get_u64(&mut b, "d").unwrap(), 1 << 40);
        assert_eq!(get_f64(&mut b, "e").unwrap(), -2.5);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut b = bytes::Bytes::from_static(&[1, 2, 3]);
        assert!(matches!(
            get_u64(&mut b, "x"),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn f64_slice_roundtrips() {
        let values = vec![1.0, -2.0, f64::MIN_POSITIVE, 1e300];
        let mut buf = BytesMut::new();
        put_f64_slice(&mut buf, &values);
        let mut b = buf.freeze();
        assert_eq!(get_f64_vec(&mut b, "v").unwrap(), values);
    }

    #[test]
    fn f64_vec_with_lying_length_is_truncated() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1000);
        buf.put_f64_le(1.0);
        let mut b = buf.freeze();
        assert!(matches!(
            get_f64_vec(&mut b, "v"),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "server/éç/0");
        let mut b = buf.freeze();
        assert_eq!(get_str(&mut b, "s").unwrap(), "server/éç/0");
    }

    #[test]
    fn invalid_utf8_is_invalid() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        let mut b = buf.freeze();
        assert!(matches!(
            get_str(&mut b, "s"),
            Err(WireError::Invalid { .. })
        ));
    }

    /// A sink that never holds more than three contiguous bytes.
    #[derive(Default)]
    struct Fragmented(Vec<Vec<u8>>);

    impl BufMut for Fragmented {
        fn put_slice(&mut self, src: &[u8]) {
            self.0.extend(src.chunks(3).map(<[u8]>::to_vec));
        }
    }

    /// The bulk writers emit exactly the bytes of one `put_*_le` per
    /// element — bit patterns a float copy could disturb included — on a
    /// contiguous and on a fragmented sink, across the staging boundary.
    #[test]
    fn bulk_slice_writers_match_the_per_element_form() {
        let specials = [
            f64::from_bits(0x7ff8_dead_beef_0001), // quiet NaN with payload
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_0000_0000_0000), // negative NaN
            -0.0,
            f64::from_bits(1), // smallest subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            1.5,
        ];
        for len in [
            0,
            1,
            7,
            BULK_WORDS - 1,
            BULK_WORDS,
            BULK_WORDS + 1,
            3 * BULK_WORDS + 5,
        ] {
            let floats: Vec<f64> = (0..len).map(|i| specials[i % specials.len()]).collect();
            let words: Vec<u64> = floats.iter().map(|v| v.to_bits() ^ 0x5555).collect();
            let mut want_f = BytesMut::new();
            let mut want_u = BytesMut::new();
            want_f.put_u64_le(len as u64);
            want_u.put_u64_le(len as u64);
            for (f, u) in floats.iter().zip(&words) {
                want_f.put_f64_le(*f);
                want_u.put_u64_le(*u);
            }
            let (mut got_f, mut got_u) = (BytesMut::new(), BytesMut::new());
            put_f64_slice(&mut got_f, &floats);
            put_u64_slice(&mut got_u, &words);
            assert_eq!(got_f, want_f, "f64 × {len}");
            assert_eq!(got_u, want_u, "u64 × {len}");
            let (mut frag_f, mut frag_u) = (Fragmented::default(), Fragmented::default());
            put_f64_slice(&mut frag_f, &floats);
            put_u64_slice(&mut frag_u, &words);
            assert_eq!(frag_f.0.concat(), &want_f[..], "fragmented f64 × {len}");
            assert_eq!(frag_u.0.concat(), &want_u[..], "fragmented u64 × {len}");
            // The fixed-offset forms and their decoders agree bit for bit.
            let mut fixed = vec![0u8; len * 8];
            copy_words_to_le(&mut fixed, &floats);
            assert_eq!(fixed, &want_f[8..]);
            let back = words_from_le::<f64>(&fixed);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&back), bits(&floats));
            let mut in_place = vec![0.0f64; len];
            copy_words_from_le(&mut in_place, &fixed);
            assert_eq!(bits(&in_place), bits(&floats));
            // The mapping writer is the plain one applied to mapped values.
            let halved: Vec<f64> = floats.iter().map(|v| v * 0.5).collect();
            let (mut mapped, mut plain) = (BytesMut::new(), BytesMut::new());
            put_f64_slice_map(&mut mapped, &floats, |v| v * 0.5);
            put_f64_slice(&mut plain, &halved);
            assert_eq!(mapped, plain, "mapped f64 × {len}");
            copy_words_to_le(&mut fixed, &words);
            assert_eq!(fixed, &want_u[8..]);
            assert_eq!(words_from_le::<u64>(&fixed), words);
        }
    }

    #[test]
    fn u64_slice_roundtrips() {
        let values = vec![0u64, 1, u64::MAX];
        let mut buf = BytesMut::new();
        put_u64_slice(&mut buf, &values);
        let mut b = buf.freeze();
        assert_eq!(get_u64_vec(&mut b, "v").unwrap(), values);
    }
}
