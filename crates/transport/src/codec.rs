//! The fixed little-endian binary layout of Melissa's wire messages and
//! checkpoint files (no serde format crate is whitelisted for this
//! reproduction, and a fixed layout is the HPC-realistic choice): the
//! length-checked `get_*` helpers the checkpoint and the `Data` frame read
//! through, and the one [`Wire`] trait every control-plane message is
//! declared with.
//!
//! A [`Wire`] type [`put`](Wire::put)s itself into a [`BytesMut`] and
//! [`get`](Wire::get)s itself back off the front of a byte slice.  A
//! message is declared once, as its field list —
//! [`wire_struct!`](crate::wire_struct), or
//! [`wire_enum!`](crate::wire_enum) with the tag bytes written out — and
//! both directions follow from the layout rule of each field's type:
//!
//! | type | layout |
//! |---|---|
//! | `u8`, `u16`, `u32`, `u64`, `i64`, `f64` | little-endian word (every `f64` bit pattern, NaN payloads and `-0.0` included) |
//! | `usize` | as `u64`; a value that does not fit is an error on decode |
//! | `bool` | a `u8` that must be 0 or 1 |
//! | `String` | `u32` byte length, then UTF-8 |
//! | `PathBuf` | through `String` |
//! | `Duration` | `u64` nanoseconds |
//! | `Option<T>` | a `u8` flag that must be 0 or 1, then `T` if 1 |
//! | `(A, B)`, `(A, B, C)`, `Box<T>` | field by field |
//! | [`WireCompression`] | its handshake pair ([`WireCompression::to_wire`]) |
//! | `Vec<T>` | `u64` count, then the elements; `u8`, `u64` and `f64` elements as one bulk copy |
//! | [`Bytes`] | as `Vec<u8>` |
//! | `wire_struct!` | its fields in declaration order, after an optional `u32` schema |
//! | `wire_enum!` | one tag byte, then the variant's fields |
//!
//! **No count sizes an allocation.**  A `Vec<T>` count is checked against
//! the bytes left — at least [`Wire::MIN_LEN`] (or 1) per element
//! ([`get_count`]) — before anything is allocated, so a frame can only
//! make its decoder allocate in proportion to its own length.
//! [`Wire::from_frame`] decodes a whole frame, trailing bytes refused;
//! every failure is a [`WireError`] naming the field that broke.
//!
//! **A frame is allocated once.**  [`Wire::to_frame`] sizes its buffer by
//! [`Wire::wire_len`] before it writes, and [`Wire::from_shared`] decodes
//! the [`Bytes`] fields of a frame the caller owns as windows of it, so a
//! large byte field is neither regrown on the way out nor copied on the
//! way in.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Duration;

use bytes::{Buf, BufMut};
pub use bytes::{Bytes, BytesMut};

use crate::compress::WireCompression;

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
    /// A versioned layout written by another build.
    Schema {
        /// The versioned type.
        what: &'static str,
        /// The schema version the bytes carry.
        found: u32,
        /// The schema version this build reads.
        expected: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = |what: &'static str| if what.is_empty() { "a value" } else { what };
        match self {
            WireError::Truncated { what } => {
                write!(f, "truncated wire data while reading {}", name(what))
            }
            WireError::Invalid { what } => write!(f, "invalid wire data: {}", name(what)),
            WireError::Schema {
                what,
                found,
                expected,
            } => {
                write!(f, "{what} schema {found}, but this build reads {expected}")
            }
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

/// Appends `values` as little-endian words, [`BULK_WORDS`] at a time
/// (byte-identical to one `put_*_le` per element).
fn put_words<T: LeWord>(buf: &mut BytesMut, values: &[T]) {
    let mut staged = [[0u8; 8]; BULK_WORDS];
    for chunk in values.chunks(BULK_WORDS) {
        for (s, v) in staged.iter_mut().zip(chunk) {
            *s = v.to_le();
        }
        buf.put_slice(staged[..chunk.len()].as_flattened());
    }
}

/// Copies `values` into `dst` as little-endian words — the fixed-offset
/// form of a `Vec<f64>`'s or `Vec<u64>`'s payload, for writers that fill
/// a pre-sized buffer.  Compiles to a plain copy on little-endian hosts.
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
        Some(n_bytes) => take(buf, n_bytes).map_err(|_| WireError::Truncated { what }),
        None => Err(WireError::Truncated { what }),
    }
}

/// Splits the next `n` bytes off `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> WireResult<&'a [u8]> {
    if n > buf.len() {
        return Err(WireError::Truncated { what: "" });
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
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

/// A value with a fixed binary layout (see the [module docs](self) for
/// the rule of each type).
pub trait Wire: Sized {
    /// The fewest bytes any value encodes to: what bounds a decoded
    /// `Vec<Self>` count before it sizes anything.
    const MIN_LEN: usize;

    /// Appends the value.
    fn put(&self, buf: &mut BytesMut);

    /// The number of bytes [`put`](Self::put) appends.
    fn wire_len(&self) -> usize;

    /// Reads one value off the front of `buf`.
    fn get(buf: &mut &[u8]) -> WireResult<Self>;

    /// Appends the elements of a sequence (its count is already written);
    /// one by one unless the type has a bulk form.
    fn put_seq(items: &[Self], buf: &mut BytesMut) {
        for item in items {
            item.put(buf);
        }
    }

    /// Reads `n` elements of a sequence whose count [`get_count`] has
    /// already bounded by the bytes left.
    fn get_seq(buf: &mut &[u8], n: usize) -> WireResult<Vec<Self>> {
        (0..n).map(|_| Self::get(buf)).collect()
    }

    /// The value as one frame, allocated once at its exact size.
    fn to_frame(&self) -> Bytes {
        let len = self.wire_len();
        let mut buf = BytesMut::with_capacity(len);
        self.put(&mut buf);
        debug_assert_eq!(buf.len(), len, "wire_len disagrees with put");
        buf.freeze()
    }

    /// Decodes a whole frame: exactly one value, nothing trailing.
    fn from_frame(mut frame: &[u8]) -> WireResult<Self> {
        let value = Self::get(&mut frame)?;
        if !frame.is_empty() {
            return Err(WireError::Invalid {
                what: "trailing bytes",
            });
        }
        Ok(value)
    }

    /// Decodes a whole frame as [`from_frame`](Self::from_frame) does,
    /// but every [`Bytes`] field comes out as a window of `frame` — no
    /// copy, and the frame's one allocation lives as long as the last
    /// window does.
    fn from_shared(frame: &Bytes) -> WireResult<Self> {
        let _shared = SharedFrame::enter(frame);
        Self::from_frame(frame)
    }
}

thread_local! {
    /// The frame a [`Wire::from_shared`] on this thread is decoding.
    static SHARED: RefCell<Option<Bytes>> = const { RefCell::new(None) };
}

/// Holds [`SHARED`] for one decode, and gives back what it held before
/// (the frame of an enclosing decode) when dropped.
struct SharedFrame(Option<Bytes>);

impl SharedFrame {
    fn enter(frame: &Bytes) -> Self {
        Self(SHARED.replace(Some(frame.clone())))
    }
}

impl Drop for SharedFrame {
    fn drop(&mut self) {
        SHARED.set(self.0.take());
    }
}

/// `bytes` as a window of the frame being decoded when they lie inside
/// it, otherwise as a copy.
fn window(bytes: &[u8]) -> Bytes {
    SHARED
        .with_borrow(|frame| {
            let frame = frame.as_ref()?;
            let at = (bytes.as_ptr() as usize).checked_sub(frame.as_ptr() as usize)?;
            (at + bytes.len() <= frame.len()).then(|| frame.slice(at..at + bytes.len()))
        })
        .unwrap_or_else(|| Bytes::copy_from_slice(bytes))
}

/// Reads one field of a declared message, naming it in an error no field
/// nested deeper has named.
#[doc(hidden)]
pub fn get_field<T: Wire>(buf: &mut &[u8], field: &'static str) -> WireResult<T> {
    T::get(buf).map_err(|e| match e {
        WireError::Truncated { what: "" } => WireError::Truncated { what: field },
        WireError::Invalid { what: "" } => WireError::Invalid { what: field },
        named => named,
    })
}

/// [`Wire::MIN_LEN`] of the field `field` projects, for the declaration
/// macros, which know a field's name but not its type.
#[doc(hidden)]
pub const fn min_len_of<S, F: Wire>(_field: fn(&S) -> &F) -> usize {
    F::MIN_LEN
}

macro_rules! wire_int {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = size_of::<$ty>();

            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            fn wire_len(&self) -> usize {
                size_of::<$ty>()
            }

            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                $get(buf, "")
            }
        }
    )*};
}

wire_int! {
    u16 => put_u16_le, get_u16;
    u32 => put_u32_le, get_u32;
}

impl Wire for u8 {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }

    fn wire_len(&self) -> usize {
        1
    }

    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        get_u8(buf, "")
    }

    fn put_seq(items: &[Self], buf: &mut BytesMut) {
        buf.put_slice(items);
    }

    fn get_seq(buf: &mut &[u8], n: usize) -> WireResult<Vec<Self>> {
        take(buf, n).map(<[u8]>::to_vec)
    }
}

macro_rules! wire_word {
    ($($ty:ty => $get:ident),*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = 8;

            fn put(&self, buf: &mut BytesMut) {
                buf.put_slice(&LeWord::to_le(*self));
            }

            fn wire_len(&self) -> usize {
                8
            }

            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                $get(buf, "")
            }

            fn put_seq(items: &[Self], buf: &mut BytesMut) {
                put_words(buf, items);
            }

            fn get_seq(buf: &mut &[u8], n: usize) -> WireResult<Vec<Self>> {
                let bytes = n.checked_mul(8).ok_or(WireError::Truncated { what: "" })?;
                take(buf, bytes).map(words_from_le)
            }
        }
    )*};
}

wire_word!(u64 => get_u64, f64 => get_f64);

impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self.as_bytes());
    }

    fn wire_len(&self) -> usize {
        4 + self.len()
    }

    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let len = u32::get(buf)? as usize;
        String::from_utf8(take(buf, len)?.to_vec()).map_err(|_| WireError::Invalid { what: "" })
    }
}

/// Types laid out as another [`Wire`] type: `to` maps a value onto it,
/// `from` maps it back or refuses it.
macro_rules! wire_via {
    ($($ty:ty as $via:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = <$via>::MIN_LEN;

            fn put(&self, buf: &mut BytesMut) {
                let to: fn(&$ty) -> $via = $to;
                to(self).put(buf);
            }

            fn wire_len(&self) -> usize {
                let to: fn(&$ty) -> $via = $to;
                to(self).wire_len()
            }

            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                let from: fn($via) -> Option<$ty> = $from;
                from(<$via>::get(buf)?).ok_or(WireError::Invalid { what: "" })
            }
        }
    )*};
}

wire_via! {
    i64 as u64: |v| *v as u64, |w| Some(w as i64);
    usize as u64: |v| *v as u64, |w| usize::try_from(w).ok();
    bool as u8: |v| *v as u8, |b| (b <= 1).then_some(b == 1);
    Duration as u64: |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        |n| Some(Duration::from_nanos(n));
    PathBuf as String: |p| p.to_string_lossy().into_owned(), |s| Some(PathBuf::from(s));
    WireCompression as (u8, u8): |c| c.to_wire(),
        |(mode, bits)| Some(WireCompression::from_wire(mode, bits));
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }

    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::wire_len)
    }

    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        match bool::get(buf)? {
            true => T::get(buf).map(Some),
            false => Ok(None),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        (**self).put(buf);
    }

    fn wire_len(&self) -> usize {
        (**self).wire_len()
    }

    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        T::get(buf).map(Box::new)
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;

            fn put(&self, buf: &mut BytesMut) {
                $(self.$i.put(buf);)+
            }

            fn wire_len(&self) -> usize {
                0 $(+ self.$i.wire_len())+
            }

            fn get(buf: &mut &[u8]) -> WireResult<Self> {
                Ok(($($t::get(buf)?,)+))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;

    fn put(&self, buf: &mut BytesMut) {
        self.len().put(buf);
        T::put_seq(self, buf);
    }

    fn wire_len(&self) -> usize {
        8 + self.iter().map(T::wire_len).sum::<usize>()
    }

    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let n = get_count(buf, T::MIN_LEN.max(1), "")?;
        T::get_seq(buf, n)
    }
}

/// Laid out as `Vec<u8>`.  [`Wire::from_shared`] decodes it as a window
/// of the frame, [`Wire::from_frame`] as a copy.
impl Wire for Bytes {
    const MIN_LEN: usize = 8;

    fn put(&self, buf: &mut BytesMut) {
        self.len().put(buf);
        buf.put_slice(self);
    }

    fn wire_len(&self) -> usize {
        8 + self.len()
    }

    fn get(buf: &mut &[u8]) -> WireResult<Self> {
        let n = get_count(buf, 1, "")?;
        take(buf, n).map(window)
    }
}

/// Declares a struct's [`Wire`] layout as its field list:
/// `wire_struct!(Hello { name, link_id, compression })` writes the fields
/// in that order and reads them back into the struct, naming the field in
/// any error.  Every field must be listed (the struct literal of the
/// decoder does not compile otherwise).  An optional leading
/// `#[schema(VERSION)]` writes the `u32` `VERSION` first and refuses bytes
/// that carry another one with [`WireError::Schema`].
#[macro_export]
macro_rules! wire_struct {
    ($(#[schema($schema:expr)])? $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            const MIN_LEN: usize = 0
                $(+ { let _: u32 = $schema; 4 })?
                $(+ $crate::codec::min_len_of(|s: &$ty| &s.$field))*;

            fn put(&self, buf: &mut $crate::codec::BytesMut) {
                $($crate::codec::Wire::put(&($schema as u32), buf);)?
                $($crate::codec::Wire::put(&self.$field, buf);)*
            }

            fn wire_len(&self) -> usize {
                0 $(+ { let _: u32 = $schema; 4 })?
                    $(+ $crate::codec::Wire::wire_len(&self.$field))*
            }

            fn get(buf: &mut &[u8]) -> $crate::codec::WireResult<Self> {
                $(
                    let found: u32 = $crate::codec::get_field(buf, stringify!($ty))?;
                    if found != $schema {
                        return Err($crate::codec::WireError::Schema {
                            what: stringify!($ty),
                            found,
                            expected: $schema,
                        });
                    }
                )?
                Ok($ty {
                    $($field: $crate::codec::get_field(buf, stringify!($field))?),*
                })
            }
        }
    };
}

/// Declares an enum's [`Wire`] layout as one tag byte per variant and the
/// variant's field list:
/// `wire_enum!(Reply { 1 => Found { addr }, 2 => NotFound })`.  An unknown
/// tag is [`WireError::Invalid`].  A trailing `else (put, get, len)` hands
/// the variants the list leaves out to three functions of the caller's:
/// `put` and `len` get the value, `get` the bytes from the tag on.
#[macro_export]
macro_rules! wire_enum {
    (@other $ty:ident, $buf:ident, $frame:ident) => {
        return Err($crate::codec::WireError::Invalid {
            what: concat!("unknown ", stringify!($ty), " tag"),
        })
    };
    (@other $ty:ident, $buf:ident, $frame:ident, $get_other:path) => {{
        *$buf = $frame;
        return $get_other($buf);
    }};
    ($ty:ident {
        $($tag:literal => $var:ident $({ $($field:ident),* $(,)? })?),* $(,)?
    } $(else ($put_other:path, $get_other:path, $len_other:path))?) => {
        impl $crate::codec::Wire for $ty {
            const MIN_LEN: usize = 1;

            fn put(&self, buf: &mut $crate::codec::BytesMut) {
                match self {
                    $($ty::$var $({ $($field),* })? => {
                        $crate::codec::Wire::put(&($tag as u8), buf);
                        $($($crate::codec::Wire::put($field, buf);)*)?
                    })*
                    $(other => $put_other(other, buf),)?
                }
            }

            fn wire_len(&self) -> usize {
                match self {
                    $($ty::$var $({ $($field),* })? => {
                        1 $($(+ $crate::codec::Wire::wire_len($field))*)?
                    })*
                    $(other => $len_other(other),)?
                }
            }

            fn get(buf: &mut &[u8]) -> $crate::codec::WireResult<Self> {
                let _frame = *buf;
                Ok(match $crate::codec::get_field::<u8>(buf, stringify!($ty))? {
                    $($tag => $ty::$var $({
                        $($field: $crate::codec::get_field(buf, stringify!($field))?),*
                    })?,)*
                    _ => $crate::wire_enum!(@other $ty, buf, _frame $(, $get_other)?),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Vec::<f64>::from_frame(&values.to_frame()).unwrap(), values);
    }

    #[test]
    fn f64_vec_with_lying_length_is_truncated() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1000);
        buf.put_f64_le(1.0);
        assert!(matches!(
            Vec::<f64>::from_frame(&buf),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn strings_roundtrip() {
        let s = String::from("server/éç/0");
        assert_eq!(&s.to_frame()[..4], &13u32.to_le_bytes());
        assert_eq!(String::from_frame(&s.to_frame()), Ok(s));
    }

    #[test]
    fn invalid_utf8_is_invalid() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert!(matches!(
            String::from_frame(&buf),
            Err(WireError::Invalid { .. })
        ));
    }

    /// The bulk writers emit exactly the bytes of one `put_*_le` per
    /// element — bit patterns a float copy could disturb included —
    /// across the staging boundary.
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
            assert_eq!(&floats.to_frame()[..], &want_f[..], "f64 × {len}");
            assert_eq!(&words.to_frame()[..], &want_u[..], "u64 × {len}");
            // The fixed-offset forms and their decoders agree bit for bit.
            let mut fixed = vec![0u8; len * 8];
            copy_words_to_le(&mut fixed, &floats);
            assert_eq!(fixed, &want_f[8..]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let back = Vec::<f64>::from_frame(&want_f).unwrap();
            assert_eq!(bits(&back), bits(&floats));
            let mut in_place = vec![0.0f64; len];
            copy_words_from_le(&mut in_place, &fixed);
            assert_eq!(bits(&in_place), bits(&floats));
            copy_words_to_le(&mut fixed, &words);
            assert_eq!(fixed, &want_u[8..]);
            assert_eq!(words_from_le::<u64>(&fixed), words);
        }
    }

    #[test]
    fn u64_slice_roundtrips() {
        let values = vec![0u64, 1, u64::MAX];
        assert_eq!(Vec::<u64>::from_frame(&values.to_frame()).unwrap(), values);
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        id: u64,
        tag: Option<String>,
    }
    crate::wire_struct!(Pair { id, tag });

    const PAIRS: u32 = 3;

    #[derive(Debug, PartialEq)]
    struct Pairs {
        pairs: Vec<Pair>,
    }
    crate::wire_struct!(
        #[schema(PAIRS)]
        Pairs { pairs }
    );

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Span { from: u32, to: u32 },
    }
    crate::wire_enum!(Shape { 1 => Dot, 7 => Span { from, to } });

    #[test]
    fn declarations_lay_fields_out_in_order_and_name_the_one_that_broke() {
        let pairs = Pairs {
            pairs: vec![
                Pair { id: 9, tag: None },
                Pair {
                    id: 1,
                    tag: Some("é".into()),
                },
            ],
        };
        let frame = pairs.to_frame();
        let mut want = vec![3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        want.extend([9, 0, 0, 0, 0, 0, 0, 0, 0]);
        want.extend([1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0xc3, 0xa9]);
        assert_eq!(&frame[..], &want[..]);
        assert_eq!(Pairs::from_frame(&frame), Ok(pairs));
        assert_eq!(<Pairs as Wire>::MIN_LEN, 12);
        assert_eq!(<Pair as Wire>::MIN_LEN, 9);
        // A flag that is neither 0 nor 1, a cut string, another schema.
        want[20] = 2;
        assert_eq!(
            Pairs::from_frame(&want),
            Err(WireError::Invalid { what: "tag" })
        );
        want[20] = 0;
        assert_eq!(
            Pairs::from_frame(&want[..want.len() - 1]),
            Err(WireError::Truncated { what: "tag" })
        );
        want[0] = 4;
        assert_eq!(
            Pairs::from_frame(&want),
            Err(WireError::Schema {
                what: "Pairs",
                found: 4,
                expected: 3
            })
        );
        assert_eq!(
            &Shape::Span { from: 2, to: 5 }.to_frame()[..],
            &[7, 2, 0, 0, 0, 5, 0, 0, 0]
        );
        assert_eq!(Shape::from_frame(&[1]), Ok(Shape::Dot));
        assert_eq!(
            Shape::from_frame(&[1, 0]),
            Err(WireError::Invalid {
                what: "trailing bytes"
            })
        );
        assert_eq!(
            Shape::from_frame(&[2]),
            Err(WireError::Invalid {
                what: "unknown Shape tag"
            })
        );
    }

    /// A `Bytes` field is laid out as `Vec<u8>`; a shared decode hands
    /// out windows of the caller's frame, a plain one copies, and a
    /// shared decode nested in another restores the outer frame.
    #[test]
    fn byte_fields_decode_as_windows_of_a_shared_frame() {
        let blobs: Vec<Bytes> = vec![vec![1, 2, 3].into(), Bytes::new(), vec![9; 40].into()];
        let frame = blobs.to_frame();
        let as_vecs: Vec<Vec<u8>> = blobs.iter().map(|b| b.to_vec()).collect();
        assert_eq!(frame, as_vecs.to_frame());
        assert_eq!(blobs.wire_len(), frame.len());
        let inside = |b: &Bytes| {
            let at = b.as_ptr() as usize;
            at >= frame.as_ptr() as usize && at + b.len() <= frame.as_ptr() as usize + frame.len()
        };
        let shared = Vec::<Bytes>::from_shared(&frame).unwrap();
        assert_eq!(shared, blobs);
        assert!(inside(&shared[0]) && inside(&shared[2]));
        let copied = Vec::<Bytes>::from_frame(&frame).unwrap();
        assert_eq!(copied, blobs);
        assert!(!inside(&copied[0]) && !inside(&copied[2]));
        let outer = {
            let _outer = SharedFrame::enter(&frame);
            let inner = Bytes::from(vec![4, 0, 0, 0, 0, 0, 0, 0, 5, 6, 7, 8]);
            let nested = Bytes::from_shared(&inner).unwrap();
            assert_eq!(nested.as_ptr(), inner[8..].as_ptr());
            Vec::<Bytes>::from_frame(&frame).unwrap()
        };
        assert!(inside(&outer[2]));
        assert!(SHARED.with_borrow(Option::is_none));
    }

    #[test]
    fn counts_are_bounded_by_the_frame_before_anything_is_allocated() {
        // A count is held to the element's MIN_LEN, not to one byte: nine
        // `(String, u64)` pairs of at least 12 bytes do not fit in 100.
        let mut nine = BytesMut::new();
        9usize.put(&mut nine);
        nine.put_slice(&[0; 100]);
        assert!(matches!(
            Vec::<(String, u64)>::from_frame(&nine),
            Err(WireError::Truncated { .. })
        ));
        assert!(Vec::<Vec<u8>>::from_frame(&u64::MAX.to_le_bytes()).is_err());
    }
}
