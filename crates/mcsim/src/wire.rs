//! A small, explicit, little-endian wire codec.
//!
//! The simulated machine moves raw bytes; this module gives the runtime
//! libraries a typed layer on top without pulling in a serialization
//! framework.  Everything is fixed-layout little-endian, with lengths for
//! variable-size values, so encode/decode round-trips are exact and cheap.

use std::marker::PhantomData;
use std::mem::{offset_of, size_of, size_of_val};

use crate::error::SimError;

/// Whether `T`'s in-memory bytes *are* its [`Wire::FIXED`] encoding, so a
/// slice of `T` crosses the wire as one byte copy.
///
/// Only this module says yes, and only for little-endian scalars, 64-bit
/// `usize` and tuples of such types whose fields sit in field order with
/// no padding (`size_of` / `offset_of!`, at compile time): every byte is
/// initialized and every bit pattern is a value, as the `unsafe` slice
/// casts in [`Wire`]'s provided methods need.  No impl elsewhere can claim
/// it: the flag is private, and an `AsBytes<U>` is not an `AsBytes<Self>`.
pub struct AsBytes<T>(bool, PhantomData<fn() -> T>);

impl<T> AsBytes<T> {
    const NO: Self = AsBytes(false, PhantomData);
}

/// Fields laid out back to back in field order, filling the whole record.
const fn packed(offsets: &[usize], sizes: &[usize], total: usize) -> bool {
    let (mut at, mut i) = (0, 0);
    while i < offsets.len() {
        if offsets[i] != at {
            return false;
        }
        at += sizes[i];
        i += 1;
    }
    at == total
}

/// Types that can be written to and read from a message payload.
pub trait Wire: Sized {
    /// `Some(n)` when *every* value of this type encodes to exactly `n > 0`
    /// bytes and every `n`-byte string decodes to a value — scalars and
    /// tuples of them.  Slices of such records take the bulk paths of
    /// [`Wire::write_slice`] / [`Wire::read_extend`] / [`Wire::read_slice`]:
    /// one reserve and one bounds check per *slice* instead of one per
    /// field, same bytes.  Anything holding a length or a discriminant
    /// (`Vec`, `String`, `Option`) or validating what it decodes stays
    /// `None`.
    const FIXED: Option<usize> = None;

    /// Whether a slice of this type is its own encoding (see [`AsBytes`]);
    /// set by this module's impls only.
    const AS_BYTES: AsBytes<Self> = AsBytes::NO;

    /// Append this value's encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);
    /// Decode a value from the reader.
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Decode from a complete buffer, requiring all bytes to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let mut r = WireReader::new(bytes);
        let v = Self::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Encode into `out`, which is exactly [`Wire::FIXED`] bytes long; the
    /// bytes are those [`Wire::write`] appends.  Only called on fixed-size
    /// types, which must override it.
    fn write_fixed(&self, _out: &mut [u8]) {
        unreachable!("write_fixed on a type whose FIXED is None")
    }

    /// Decode from exactly [`Wire::FIXED`] bytes — infallible, since every
    /// bit pattern of a fixed-size record is a value.  Only called on
    /// fixed-size types, which must override it.
    fn read_fixed(_bytes: &[u8]) -> Self {
        unreachable!("read_fixed on a type whose FIXED is None")
    }

    /// Append the encoding of every element of `slice` to `out`.
    ///
    /// The byte layout is identical to writing each element in turn.  A
    /// type whose bytes are its encoding ([`AsBytes`]: `f64` data payloads,
    /// `(u32, u32)` inspector records) is one `memcpy`; other fixed-size
    /// records are written into one pre-sized tail (no per-field capacity
    /// check).
    fn write_slice(slice: &[Self], out: &mut Vec<u8>) {
        if Self::AS_BYTES.0 {
            // SAFETY: `AS_BYTES` holds only for types with no padding, so
            // all `size_of_val(slice)` bytes behind the pointer are
            // initialized and borrowed for the lifetime of `slice`.
            let bytes = unsafe {
                std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), size_of_val(slice))
            };
            out.extend_from_slice(bytes);
            return;
        }
        match Self::FIXED {
            Some(size) => {
                let start = out.len();
                out.resize(start + slice.len() * size, 0);
                for (v, chunk) in slice.iter().zip(out[start..].chunks_exact_mut(size)) {
                    v.write_fixed(chunk);
                }
            }
            None => {
                for v in slice {
                    v.write(out);
                }
            }
        }
    }

    /// Decode `n` consecutive values, appending them to `out`.  Bulk
    /// counterpart of [`Wire::write_slice`]; same layout as `n` reads.
    fn read_extend(r: &mut WireReader<'_>, n: usize, out: &mut Vec<Self>) -> Result<(), SimError> {
        match Self::FIXED {
            Some(size) => {
                // Taking all bytes up front also guards allocation against
                // hostile lengths: the bytes must actually be present.
                let b = r.take_records(n, size)?;
                if Self::AS_BYTES.0 {
                    out.reserve(n);
                    // SAFETY: the reserved tail holds `n` records of
                    // `size == size_of::<Self>()` bytes, i.e. `b.len()`
                    // bytes; `b` is a different allocation; every bit
                    // pattern is a value of an `AS_BYTES` type, so the `n`
                    // new elements are initialized before `set_len`.
                    unsafe {
                        let tail = out.as_mut_ptr().add(out.len()).cast::<u8>();
                        std::ptr::copy_nonoverlapping(b.as_ptr(), tail, b.len());
                        out.set_len(out.len() + n);
                    }
                } else {
                    out.extend(b.chunks_exact(size).map(Self::read_fixed));
                }
            }
            None => {
                for _ in 0..n {
                    out.push(Self::read(r)?);
                }
            }
        }
        Ok(())
    }

    /// Decode `out.len()` consecutive values straight into an existing
    /// slice — the allocation-free counterpart of [`Wire::read_extend`],
    /// used to unpack message payloads directly into library storage.
    fn read_slice(r: &mut WireReader<'_>, out: &mut [Self]) -> Result<(), SimError> {
        match Self::FIXED {
            Some(size) => {
                let b = r.take_records(out.len(), size)?;
                if Self::AS_BYTES.0 {
                    // SAFETY: `out` spans `out.len() * size == b.len()`
                    // bytes (`size == size_of::<Self>()`), borrowed
                    // exclusively, and any bytes written are a valid value
                    // of an `AS_BYTES` type.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), b.len())
                    };
                    dst.copy_from_slice(b);
                } else {
                    for (slot, chunk) in out.iter_mut().zip(b.chunks_exact(size)) {
                        *slot = Self::read_fixed(chunk);
                    }
                }
            }
            None => {
                for slot in out.iter_mut() {
                    *slot = Self::read(r)?;
                }
            }
        }
        Ok(())
    }
}

/// Cursor over a received payload.
#[derive(Debug)]
pub struct WireReader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { rest: buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Take `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        let Some((s, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.short(n));
        };
        self.rest = rest;
        Ok(s)
    }

    /// Take the bytes of `n` records of `size` bytes each: the one bounds
    /// check of a bulk decode.
    #[inline]
    fn take_records(&mut self, n: usize, size: usize) -> Result<&'a [u8], SimError> {
        let total = n
            .checked_mul(size)
            .ok_or_else(|| SimError::Decode("element count overflows".into()))?;
        self.take(total)
    }

    /// The short-read error, kept out of line so [`WireReader::take`]
    /// inlines to a compare and a pointer bump.
    #[cold]
    #[inline(never)]
    fn short(&self, n: usize) -> SimError {
        SimError::Decode(format!("need {n} bytes, {} remain", self.remaining()))
    }

    /// Assert the payload was fully consumed.
    pub fn finish(&self) -> Result<(), SimError> {
        if self.remaining() != 0 {
            return Err(SimError::Decode(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

macro_rules! impl_wire_numeric {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const FIXED: Option<usize> = Some(size_of::<$t>());
            // The wire format is the little-endian in-memory layout.
            const AS_BYTES: AsBytes<Self> = AsBytes(cfg!(target_endian = "little"), PhantomData);

            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
                Ok(Self::read_fixed(r.take(size_of::<$t>())?))
            }
            #[inline]
            fn write_fixed(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_fixed(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("sized record"))
            }
        }
    )*};
}

impl_wire_numeric!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    const FIXED: Option<usize> = u64::FIXED;
    // Encoded as a `u64`: its own bytes only where it is one.
    const AS_BYTES: AsBytes<Self> =
        AsBytes(u64::AS_BYTES.0 && size_of::<usize>() == 8, PhantomData);

    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        (*self as u64).write(out);
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(u64::read(r)? as usize)
    }
    #[inline]
    fn write_fixed(&self, out: &mut [u8]) {
        (*self as u64).write_fixed(out);
    }
    #[inline]
    fn read_fixed(bytes: &[u8]) -> Self {
        u64::read_fixed(bytes) as usize
    }
}

impl Wire for bool {
    const FIXED: Option<usize> = Some(1);

    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(Self::read_fixed(r.take(1)?))
    }
    #[inline]
    fn write_fixed(&self, out: &mut [u8]) {
        out[0] = *self as u8;
    }
    #[inline]
    fn read_fixed(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

impl Wire for () {
    fn write(&self, _out: &mut Vec<u8>) {}
    fn read(_r: &mut WireReader<'_>) -> Result<Self, SimError> {
        Ok(())
    }
}

impl Wire for String {
    fn write(&self, out: &mut Vec<u8>) {
        self.len().write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let n = usize::read(r)?;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| SimError::Decode(e.to_string()))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        if let Some(size) = T::FIXED {
            out.reserve(8 + self.len() * size);
        }
        self.len().write(out);
        T::write_slice(self, out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let n = usize::read(r)?;
        // Guard against hostile/corrupt lengths blowing up allocation.
        let mut v = Vec::with_capacity(n.min(r.remaining().max(16)));
        T::read_extend(r, n, &mut v)?;
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => false.write(out),
            Some(v) => {
                true.write(out);
                v.write(out);
            }
        }
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        if bool::read(r)? {
            Ok(Some(T::read(r)?))
        } else {
            Ok(None)
        }
    }
}

/// Total size of a record whose fields have the given sizes: fixed only
/// when every field is.
const fn fixed_sum(fields: &[Option<usize>]) -> Option<usize> {
    let mut total = 0;
    let mut i = 0;
    while i < fields.len() {
        match fields[i] {
            Some(n) => total += n,
            None => return None,
        }
        i += 1;
    }
    Some(total)
}

macro_rules! impl_wire_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const FIXED: Option<usize> = fixed_sum(&[$($name::FIXED),+]);
            // Fields that are their own bytes, back to back in field
            // order with no padding: the record is its own bytes too.
            const AS_BYTES: AsBytes<Self> = AsBytes(
                $($name::AS_BYTES.0 &&)+ packed(
                    &[$(offset_of!(Self, $idx)),+],
                    &[$(size_of::<$name>()),+],
                    size_of::<Self>(),
                ),
                PhantomData,
            );

            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                $(self.$idx.write(out);)+
            }
            #[inline]
            fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
                Ok(($($name::read(r)?,)+))
            }
            #[inline]
            fn write_fixed(&self, out: &mut [u8]) {
                let mut at = 0;
                $(
                    let n = $name::FIXED.expect("fixed-size field");
                    self.$idx.write_fixed(&mut out[at..at + n]);
                    at += n;
                )+
                debug_assert_eq!(at, out.len());
            }
            #[inline]
            fn read_fixed(bytes: &[u8]) -> Self {
                let mut at = 0;
                let v = ($({
                    let n = $name::FIXED.expect("fixed-size field");
                    at += n;
                    $name::read_fixed(&bytes[at - n..at])
                },)+);
                debug_assert_eq!(at, bytes.len());
                v
            }
        }
    )*};
}

impl_wire_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn numeric_roundtrips() {
        roundtrip(0u8);
        roundtrip(0xfeedu16);
        roundtrip(123456789u32);
        roundtrip(u64::MAX);
        roundtrip(-5i32);
        roundtrip(-5_000_000_000i64);
        roundtrip(1.5f32);
        roundtrip(std::f64::consts::PI);
        roundtrip(usize::MAX / 2);
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip("hello Meta-Chaos".to_string());
        roundtrip(Some(vec![(1usize, 2.0f64), (3, 4.0)]));
        roundtrip(Option::<u32>::None);
        roundtrip(((1u8, 2u16, 3u32), vec![true, false]));
        roundtrip((1usize, 2usize, 3usize, vec![0.5f64]));
        roundtrip(());
        roundtrip(Vec::<f64>::new());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = 5u32.to_bytes();
        b.push(0);
        assert!(matches!(u32::from_bytes(&b), Err(SimError::Decode(_))));
    }

    #[test]
    fn short_read_rejected() {
        let b = 5u64.to_bytes();
        assert!(matches!(u64::from_bytes(&b[..3]), Err(SimError::Decode(_))));
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A Vec<u64> claiming usize::MAX elements with no bytes behind it
        // must fail cleanly, not OOM.
        let b = usize::MAX.to_bytes();
        assert!(Vec::<u64>::from_bytes(&b).is_err());
    }

    /// Bulk slice paths against the per-element codec, for one record type.
    fn bulk_matches_elementwise<T: Wire + Clone + Default + PartialEq + std::fmt::Debug>(
        vals: &[T],
    ) {
        let size = T::FIXED.expect("bulk paths take fixed-size records");
        let mut per_elem = Vec::new();
        for v in vals {
            v.write(&mut per_elem);
        }
        assert_eq!(per_elem.len(), vals.len() * size);
        // Encoding: same bytes, appended after whatever is already there.
        let mut bulk = vec![0xaa];
        T::write_slice(vals, &mut bulk);
        assert_eq!(&bulk[1..], &per_elem[..]);
        // Decoding: same values through every entry point, from an aligned
        // source and from one at an odd address (the one-copy paths must
        // not assume the payload is aligned for `T`).
        let mut shifted = vec![0xaa];
        shifted.extend_from_slice(&per_elem);
        assert_eq!(shifted[1..].as_ptr() as usize % 2, 1);
        for src in [&per_elem[..], &shifted[1..]] {
            let mut r = WireReader::new(src);
            let one_by_one: Vec<T> = (0..vals.len()).map(|_| T::read(&mut r).unwrap()).collect();
            r.finish().unwrap();
            assert_eq!(one_by_one, vals);
            let mut r = WireReader::new(src);
            let mut extended = Vec::new();
            T::read_extend(&mut r, vals.len(), &mut extended).unwrap();
            r.finish().unwrap();
            assert_eq!(extended, vals);
            let mut r = WireReader::new(src);
            let mut slots = vec![T::default(); vals.len()];
            T::read_slice(&mut r, &mut slots).unwrap();
            r.finish().unwrap();
            assert_eq!(slots, vals);
        }
        assert_eq!(
            Vec::<T>::from_bytes(&vals.to_vec().to_bytes()).unwrap(),
            vals
        );

        // Hostile inputs: one byte short, one byte over, an absurd count.
        let framed = vals.to_vec().to_bytes();
        let short = &framed[..framed.len() - 1];
        assert!(matches!(
            Vec::<T>::from_bytes(short),
            Err(SimError::Decode(_))
        ));
        let mut long = framed.clone();
        long.push(0);
        assert!(matches!(
            Vec::<T>::from_bytes(&long),
            Err(SimError::Decode(_))
        ));
        let mut r = WireReader::new(&per_elem);
        let mut sink = Vec::new();
        assert!(matches!(
            T::read_extend(&mut r, vals.len() + 1, &mut sink),
            Err(SimError::Decode(_))
        ));
        assert!(sink.is_empty(), "a failed bulk decode appends nothing");
        for count in [
            usize::MAX,
            usize::MAX / size,
            (usize::MAX / size).saturating_add(1),
        ] {
            let mut huge = count.to_bytes();
            huge.extend_from_slice(&per_elem);
            let mut r = WireReader::new(&huge);
            let got = Vec::<T>::read(&mut r);
            assert!(matches!(got, Err(SimError::Decode(_))), "count {count}");
            let mut sink: Vec<T> = Vec::new();
            let mut r = WireReader::new(&per_elem);
            assert!(T::read_extend(&mut r, count, &mut sink).is_err());
            assert_eq!(sink.capacity(), 0, "nothing reserved for count {count}");
        }
    }

    #[test]
    fn inspector_records_bulk_encode_like_per_element_writes() {
        // Every tuple shape the inspector and the Chaos table ship.
        let n = 37u32;
        let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i * 7 + 1, u32::MAX - i)).collect();
        bulk_matches_elementwise(&pairs);
        let placed: Vec<(usize, u32)> = (0..n)
            .map(|i| (usize::MAX - i as usize * 3, i ^ 0x55aa))
            .collect();
        bulk_matches_elementwise(&placed);
        let triples: Vec<(u32, u32, u32)> = (0..n).map(|i| (i, i * i, 7 - (i % 8))).collect();
        bulk_matches_elementwise(&triples);
        let quads: Vec<(u8, u16, f64, bool)> = (0..n)
            .map(|i| (i as u8, i as u16 * 9, i as f64 / 3.0, i % 2 == 0))
            .collect();
        bulk_matches_elementwise(&quads);
        bulk_matches_elementwise(&(0..n as usize).map(|i| i << 40).collect::<Vec<usize>>());
        bulk_matches_elementwise(&[true, false, true]);
        bulk_matches_elementwise(&[((1u8, 2u32), 3u64), ((4, 5), 6)]);
        // Plain `f64`, the data payload, and empty slices on the one-copy
        // and the per-record paths.
        bulk_matches_elementwise(&[1.5f64, -0.0, f64::MAX, f64::MIN_POSITIVE, 3e-310]);
        bulk_matches_elementwise::<f64>(&[]);
        bulk_matches_elementwise::<(usize, u32)>(&[]);
        assert_eq!(<(u32, u32)>::FIXED, Some(8));
        assert_eq!(<(usize, u32)>::FIXED, Some(12));
        assert_eq!(<(u32, u32, u32)>::FIXED, Some(12));
        assert_eq!(<(u8, u16, f64, bool)>::FIXED, Some(12));

        // Which shapes are their own encoding (one copy per slice): the
        // little-endian scalars, `usize`, and padding-free tuples of them.
        fn one_copy<T: Wire>() -> bool {
            T::AS_BYTES.0
        }
        let le = cfg!(target_endian = "little");
        for scalar in [one_copy::<u8>(), one_copy::<i64>(), one_copy::<f64>()] {
            assert_eq!(scalar, le);
        }
        assert_eq!(one_copy::<usize>(), le && size_of::<usize>() == 8);
        assert_eq!(one_copy::<(u32, u32)>(), le);
        assert_eq!(one_copy::<(u32, u32, u32)>(), le);
        assert_eq!(one_copy::<(usize, usize)>(), one_copy::<usize>());
        // Padding (inside or at the end), invalid bit patterns, lengths.
        for per_record in [
            one_copy::<(usize, u32)>(),
            one_copy::<(u64, u32)>(),
            one_copy::<((u8, u32), u64)>(),
            one_copy::<(u8, u16, f64, bool)>(),
            one_copy::<bool>(),
            one_copy::<(u32, bool)>(),
            one_copy::<Vec<u32>>(),
            one_copy::<Option<u64>>(),
        ] {
            assert!(!per_record);
        }
        // Both paths give the per-field codec's bytes (checked above for
        // every shape); a padded tuple whose padding bytes happen to hold
        // garbage still encodes only its fields.
        let padded = vec![(u64::MAX - 1, 7u32); 3];
        let mut per_field = Vec::new();
        for (a, b) in &padded {
            a.write(&mut per_field);
            b.write(&mut per_field);
        }
        assert_eq!(padded.to_bytes()[8..], per_field[..]);
    }

    #[test]
    fn variable_size_types_are_not_fixed() {
        assert_eq!(<Vec<u32>>::FIXED, None);
        assert_eq!(String::FIXED, None);
        assert_eq!(<Option<u32>>::FIXED, None);
        assert_eq!(<()>::FIXED, None);
        assert_eq!(<(u32, Vec<u8>)>::FIXED, None);
        assert_eq!(<(String, u32, u32)>::FIXED, None);
        assert_eq!(<(u32, u32, u32, Option<u8>)>::FIXED, None);
        assert_eq!(<((u32, String), u32)>::FIXED, None);
        // ...and still take the per-element path, header and all.
        roundtrip(vec![(1u32, vec![2u8, 3]), (4, vec![])]);
        roundtrip(vec![Some(1u32), None, Some(3)]);
        roundtrip(vec![(), ()]);
        let b = vec![(1u32, "x".to_string())].to_bytes();
        assert!(Vec::<(u32, String)>::from_bytes(&b[..b.len() - 1]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut b = Vec::new();
        2usize.write(&mut b);
        b.extend_from_slice(&[0xff, 0xfe]);
        assert!(String::from_bytes(&b).is_err());
    }
}
