//! A compact, explicit binary codec for protocol messages.
//!
//! Table I of the paper reports bytes on the wire, so message sizes must
//! be well-defined: big integers are length-prefixed big-endian byte
//! strings, unsigned integers are LEB128 varints, floats are 8-byte IEEE
//! bit patterns.

use bytes::{BufMut, BytesMut};
use pem_bignum::BigUint;

use crate::error::NetError;

/// Serializes values into a byte buffer.
///
/// # Example
///
/// ```
/// use pem_net::wire::{WireReader, WireWriter};
/// use pem_bignum::BigUint;
///
/// let mut w = WireWriter::new();
/// w.put_varint(300);
/// w.put_biguint(&BigUint::from(123456789u64));
/// let bytes = w.finish();
///
/// let mut r = WireReader::new(&bytes);
/// assert_eq!(r.get_varint().unwrap(), 300);
/// assert_eq!(r.get_biguint().unwrap(), BigUint::from(123456789u64));
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Appends an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Appends an IEEE-754 double (8 bytes, big-endian bits).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix (a field whose size both
    /// ends know).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_raw(v);
    }

    /// Appends a big integer (length-prefixed big-endian magnitude).
    pub fn put_biguint(&mut self, v: &BigUint) {
        self.put_bytes(&v.to_bytes_be());
    }

    /// Current encoded size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes into the encoded byte vector.
    pub fn finish(self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// One frame: what `write` puts on a fresh writer.
    pub fn frame(write: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        write(&mut w);
        w.finish()
    }
}

/// Deserializes values written by [`WireWriter`].
#[derive(Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> WireReader<'a> {
        WireReader { data, pos: 0 }
    }

    fn fail(&self, what: &'static str) -> NetError {
        NetError::Decode {
            offset: self.pos,
            what,
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, NetError> {
        let b = *self.data.get(self.pos).ok_or_else(|| self.fail("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] at end of input or for a byte other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, NetError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.fail("bool")),
        }
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on truncation or overlong encoding.
    pub fn get_varint(&mut self) -> Result<u64, NetError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(self.fail("varint overflow"));
            }
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.fail("varint too long"));
            }
        }
    }

    /// Reads an IEEE-754 double.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, NetError> {
        if self.pos + 8 > self.data.len() {
            return Err(self.fail("f64"));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_be_bytes(b)))
    }

    /// Reads `len` raw bytes (no length prefix on the wire).
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on truncation.
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8], NetError> {
        if len > self.remaining() {
            return Err(self.fail("bytes"));
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads length-prefixed bytes.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on truncation.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], NetError> {
        let len = self.get_varint()? as usize;
        self.get_raw(len)
    }

    /// Reads a big integer.
    ///
    /// # Errors
    ///
    /// Propagates byte-string decode failures.
    pub fn get_biguint(&mut self) -> Result<BigUint, NetError> {
        Ok(BigUint::from_bytes_be(self.get_bytes()?))
    }

    /// `true` once all input is consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Ends a frame: every byte must have been read. A frame longer than
    /// its fields (an extra ciphertext, trailing garbage) is not the one
    /// its sender encoded.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] (`"trailing bytes"`, at the first unread
    /// offset) if input remains.
    pub fn finish(self) -> Result<(), NetError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.fail("trailing bytes"))
        }
    }

    /// Decodes the whole of `frame` with `read`, then
    /// [`finish`](Self::finish)es it: the frame must end where the value
    /// does.
    ///
    /// # Errors
    ///
    /// `read`'s errors, then [`NetError::Decode`] (`"trailing bytes"`).
    pub fn frame<T, E: From<NetError>>(
        frame: &'a [u8],
        read: impl FnOnce(&mut WireReader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut r = WireReader::new(frame);
        let value = read(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_varint().expect("decode"), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_sizes() {
        let size = |v: u64| {
            let mut w = WireWriter::new();
            w.put_varint(v);
            w.len()
        };
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn mixed_record_roundtrip() {
        let big = BigUint::from(0xDEADBEEFCAFEBABEu64) * BigUint::from(u64::MAX);
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_varint(42);
        w.put_f64(3.25);
        w.put_biguint(&big);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().expect("u8"), 7);
        assert!(r.get_bool().expect("bool"));
        assert_eq!(r.get_varint().expect("varint"), 42);
        assert_eq!(r.get_f64().expect("f64"), 3.25);
        assert_eq!(r.get_biguint().expect("biguint"), big);
        assert_eq!(r.get_bytes().expect("bytes"), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0u8; 100]);
        let mut bytes = w.finish();
        bytes.truncate(50);
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(NetError::Decode { .. })));
    }

    #[test]
    fn raw_bytes_roundtrip_and_hostile_lengths_are_decode_errors() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_raw(&[7, 8, 9]);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 4, "no length prefix");
        let mut r = WireReader::new(&bytes);
        r.get_u8().expect("u8");
        assert!(r.get_raw(4).is_err());
        assert_eq!(r.get_raw(3).expect("raw"), &[7, 8, 9]);
        // A length prefix of u64::MAX must not overflow the offset sum.
        let mut w = WireWriter::new();
        w.put_u8(0);
        w.put_varint(u64::MAX);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.get_u8().expect("u8");
        assert!(matches!(r.get_bytes(), Err(NetError::Decode { .. })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = WireWriter::new();
        w.put_f64(1.5);
        let mut bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.get_f64().expect("f64");
        assert!(r.finish().is_ok());
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        r.get_f64().expect("f64");
        assert!(matches!(
            r.finish(),
            Err(NetError::Decode {
                offset: 8,
                what: "trailing bytes"
            })
        ));
    }

    #[test]
    fn invalid_bool_detected() {
        let bytes = [9u8];
        let mut r = WireReader::new(&bytes);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn f64_special_values() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300] {
            let mut w = WireWriter::new();
            w.put_f64(v);
            let bytes = w.finish();
            assert_eq!(
                WireReader::new(&bytes).get_f64().expect("decode").to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn zero_biguint_roundtrip() {
        let mut w = WireWriter::new();
        w.put_biguint(&BigUint::zero());
        let bytes = w.finish();
        assert_eq!(bytes, vec![0]); // just the zero length prefix
        assert_eq!(
            WireReader::new(&bytes).get_biguint().expect("decode"),
            BigUint::zero()
        );
    }
}
