//! Hand-rolled little-endian binary (de)serialisation for trained
//! models — the `MODELS` section of the `.urlm` zero-copy model format.
//!
//! The dense halves of a packed model (vocabulary arena, weight
//! matrices) are mapped and *cast*, never parsed; the five interpreted
//! per-language models are small by comparison but structurally rich
//! (enums, sparse vectors), so they go through this explicit codec
//! instead. Every scalar is written little-endian; floats round-trip
//! **bit-exactly** via `to_le_bytes`/`from_le_bytes`, which is what
//! keeps a loaded model's interpreted scores identical to the trained
//! model's.
//!
//! The workspace deliberately vendors no binary-serde crate (the build
//! container has no crates.io access), and the format wants stability
//! independent of `serde` internals anyway: the byte layout below is
//! part of the `.urlm` format contract.

use std::fmt;

/// A decoding failure: the bytes do not describe a valid model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A structurally invalid value (bad tag, out-of-range index, …).
    Invalid {
        /// What invariant the bytes violated.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => {
                write!(f, "model bytes truncated while decoding {what}")
            }
            CodecError::Invalid { what } => write!(f, "invalid model bytes: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Has nothing been written yet?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the format is 64-bit on disk
    /// regardless of the host).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Append an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Append a length-prefixed `f64` slice.
    pub fn write_f64_slice(&mut self, v: &[f64]) {
        self.write_usize(v.len());
        self.buf.reserve(v.len() * 8);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// A checked little-endian byte cursor over a decoded section.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed? Decoders check this at the end so
    /// trailing garbage is rejected rather than silently ignored.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `u64` and convert to `usize`, rejecting values the host
    /// cannot address.
    pub fn read_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.read_u64(what)?).map_err(|_| CodecError::Invalid { what })
    }

    /// Read a length prefix that is about to size an allocation: beyond
    /// the remaining byte count it cannot possibly be honest, so reject
    /// it before `Vec::with_capacity` turns a flipped byte into an
    /// out-of-memory abort.
    pub fn read_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.read_usize(what)?;
        if len > self.remaining() {
            return Err(CodecError::Truncated { what });
        }
        Ok(len)
    }

    /// Read an `f64` bit-exactly.
    pub fn read_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a one-byte `bool`, rejecting anything but 0 / 1.
    pub fn read_bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.read_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what }),
        }
    }

    /// Read a length-prefixed `f64` vector.
    pub fn read_f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let len = self.read_len(what)?;
        let bytes = self.take(
            len.checked_mul(8).ok_or(CodecError::Invalid { what })?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

/// Test helper: encode `model` and decode it back, asserting that the
/// decoder consumed every byte and rebuilt a model that serialises to
/// the same JSON text. Returns the decoded model for score checks.
#[cfg(test)]
pub(crate) fn round_trip<T: serde::Serialize>(
    model: &T,
    write: fn(&T, &mut ByteWriter),
    read: fn(&mut ByteReader<'_>) -> Result<T, CodecError>,
) -> T {
    let mut w = ByteWriter::new();
    write(model, &mut w);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let back = read(&mut r).expect("decodes");
    assert!(r.is_exhausted(), "{} trailing bytes", r.remaining());
    assert_eq!(
        serde_json::to_string(model).unwrap(),
        serde_json::to_string(&back).unwrap()
    );
    back
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_u32(0xdead_beef);
        w.write_u64(u64::MAX - 1);
        w.write_usize(12345);
        w.write_f64(-0.0);
        w.write_f64(f64::MIN_POSITIVE);
        w.write_bool(true);
        w.write_f64_slice(&[1.5, -2.25, f64::MAX]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8("a").unwrap(), 7);
        assert_eq!(r.read_u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.read_u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.read_usize("d").unwrap(), 12345);
        assert_eq!(r.read_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_f64("f").unwrap(), f64::MIN_POSITIVE);
        assert!(r.read_bool("g").unwrap());
        assert_eq!(r.read_f64_vec("h").unwrap(), vec![1.5, -2.25, f64::MAX]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_and_invalid_inputs_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(
            r.read_u32("x").unwrap_err(),
            CodecError::Truncated { what: "x" }
        );
        let mut r = ByteReader::new(&[3]);
        assert_eq!(
            r.read_bool("flag").unwrap_err(),
            CodecError::Invalid { what: "flag" }
        );
        // A dishonest length prefix must not drive an allocation.
        let mut w = ByteWriter::new();
        w.write_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.read_f64_vec("weights"),
            Err(CodecError::Truncated { .. }) | Err(CodecError::Invalid { .. })
        ));
    }
}
