//! Bit-granular writer/reader backing the packed weight streams.
//!
//! DRAM moves whole bytes; the packing formats place mode fields and
//! variable-precision IDs at arbitrary bit offsets. `BitWriter` and
//! `BitReader` provide LSB-first bit packing over a `Vec<u64>` word store.

use crate::error::PackingError;
use serde::{Deserialize, Serialize};

/// Append-only bit-level writer (LSB-first within each 64-bit word).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitWriter {
    words: Vec<u64>,
    bit_len: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Appends the low `bits` bits of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::BitWidthTooLarge`] if `bits > 64`, or
    /// [`PackingError::InvalidStream`] if `value` does not fit in `bits`
    /// bits (a corrupted-encoder guard, not a data-dependent case).
    pub fn write(&mut self, value: u64, bits: u32) -> Result<(), PackingError> {
        if bits > 64 {
            return Err(PackingError::BitWidthTooLarge { bits });
        }
        if bits == 0 {
            return Ok(());
        }
        if bits < 64 && value >> bits != 0 {
            return Err(value_too_wide(value, bits));
        }
        let word_idx = (self.bit_len / 64) as usize;
        let bit_idx = (self.bit_len % 64) as u32;
        if word_idx == self.words.len() {
            self.words.push(0);
        }
        self.words[word_idx] |= value << bit_idx;
        let spill = bit_idx + bits;
        if spill > 64 {
            // The value straddles a word boundary.
            self.words.push(value >> (64 - bit_idx));
        } else if spill == 64 && word_idx + 1 == self.words.len() {
            // Exactly filled; next write allocates.
        }
        self.bit_len += u64::from(bits);
        Ok(())
    }

    /// Finalizes into an immutable stream.
    pub fn into_stream(self) -> BitStream {
        BitStream { words: self.words, bit_len: self.bit_len }
    }
}

/// The error [`BitWriter::write`] returns for a `value` wider than `bits`;
/// the packet counter returns the same one for an ID its writer would
/// reject.
pub(crate) fn value_too_wide(value: u64, bits: u32) -> PackingError {
    PackingError::InvalidStream { reason: format!("value {value} does not fit in {bits} bits") }
}

/// Immutable bit stream produced by a [`BitWriter`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitStream {
    words: Vec<u64>,
    bit_len: u64,
}

impl BitStream {
    /// Number of bits in the stream.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Size in whole bytes (rounded up), as it would occupy DRAM.
    pub fn byte_len(&self) -> u64 {
        self.bit_len.div_ceil(8)
    }

    /// Creates a cursor at the start of the stream.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { stream: self, pos: 0 }
    }
}

/// Cursor over a [`BitStream`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    stream: &'a BitStream,
    pos: u64,
}

impl BitReader<'_> {
    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.stream.bit_len - self.pos
    }

    /// Reads `bits` bits LSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::BitWidthTooLarge`] if `bits > 64` and
    /// [`PackingError::BitstreamOverrun`] past the end of the stream.
    pub fn read(&mut self, bits: u32) -> Result<u64, PackingError> {
        if bits > 64 {
            return Err(PackingError::BitWidthTooLarge { bits });
        }
        if bits == 0 {
            return Ok(0);
        }
        if u64::from(bits) > self.remaining() {
            return Err(PackingError::BitstreamOverrun {
                requested: bits,
                remaining: self.remaining(),
            });
        }
        let word_idx = (self.pos / 64) as usize;
        let bit_idx = (self.pos % 64) as u32;
        let lo = self.stream.words[word_idx] >> bit_idx;
        let value = if bit_idx + bits <= 64 {
            if bits == 64 {
                lo
            } else {
                lo & ((1u64 << bits) - 1)
            }
        } else {
            let hi = self.stream.words[word_idx + 1] << (64 - bit_idx);
            (lo | hi) & if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 }
        };
        self.pos += u64::from(bits);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let mut w = BitWriter::new();
        w.write(0b101, 3).unwrap();
        w.write(0xFF, 8).unwrap();
        w.write(0, 1).unwrap();
        let s = w.into_stream();
        assert_eq!(s.bit_len(), 12);
        assert_eq!(s.byte_len(), 2);
        let mut r = s.reader();
        assert_eq!(r.read(3).unwrap(), 0b101);
        assert_eq!(r.read(8).unwrap(), 0xFF);
        assert_eq!(r.read(1).unwrap(), 0);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn word_boundary_straddle() {
        let mut w = BitWriter::new();
        w.write(u64::MAX >> 4, 60).unwrap();
        w.write(0b1011, 4).unwrap();
        w.write(0x1234_5678_9ABC_DEF0, 64).unwrap();
        let s = w.into_stream();
        let mut r = s.reader();
        assert_eq!(r.read(60).unwrap(), u64::MAX >> 4);
        assert_eq!(r.read(4).unwrap(), 0b1011);
        assert_eq!(r.read(64).unwrap(), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn straddling_reads_across_words() {
        let mut w = BitWriter::new();
        w.write(0x7, 3).unwrap();
        w.write(0xABCD_EF01_2345_0000 >> 3, 61).unwrap();
        w.write(0x3FF, 10).unwrap();
        let s = w.into_stream();
        let mut r = s.reader();
        r.read(50).unwrap();
        // This read straddles the first/second word boundary.
        let v = r.read(20).unwrap();
        let _ = v;
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn overrun_is_detected() {
        let mut w = BitWriter::new();
        w.write(0b11, 2).unwrap();
        let s = w.into_stream();
        let mut r = s.reader();
        r.read(1).unwrap();
        let err = r.read(2).unwrap_err();
        assert_eq!(err, PackingError::BitstreamOverrun { requested: 2, remaining: 1 });
    }

    #[test]
    fn oversized_operations_rejected() {
        let mut w = BitWriter::new();
        assert!(matches!(w.write(0, 65), Err(PackingError::BitWidthTooLarge { .. })));
        assert!(matches!(w.write(0b100, 2), Err(PackingError::InvalidStream { .. })));
        let s = BitWriter::new().into_stream();
        assert!(matches!(s.reader().read(65), Err(PackingError::BitWidthTooLarge { .. })));
    }

    #[test]
    fn zero_bit_operations_are_noops() {
        let mut w = BitWriter::new();
        w.write(123, 0).unwrap();
        let s = w.into_stream();
        assert_eq!(s.bit_len(), 0);
        assert_eq!(s.reader().read(0).unwrap(), 0);
    }

    #[test]
    fn many_mixed_widths_round_trip() {
        let values: Vec<(u64, u32)> =
            (1..=64).map(|b| (0xDEAD_BEEF_CAFE_F00D_u64 >> (64 - b), b)).collect();
        let mut w = BitWriter::new();
        for &(v, b) in &values {
            w.write(v, b).unwrap();
        }
        let s = w.into_stream();
        let mut r = s.reader();
        for &(v, b) in &values {
            assert_eq!(r.read(b).unwrap(), v, "width {b}");
        }
    }
}
