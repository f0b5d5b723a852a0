//! Packet formats: naive packing and packet-specific encoding precision
//! (§5.2, Fig. 4b of the paper), plus the [`PackedWeights`] container that
//! ties the whole pipeline together.
//!
//! Both formats move fixed-size packets (a mode field plus a
//! `payload_bits`-wide payload — one DRAM word group):
//!
//! * **Naive packing** gives every packet the same uniform precision
//!   `max_id_bits = ⌈log₂(#unique)⌉` and needs no mode field. Low-valued IDs
//!   waste bits — the inefficiency Fig. 4b calls out.
//! * **Packet-specific packing** prefixes each packet with a mode field that
//!   selects an exact per-packet precision (as in the paper's example, where
//!   packets carry 2-bit or 3-bit IDs). A packet at precision `p` carries
//!   `⌊payload / p⌋` IDs; the encoder greedily picks the precision that packs
//!   the most upcoming IDs into the next packet.
//!
//! Frequency-aware re-indexing reuses the packet-specific encoder on a
//! re-indexed ID stream (see [`crate::reindex`]).
//!
//! The format makes two decisions: the frequency-aware ID order and each
//! packet's precision. Each lives in one function, which both the writer
//! ([`PackedWeights::from_decomposition`]) and the counter
//! ([`PackedMeta::count`]) call, so sizes counted without writing a bit
//! equal the sizes of the written stream.

use crate::bits_for_ids;
use crate::bitstream::{value_too_wide, BitStream, BitWriter};
use crate::chunk::{decompose_with, reconstruct, ChunkConfig, EncodedMatrix, UniqueMatrix};
use crate::error::PackingError;
use crate::reindex::{frequency_order, frequency_reindex};
use meadow_tensor::parallel::ExecConfig;
use meadow_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// The three optimization levels of §5 (each subsumes the previous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PackingLevel {
    /// Indexing + uniform-precision packet packing.
    Naive,
    /// Indexing + packet-specific encoding precision.
    PacketSpecific,
    /// Frequency-aware re-indexing + packet-specific encoding precision.
    FrequencyAware,
}

impl PackingLevel {
    /// All levels, in increasing optimization order.
    pub fn all() -> [PackingLevel; 3] {
        [PackingLevel::Naive, PackingLevel::PacketSpecific, PackingLevel::FrequencyAware]
    }

    /// Bits per packet at this level for IDs of up to `max_id_bits` bits:
    /// the mode field plus the configured payload. This is
    /// [`PackedMeta::packet_bits`] for any stream packed at this level.
    pub fn packet_bits(self, max_id_bits: u32, config: &PackingConfig) -> u32 {
        self.mode_bits(max_id_bits) + config.payload_bits
    }

    /// Mode-field width: naive packets share one precision and carry no
    /// mode field; the other levels select one of `max_id_bits` precisions.
    fn mode_bits(self, max_id_bits: u32) -> u32 {
        match self {
            PackingLevel::Naive => 0,
            PackingLevel::PacketSpecific | PackingLevel::FrequencyAware => {
                bits_for_ids(max_id_bits as usize)
            }
        }
    }
}

/// Configuration shared by all packing levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackingConfig {
    /// Chunk decomposition parameters.
    pub chunk: ChunkConfig,
    /// Packet payload width in bits (two DRAM words, 128, by default).
    pub payload_bits: u32,
}

impl Default for PackingConfig {
    fn default() -> Self {
        Self { chunk: ChunkConfig::default(), payload_bits: 128 }
    }
}

/// Bits needed to represent the single value `v` (minimum 1).
pub(crate) fn bits_needed(v: u32) -> u32 {
    (32 - v.leading_zeros()).max(1)
}

/// Stream-level metadata needed to decode a packed weight stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedMeta {
    /// Weight-matrix rows.
    pub rows: usize,
    /// Chunks per row.
    pub chunk_cols: usize,
    /// Elements per chunk.
    pub chunk_elems: usize,
    /// Number of unique chunks.
    pub unique_count: usize,
    /// Uniform ID precision (`⌈log₂(unique_count)⌉`, min 1).
    pub max_id_bits: u32,
    /// Packet payload width in bits.
    pub payload_bits: u32,
    /// Mode-field width in bits (0 for naive packing).
    pub mode_bits: u32,
    /// Total number of IDs in the stream.
    pub total_ids: usize,
    /// Number of packets emitted.
    pub packets: u64,
}

impl PackedMeta {
    /// Total bits per packet (mode field + payload).
    pub fn packet_bits(&self) -> u32 {
        self.mode_bits + self.payload_bits
    }

    /// Length of the packed ID stream in bits: every packet, the last one
    /// included, is exactly [`packet_bits`](Self::packet_bits) long.
    pub fn stream_bits(&self) -> u64 {
        self.packets * u64::from(self.packet_bits())
    }

    /// The metadata [`PackedWeights::from_decomposition`] produces for a
    /// table of `unique_count` chunks and `encoded`, without building the
    /// packing. The frequency-aware level computes its ID order and remaps
    /// the IDs but permutes no table, and packets are counted through the
    /// writer's own precision decision instead of being written.
    ///
    /// # Errors
    ///
    /// The error `from_decomposition` returns for the same input:
    /// [`PackingError::PayloadTooNarrow`], or [`PackingError::InvalidStream`]
    /// for an ID outside `0..unique_count` at the frequency-aware level or
    /// wider than [`max_id_bits`](Self::max_id_bits) at any level.
    pub fn count(
        unique_count: usize,
        encoded: &EncodedMatrix,
        config: &PackingConfig,
        level: PackingLevel,
    ) -> Result<Self, PackingError> {
        let reindexed;
        let encoded = if level == PackingLevel::FrequencyAware {
            reindexed = encoded.remapped(&frequency_order(unique_count, encoded.ids())?)?;
            &reindexed
        } else {
            encoded
        };
        let max_id_bits = id_bits(unique_count, config)?;
        let mut packets = 0;
        for packet in Packets::new(encoded.ids(), level, max_id_bits, config.payload_bits) {
            packet?;
            packets += 1;
        }
        Ok(Self::new(encoded, unique_count, max_id_bits, config, level, packets))
    }

    fn new(
        encoded: &EncodedMatrix,
        unique_count: usize,
        max_id_bits: u32,
        config: &PackingConfig,
        level: PackingLevel,
        packets: u64,
    ) -> Self {
        Self {
            rows: encoded.rows(),
            chunk_cols: encoded.chunk_cols(),
            chunk_elems: encoded.chunk_elems(),
            unique_count,
            max_id_bits,
            payload_bits: config.payload_bits,
            mode_bits: level.mode_bits(max_id_bits),
            total_ids: encoded.len(),
            packets,
        }
    }
}

/// A fully packed weight matrix: unique matrix + packed ID stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedWeights {
    level: PackingLevel,
    unique: UniqueMatrix,
    stream: BitStream,
    meta: PackedMeta,
}

impl PackedWeights {
    /// Packs a weight matrix at the requested optimization level.
    ///
    /// # Errors
    ///
    /// Returns chunking errors for indivisible dimensions and
    /// [`PackingError::PayloadTooNarrow`] if a single maximum-precision ID
    /// does not fit in the configured payload.
    pub fn pack(
        w: &Matrix<i8>,
        config: &PackingConfig,
        level: PackingLevel,
    ) -> Result<Self, PackingError> {
        Self::pack_with(w, config, level, &ExecConfig::serial())
    }

    /// [`PackedWeights::pack`] with caller-chosen parallelism for the chunk
    /// decomposition (the dominant cost of packing). The packed result is
    /// bit-identical for every thread count because
    /// [`decompose_with`] preserves the serial first-occurrence ID order.
    ///
    /// # Errors
    ///
    /// Same as [`PackedWeights::pack`].
    pub fn pack_with(
        w: &Matrix<i8>,
        config: &PackingConfig,
        level: PackingLevel,
        exec: &ExecConfig,
    ) -> Result<Self, PackingError> {
        let (unique, encoded) = decompose_with(w, config.chunk, exec)?;
        Self::from_decomposition(unique, encoded, config, level)
    }

    /// Packs an existing decomposition (used by synthetic generators and by
    /// ablations that control the indexing separately). The
    /// frequency-aware level performs its re-indexing here.
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::PayloadTooNarrow`] if `payload_bits` cannot
    /// hold one maximum-precision ID, and [`PackingError::InvalidStream`]
    /// for an ID outside the table at the frequency-aware level or wider
    /// than the ID precision at any level.
    pub fn from_decomposition(
        unique: UniqueMatrix,
        encoded: EncodedMatrix,
        config: &PackingConfig,
        level: PackingLevel,
    ) -> Result<Self, PackingError> {
        let (unique, encoded) = if level == PackingLevel::FrequencyAware {
            let r = frequency_reindex(&unique, &encoded)?;
            (r.unique, r.encoded)
        } else {
            (unique, encoded)
        };
        let max_id_bits = id_bits(unique.len(), config)?;
        let mode_bits = level.mode_bits(max_id_bits);
        let mut w = BitWriter::new();
        let mut packets = 0;
        for packet in Packets::new(encoded.ids(), level, max_id_bits, config.payload_bits) {
            let (precision, ids) = packet?;
            // A zero-width write, and so a no-op, for naive packets.
            w.write(u64::from(precision - 1), mode_bits)?;
            write_padded(&mut w, ids, precision, config.payload_bits)?;
            packets += 1;
        }
        let meta = PackedMeta::new(&encoded, unique.len(), max_id_bits, config, level, packets);
        Ok(Self { level, unique, stream: w.into_stream(), meta })
    }

    /// Stream metadata.
    pub fn meta(&self) -> &PackedMeta {
        &self.meta
    }

    /// The (possibly re-indexed) unique matrix.
    pub fn unique(&self) -> &UniqueMatrix {
        &self.unique
    }

    /// The packed ID stream.
    pub(crate) fn stream(&self) -> &BitStream {
        &self.stream
    }

    /// Decodes the packed stream back to chunk IDs (the MAU datapath).
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::InvalidStream`] or bitstream errors for
    /// corrupted streams.
    pub fn decode_ids(&self) -> Result<Vec<u32>, PackingError> {
        match self.level {
            PackingLevel::Naive => decode_naive(&self.stream, &self.meta),
            PackingLevel::PacketSpecific | PackingLevel::FrequencyAware => {
                decode_packets(&self.stream, &self.meta)
            }
        }
    }

    /// Reconstructs the exact original weight matrix (MAU decode + unique
    /// matrix lookup — the full WILU path).
    ///
    /// # Errors
    ///
    /// Propagates decode errors; returns [`PackingError::InvalidStream`] if
    /// an ID is out of table range.
    pub fn unpack(&self) -> Result<Matrix<i8>, PackingError> {
        let ids = self.decode_ids()?;
        let encoded = EncodedMatrix::from_parts(
            ids,
            self.meta.rows,
            self.meta.chunk_cols,
            self.meta.chunk_elems,
        );
        reconstruct(&self.unique, &encoded)
    }

    /// Raw (unpacked) weight size in bits.
    pub fn raw_bits(&self) -> u64 {
        (self.meta.rows * self.meta.chunk_cols * self.meta.chunk_elems) as u64 * 8
    }

    /// Total packed size in bits: ID stream plus the unique matrix, both of
    /// which must cross the DRAM channel.
    pub fn packed_bits(&self) -> u64 {
        self.stream.bit_len() + self.unique.size_bytes() * 8
    }

    /// Total bytes transferred from DRAM for this matrix.
    pub fn transfer_bytes(&self) -> u64 {
        self.stream.byte_len() + self.unique.size_bytes()
    }

    /// Compression ratio `raw / packed` (> 1 is a win).
    pub fn compression_ratio(&self) -> f64 {
        let packed = self.packed_bits();
        if packed == 0 {
            return 1.0;
        }
        self.raw_bits() as f64 / packed as f64
    }
}

fn write_padded(
    w: &mut BitWriter,
    ids: &[u32],
    precision: u32,
    payload_bits: u32,
) -> Result<(), PackingError> {
    let mut used = 0;
    for &id in ids {
        w.write(u64::from(id), precision)?;
        used += precision;
    }
    let mut pad = payload_bits - used;
    while pad > 0 {
        let step = pad.min(64);
        w.write(0, step)?;
        pad -= step;
    }
    Ok(())
}

fn skip_padding(
    r: &mut crate::bitstream::BitReader<'_>,
    used: u32,
    payload_bits: u32,
) -> Result<(), PackingError> {
    let mut pad = payload_bits - used;
    while pad > 0 {
        let step = pad.min(64);
        r.read(step)?;
        pad -= step;
    }
    Ok(())
}

fn decode_naive(stream: &BitStream, meta: &PackedMeta) -> Result<Vec<u32>, PackingError> {
    let cap = (meta.payload_bits / meta.max_id_bits) as usize;
    let mut r = stream.reader();
    let mut ids = Vec::with_capacity(meta.total_ids);
    while ids.len() < meta.total_ids {
        let take = cap.max(1).min(meta.total_ids - ids.len());
        let mut used = 0;
        for _ in 0..take {
            ids.push(r.read(meta.max_id_bits)? as u32);
            used += meta.max_id_bits;
        }
        skip_padding(&mut r, used, meta.payload_bits)?;
    }
    Ok(ids)
}

/// The uniform ID precision for `unique_count` chunks, which one packet
/// payload must hold.
fn id_bits(unique_count: usize, config: &PackingConfig) -> Result<u32, PackingError> {
    let max_id_bits = bits_for_ids(unique_count);
    if config.payload_bits < max_id_bits {
        return Err(PackingError::PayloadTooNarrow {
            payload_bits: config.payload_bits,
            required_bits: max_id_bits,
        });
    }
    Ok(max_id_bits)
}

/// The format's packet decision, shared by the writer and the counter:
/// splits an ID stream into packets in stream order, yielding each
/// packet's precision and IDs.
///
/// A packet at precision `p` holds the next `⌊payload / p⌋` IDs, or the
/// rest of the stream if fewer remain. Naive packets all take `max_bits`.
/// A packet-specific packet takes the smallest precision whose window of
/// IDs all fit in it, which also packs the most IDs, and `max_bits` when
/// none does. An ID wider than `max_bits` ends the stream with the error
/// [`BitWriter::write`] would return for it.
struct Packets<'a> {
    ids: &'a [u32],
    /// The narrowest precision a packet may take.
    floor: u32,
    max_bits: u32,
    payload_bits: u32,
}

impl<'a> Packets<'a> {
    fn new(ids: &'a [u32], level: PackingLevel, max_bits: u32, payload_bits: u32) -> Self {
        let floor = if level == PackingLevel::Naive { max_bits } else { 1 };
        Self { ids, floor, max_bits, payload_bits }
    }
}

impl<'a> Iterator for Packets<'a> {
    type Item = Result<(u32, &'a [u32]), PackingError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.ids.is_empty() {
            return None;
        }
        let (ids, payload_bits) = (self.ids, self.payload_bits);
        let window = |p: u32| ((payload_bits / p) as usize).min(ids.len());
        // Feasible precisions are upward-closed: a wider precision's window
        // is a prefix of a narrower one's. One forward pass therefore finds
        // the narrowest, keeping every ID before `i` within `p` bits. An ID
        // that does not fit raises `p` one step at a time, because a wider
        // precision's shorter window may end before that ID: jumping
        // straight to the ID's width would overshoot.
        let mut p = self.floor;
        let mut end = window(p);
        let mut i = 0;
        while i < end {
            let need = bits_needed(ids[i]);
            while need > p && i < end {
                if p == self.max_bits {
                    self.ids = &[];
                    return Some(Err(value_too_wide(u64::from(ids[i]), p)));
                }
                p += 1;
                end = window(p);
            }
            i += 1;
        }
        let (packet, rest) = ids.split_at(end);
        self.ids = rest;
        Some(Ok((p, packet)))
    }
}

fn decode_packets(stream: &BitStream, meta: &PackedMeta) -> Result<Vec<u32>, PackingError> {
    let mut r = stream.reader();
    let mut ids = Vec::with_capacity(meta.total_ids);
    while ids.len() < meta.total_ids {
        let p = r.read(meta.mode_bits)? as u32 + 1;
        if p > meta.max_id_bits {
            return Err(PackingError::InvalidStream {
                reason: format!("packet precision {p} exceeds max {}", meta.max_id_bits),
            });
        }
        let cap = (meta.payload_bits / p) as usize;
        let take = cap.min(meta.total_ids - ids.len());
        let mut used = 0;
        for _ in 0..take {
            ids.push(r.read(p)? as u32);
            used += p;
        }
        skip_padding(&mut r, used, meta.payload_bits)?;
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_with_skew() -> Matrix<i8> {
        // 64 chunks of [0,0] and a few rare chunks: heavy skew.
        let mut rows = Vec::new();
        for r in 0..8 {
            let mut row = vec![0i8; 16];
            if r == 7 {
                row[14] = 100;
                row[15] = 101;
            }
            if r == 6 {
                row[12] = 50;
                row[13] = 51;
            }
            rows.push(row);
        }
        let refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn ladder_shapes() {
        // The mode field selects one of the `max_id_bits` precisions
        // 1..=max_id_bits; naive packets have no ladder and no mode field.
        let config = PackingConfig::default();
        for (max_bits, mode) in [(1, 1), (2, 1), (3, 2), (8, 3), (11, 4)] {
            assert_eq!(PackingLevel::PacketSpecific.packet_bits(max_bits, &config), mode + 128);
            assert_eq!(PackingLevel::FrequencyAware.packet_bits(max_bits, &config), mode + 128);
            assert_eq!(PackingLevel::Naive.packet_bits(max_bits, &config), 128);
        }
    }

    #[test]
    fn bits_needed_values() {
        assert_eq!(bits_needed(0), 1);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 3);
        assert_eq!(bits_needed(1271), 11);
    }

    #[test]
    fn all_levels_round_trip() {
        let w = matrix_with_skew();
        for level in PackingLevel::all() {
            let packed = PackedWeights::pack(&w, &PackingConfig::default(), level).unwrap();
            assert_eq!(packed.unpack().unwrap(), w, "level {level:?}");
        }
    }

    #[test]
    fn levels_improve_monotonically_on_skewed_data() {
        let w = matrix_with_skew();
        let cfg = PackingConfig::default();
        let naive = PackedWeights::pack(&w, &cfg, PackingLevel::Naive).unwrap();
        let pkt = PackedWeights::pack(&w, &cfg, PackingLevel::PacketSpecific).unwrap();
        let freq = PackedWeights::pack(&w, &cfg, PackingLevel::FrequencyAware).unwrap();
        assert!(pkt.compression_ratio() >= naive.compression_ratio() * 0.95);
        assert!(freq.compression_ratio() >= pkt.compression_ratio() * 0.95);
        assert!(naive.compression_ratio() > 1.0);
    }

    #[test]
    fn payload_too_narrow_is_detected() {
        // 4096+ distinct chunk pairs → 13-bit IDs > 8-bit payload.
        let vals: Vec<i8> = (0..=127).collect();
        let mut rows = Vec::new();
        for a in 0..64 {
            let mut row = Vec::new();
            for b in 0..64 {
                row.push(vals[a]);
                row.push(vals[b]);
            }
            rows.push(row);
        }
        let refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        let w = Matrix::from_rows(&refs).unwrap();
        let cfg = PackingConfig { payload_bits: 8, ..PackingConfig::default() };
        assert!(matches!(
            PackedWeights::pack(&w, &cfg, PackingLevel::PacketSpecific),
            Err(PackingError::PayloadTooNarrow { .. })
        ));
    }

    #[test]
    fn uniform_matrix_packs_tiny() {
        let w = Matrix::<i8>::filled(32, 32, 5);
        let packed =
            PackedWeights::pack(&w, &PackingConfig::default(), PackingLevel::FrequencyAware)
                .unwrap();
        assert!(packed.compression_ratio() > 8.0, "ratio {}", packed.compression_ratio());
        assert_eq!(packed.unpack().unwrap(), w);
    }

    #[test]
    fn meta_is_consistent() {
        let w = matrix_with_skew();
        let packed =
            PackedWeights::pack(&w, &PackingConfig::default(), PackingLevel::PacketSpecific)
                .unwrap();
        let m = packed.meta();
        assert_eq!(m.rows, 8);
        assert_eq!(m.chunk_cols, 8);
        assert_eq!(m.total_ids, 64);
        assert_eq!(m.max_id_bits, bits_for_ids(m.unique_count));
        assert!(m.packets > 0);
        assert_eq!(packed.raw_bits(), 8 * 16 * 8);
        assert_eq!(m.packet_bits(), m.mode_bits + m.payload_bits);
        // Stream length is exactly packets × packet size.
        assert_eq!(packed.stream().bit_len(), m.packets * u64::from(m.packet_bits()));
    }

    #[test]
    fn naive_streams_are_fixed_precision_packets() {
        let w = matrix_with_skew();
        let packed =
            PackedWeights::pack(&w, &PackingConfig::default(), PackingLevel::Naive).unwrap();
        let m = packed.meta();
        assert_eq!(m.mode_bits, 0);
        let cap = (m.payload_bits / m.max_id_bits) as u64;
        assert_eq!(m.packets, (m.total_ids as u64).div_ceil(cap));
        assert_eq!(packed.stream().bit_len(), m.packets * u64::from(m.payload_bits));
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let w = matrix_with_skew();
        let packed =
            PackedWeights::pack(&w, &PackingConfig::default(), PackingLevel::Naive).unwrap();
        let mut meta = *packed.meta();
        meta.total_ids += 100; // pretend there should be more ids
        let broken = PackedWeights { meta, ..packed };
        assert!(broken.decode_ids().is_err());
    }

    #[test]
    fn runs_of_small_ids_pack_densely() {
        // A matrix whose chunks repeat in long runs: the packet-specific
        // encoder should beat naive clearly once IDs are frequency-ranked.
        let mut rows = Vec::new();
        for r in 0..64i32 {
            let mut row = Vec::new();
            for c in 0..64i32 {
                // Long runs of chunk (1,1), occasional rare chunks.
                let v = if (r * 64 + c) % 29 == 0 { (c % 23) as i8 + 2 } else { 1 };
                row.push(v);
                row.push(v);
            }
            rows.push(row);
        }
        let refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        let w = Matrix::from_rows(&refs).unwrap();
        let cfg = PackingConfig::default();
        let naive = PackedWeights::pack(&w, &cfg, PackingLevel::Naive).unwrap();
        let freq = PackedWeights::pack(&w, &cfg, PackingLevel::FrequencyAware).unwrap();
        assert!(
            freq.compression_ratio() > naive.compression_ratio() * 1.2,
            "freq {} vs naive {}",
            freq.compression_ratio(),
            naive.compression_ratio()
        );
        assert_eq!(freq.unpack().unwrap(), w);
    }

    /// The packet-specific precision choice by its definition: rescan the
    /// window once per candidate precision, from `max_bits` down, and keep
    /// the narrowest that fits. The reference [`Packets`] must reproduce.
    fn descending_scan(ids: &[u32], max_bits: u32, payload_bits: u32) -> (u32, usize) {
        let remaining = ids.len();
        let mut best_p = max_bits;
        let mut best_take = ((payload_bits / max_bits) as usize).min(remaining);
        for p in (1..max_bits).rev() {
            let take = ((payload_bits / p) as usize).min(remaining);
            if take < best_take {
                continue;
            }
            if ids[..take].iter().all(|&id| bits_needed(id) <= p) {
                best_p = p;
                best_take = take;
            }
        }
        (best_p, best_take)
    }

    /// A xorshift64 stream, so the tests need no RNG crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `len` IDs of at most `max_bits` bits: mostly 1- and 2-bit IDs, so
    /// narrow packets form, with wider IDs scattered at random offsets.
    fn id_stream(rng: &mut XorShift, len: usize, max_bits: u32) -> Vec<u32> {
        (0..len)
            .map(|_| {
                let width = if rng.below(4) == 0 {
                    1 + rng.below(u64::from(max_bits)) as u32
                } else {
                    1 + rng.below(2) as u32
                };
                (rng.next() as u32) & ((1u32 << width.min(max_bits)) - 1)
            })
            .collect()
    }

    #[test]
    fn one_pass_precision_matches_descending_scan() {
        let mut rng = XorShift(0x9E37_79B9);
        for payload_bits in [8, 13, 16, 64, 128, 200, 256] {
            for max_bits in [1, 2, 3, 5, 8, 11, 13, 16].into_iter().filter(|&b| b <= payload_bits) {
                for trial in 0..40 {
                    // Short streams are all tail; long ones end in a tail.
                    let len = if trial < 8 { 1 + trial } else { 1 + rng.below(600) as usize };
                    let ids = id_stream(&mut rng, len, max_bits);
                    let mut pos = 0;
                    let packets =
                        Packets::new(&ids, PackingLevel::PacketSpecific, max_bits, payload_bits);
                    for packet in packets {
                        let (p, packet) = packet.unwrap();
                        let want = descending_scan(&ids[pos..], max_bits, payload_bits);
                        assert_eq!(
                            (p, packet.len()),
                            want,
                            "payload {payload_bits}, max {max_bits}, at {pos} of {ids:?}"
                        );
                        assert_eq!(packet, &ids[pos..pos + packet.len()]);
                        pos += packet.len();
                    }
                    assert_eq!(pos, ids.len());
                    let cap = (payload_bits / max_bits) as usize;
                    let naive: Vec<_> =
                        Packets::new(&ids, PackingLevel::Naive, max_bits, payload_bits)
                            .map(|packet| packet.unwrap().1)
                            .collect();
                    assert_eq!(naive, ids.chunks(cap).collect::<Vec<_>>());
                }
            }
        }
    }

    /// A `rows × 2·cols` matrix over a skewed palette of `palette` values.
    fn palette_matrix(rng: &mut XorShift, rows: usize, cols: usize, palette: u64) -> Matrix<i8> {
        let data = (0..rows * 2 * cols)
            .map(|_| {
                let (a, b) = (rng.below(palette), rng.below(palette));
                let pick = a.min(b);
                (pick as i8).wrapping_mul(37)
            })
            .collect();
        Matrix::from_vec(rows, 2 * cols, data).unwrap()
    }

    #[test]
    fn counted_meta_matches_the_written_stream() {
        let mut rng = XorShift(0xC0FFEE);
        for trial in 0..48 {
            let (cols, palette) = (1 + rng.below(70) as usize, 2 + rng.below(40));
            let w = palette_matrix(&mut rng, 1 + trial % 9, cols, palette);
            for payload_bits in [16, 64, 128, 200] {
                let config = PackingConfig { payload_bits, ..PackingConfig::default() };
                let (unique, encoded) = crate::chunk::decompose(&w, config.chunk).unwrap();
                for level in PackingLevel::all() {
                    let counted =
                        PackedMeta::count(unique.len(), &encoded, &config, level).unwrap();
                    let packed = PackedWeights::from_decomposition(
                        unique.clone(),
                        encoded.clone(),
                        &config,
                        level,
                    )
                    .unwrap();
                    assert_eq!(&counted, packed.meta(), "{level:?} at {payload_bits} bits");
                    assert_eq!(
                        packed.stream().bit_len(),
                        counted.packets * u64::from(counted.packet_bits())
                    );
                    assert_eq!(packed.stream().bit_len(), counted.stream_bits());
                }
            }
        }
    }

    #[test]
    fn counted_meta_returns_the_writers_errors() {
        let both = |unique: &UniqueMatrix, ids: Vec<u32>, config: &PackingConfig, level| {
            let encoded = EncodedMatrix::from_ids(ids.clone(), 1, ids.len(), 2).unwrap();
            let counted = PackedMeta::count(unique.len(), &encoded, config, level);
            let built = PackedWeights::from_decomposition(unique.clone(), encoded, config, level);
            (counted, built.map(|p| *p.meta()))
        };
        let three = UniqueMatrix::from_flat(vec![1, 2, 3, 4, 5, 6], 2).unwrap();
        let cfg = PackingConfig::default();
        // An ID outside the table: the frequency order rejects it, and the
        // other levels pack it while it fits the 2-bit precision.
        let (counted, built) = both(&three, vec![0, 1, 5, 2], &cfg, PackingLevel::FrequencyAware);
        assert_eq!(counted, built);
        assert!(matches!(counted, Err(PackingError::InvalidStream { .. })), "{counted:?}");
        for level in [PackingLevel::Naive, PackingLevel::PacketSpecific] {
            let (counted, built) = both(&three, vec![0, 3, 1, 2], &cfg, level);
            assert_eq!(counted, built);
            assert!(counted.is_ok());
            // Too wide for 2 bits: the writer's error, from both paths.
            let (counted, built) = both(&three, vec![0, 1, 1, 9, 12], &cfg, level);
            assert_eq!(counted, built);
            assert_eq!(counted, Err(value_too_wide(9, 2)));
        }
        // A payload narrower than one ID, after any re-indexing.
        let many: Vec<i8> = (0..600i32).flat_map(|v| [(v / 256) as i8, v as u8 as i8]).collect();
        let many = UniqueMatrix::from_flat(many, 2).unwrap();
        let narrow = PackingConfig { payload_bits: 8, ..cfg };
        for level in PackingLevel::all() {
            let (counted, built) = both(&many, (0..600).collect(), &narrow, level);
            assert_eq!(counted, built);
            assert_eq!(
                counted,
                Err(PackingError::PayloadTooNarrow { payload_bits: 8, required_bits: 10 })
            );
        }
    }
}
