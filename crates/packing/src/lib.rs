//! MEADOW weight packing: lossless decomposition and bit-packing of
//! quantized LLM weight matrices (§5 of the paper).
//!
//! The pipeline has three optimization levels, each subsuming the previous:
//!
//! 1. **Indexing + naive data packing** ([`PackingLevel::Naive`]) — split
//!    the weight matrix into fixed-size chunks, deduplicate them into a
//!    [`UniqueMatrix`], and replace the matrix by chunk IDs, each stored at
//!    the uniform precision `⌈log₂(#unique)⌉`.
//! 2. **Packet-specific encoding precision**
//!    ([`PackingLevel::PacketSpecific`]) — group IDs into fixed-width DRAM
//!    packets whose per-packet precision is chosen from a mode ladder, so
//!    runs of small IDs pack more values per packet (Fig. 4b).
//! 3. **Frequency-aware re-indexing** ([`PackingLevel::FrequencyAware`]) —
//!    re-assign IDs so frequent chunks get small IDs, maximizing the
//!    proportion of low-precision packets (Fig. 4c).
//!
//! Unpacking happens in the WILU module: the mode-aware unpacking (MAU)
//! stage decodes packets back to IDs, and a unique-matrix lookup
//! reconstructs the exact original weights ([`PackedWeights::unpack`]);
//! [`wilu`] prices that work in cycles. The whole pipeline is lossless;
//! property tests assert bit-exact round trips at every level.
//!
//! # Example
//!
//! ```
//! use meadow_packing::{ChunkConfig, PackingConfig, PackingLevel, PackedWeights};
//! use meadow_tensor::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = Matrix::<i8>::from_rows(&[&[1, 2, 1, 2], &[1, 2, 3, 4]])?;
//! let packed = PackedWeights::pack(&w, &PackingConfig::default(), PackingLevel::FrequencyAware)?;
//! assert_eq!(packed.unpack()?, w);
//! assert!(packed.packed_bits() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod chunk;
pub mod encode;
pub mod error;
pub mod reindex;
pub mod stats;
pub mod wilu;

pub use chunk::{ChunkConfig, EncodedMatrix, UniqueMatrix};
pub use encode::{PackedWeights, PackingConfig, PackingLevel};
pub use error::PackingError;
pub use meadow_tensor::parallel::ExecConfig;

/// Number of bits needed to represent IDs in `[0, count)`, minimum 1.
pub(crate) fn bits_for_ids(count: usize) -> u32 {
    if count <= 1 {
        1
    } else {
        (usize::BITS - (count - 1).leading_zeros()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_ids_matches_log2() {
        assert_eq!(bits_for_ids(0), 1);
        assert_eq!(bits_for_ids(1), 1);
        assert_eq!(bits_for_ids(2), 1);
        assert_eq!(bits_for_ids(3), 2);
        assert_eq!(bits_for_ids(4), 2);
        assert_eq!(bits_for_ids(5), 3);
        // The paper's example: 1272 unique chunks → 11-bit IDs.
        assert_eq!(bits_for_ids(1272), 11);
        assert_eq!(bits_for_ids(2048), 11);
        assert_eq!(bits_for_ids(2049), 12);
    }
}
