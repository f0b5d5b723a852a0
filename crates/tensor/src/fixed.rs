//! Small fixed-point helpers backing the LUT datapaths of the simulator.
//!
//! MEADOW's softmax module computes `exp(x - max)` through an `EXP LUT`
//! (Fig. 2d) rather than a floating-point unit. The simulator models that LUT
//! as a table of Q-format fixed-point values indexed by a quantized argument.

use serde::{Deserialize, Serialize};

/// A Qm.n unsigned fixed-point format: values are stored as
/// `round(real * 2^frac_bits)` in a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    /// Number of fractional bits.
    pub frac_bits: u32,
}

impl QFormat {
    /// Creates a format with the given number of fractional bits (≤ 30).
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 30` (would overflow the `u32` representation of
    /// values ≥ 1.0).
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 30, "frac_bits {frac_bits} too large for u32 storage");
        Self { frac_bits }
    }

    /// Encodes a non-negative real value, saturating at the representable max.
    fn encode(self, real: f32) -> u32 {
        if !real.is_finite() || real <= 0.0 {
            return 0;
        }
        let scaled = (f64::from(real) * (1u64 << self.frac_bits) as f64).round();
        if scaled >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            scaled as u32
        }
    }

    /// Decodes a stored value back to `f32`.
    fn decode(self, stored: u32) -> f32 {
        (stored as f64 / (1u64 << self.frac_bits) as f64) as f32
    }
}

impl Default for QFormat {
    /// Q*.16 — the format used by the simulator's EXP LUT.
    fn default() -> Self {
        Self::new(16)
    }
}

/// A lookup table for `exp(-x)` over `x ∈ [0, range]`, as synthesized into
/// the softmax module's `EXP LUT`.
///
/// The numerically-stable softmax only ever evaluates `exp(x - max)` with
/// `x - max ≤ 0`, so a table over negative arguments suffices. Entries are
/// stored in the [`QFormat`] fixed-point encoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpLut {
    entries: Vec<u32>,
    range: f32,
    format: QFormat,
}

impl ExpLut {
    /// Builds a LUT with `entries` samples of `exp(-x)` for
    /// `x ∈ [0, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `range <= 0` (both indicate a
    /// misconfigured hardware description, not a data-dependent condition).
    pub fn new(entries: usize, range: f32, format: QFormat) -> Self {
        assert!(entries >= 2, "ExpLut needs at least 2 entries");
        assert!(range > 0.0, "ExpLut range must be positive");
        let table = (0..entries)
            .map(|i| {
                let x = range * i as f32 / (entries - 1) as f32;
                format.encode((-x).exp())
            })
            .collect();
        Self { entries: table, range, format }
    }

    /// Hardware-default LUT: 1024 entries over `[0, 16]` in Q*.16.
    pub fn hardware_default() -> Self {
        Self::new(1024, 16.0, QFormat::default())
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true for a constructed LUT).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evaluates `exp(neg_arg)` for `neg_arg ≤ 0` by nearest-entry lookup.
    ///
    /// Arguments below `-range` return 0 (the hardware clamps to the last
    /// entry, which encodes ≈ `exp(-range)` ≈ 0); positive arguments clamp to
    /// index 0 (`exp(0) = 1`), mirroring the module's saturating behavior.
    pub(crate) fn eval(&self, neg_arg: f32) -> f32 {
        let x = (-neg_arg).max(0.0);
        let pos = x / self.range * (self.entries.len() - 1) as f32;
        let idx = (pos.round() as usize).min(self.entries.len() - 1);
        self.format.decode(self.entries[idx])
    }
}

impl Default for ExpLut {
    fn default() -> Self {
        Self::hardware_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qformat_round_trip() {
        let q = QFormat::new(16);
        let lsb = 1.0 / (1u64 << 16) as f32;
        for v in [0.0_f32, 0.5, 1.0, 0.123, 3.75] {
            let back = q.decode(q.encode(v));
            assert!((back - v).abs() <= lsb, "{v} -> {back}");
        }
    }

    #[test]
    fn qformat_rejects_garbage() {
        let q = QFormat::new(8);
        assert_eq!(q.encode(-1.0), 0);
        assert_eq!(q.encode(f32::NAN), 0);
        // Non-finite inputs are rejected to 0 rather than saturated: the LUT
        // generator never produces them, so any occurrence is a logic bug
        // upstream and a zero entry is the safest sentinel.
        assert_eq!(q.encode(f32::INFINITY), 0);
    }

    #[test]
    fn lut_is_accurate_enough_for_softmax() {
        // Worst case against `f32::exp` on a grid 4× denser than the table.
        let lut = ExpLut::hardware_default();
        let probes = 4 * lut.len();
        for i in 0..=probes {
            let x = -(16.0 * i as f32 / probes as f32);
            let err = (lut.eval(x) - x.exp()).abs();
            assert!(err < 0.01, "error {err} at {x}");
        }
    }

    #[test]
    fn lut_endpoints() {
        let lut = ExpLut::hardware_default();
        assert!((lut.eval(0.0) - 1.0).abs() < 1e-3);
        assert!(lut.eval(-16.0) < 1e-3);
        // Clamps outside the domain.
        assert!((lut.eval(1.0) - 1.0).abs() < 1e-3);
        assert!(lut.eval(-100.0) < 1e-3);
    }

    #[test]
    fn lut_is_monotonically_nonincreasing() {
        let lut = ExpLut::new(256, 8.0, QFormat::new(16));
        let mut prev = f32::INFINITY;
        for i in 0..=512 {
            let x = -(8.0 * i as f32 / 512.0);
            let v = lut.eval(x);
            assert!(v <= prev + 1e-6);
            prev = v;
        }
    }

    #[test]
    fn size_accounting() {
        let lut = ExpLut::new(1024, 16.0, QFormat::default());
        assert_eq!(lut.len(), 1024);
        assert!(!lut.is_empty());
    }
}
