//! Cycle arithmetic and conversion to wall-clock time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A count of clock cycles at the accelerator's clock frequency.
///
/// All latency models in the workspace produce `Cycles`; conversion to
/// milliseconds happens once, at reporting time, through a [`ClockDomain`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw cycle count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Cycles needed to process `items` at a throughput of `per_cycle` items
    /// per cycle, rounding up. Zero throughput yields zero cycles (the caller
    /// models "this unit is absent" that way; configuration validation guards
    /// real hardware descriptions).
    pub fn for_throughput(items: u64, per_cycle: u64) -> Cycles {
        if per_cycle == 0 {
            return Cycles(0);
        }
        Cycles(items.div_ceil(per_cycle))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock domain: converts cycles to seconds/milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockDomain {
    freq_hz: f64,
}

impl ClockDomain {
    /// Creates a clock domain at `freq_mhz` MHz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not finite and positive (a hardware
    /// description bug, not a data-dependent condition).
    fn from_mhz(freq_mhz: f64) -> Self {
        assert!(
            freq_mhz.is_finite() && freq_mhz > 0.0,
            "clock frequency must be positive, got {freq_mhz} MHz"
        );
        Self { freq_hz: freq_mhz * 1e6 }
    }

    /// The ZCU102 configuration's 100 MHz clock (Table 1).
    pub fn zcu102() -> Self {
        Self::from_mhz(100.0)
    }

    /// Clock frequency in Hz.
    pub(crate) fn freq_hz(self) -> f64 {
        self.freq_hz
    }

    /// Converts cycles to seconds.
    pub fn to_seconds(self, cycles: Cycles) -> f64 {
        cycles.0 as f64 / self.freq_hz
    }

    /// Converts cycles to milliseconds.
    pub fn to_ms(self, cycles: Cycles) -> f64 {
        self.to_seconds(cycles) * 1e3
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        Self::zcu102()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Cycles(10);
        let b = Cycles(4);
        assert_eq!(a + b, Cycles(14));
        assert_eq!(a - b, Cycles(6));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Cycles = [a, b, Cycles(1)].into_iter().sum();
        assert_eq!(total, Cycles(15));
    }

    #[test]
    fn throughput_rounds_up() {
        assert_eq!(Cycles::for_throughput(10, 4), Cycles(3));
        assert_eq!(Cycles::for_throughput(8, 4), Cycles(2));
        assert_eq!(Cycles::for_throughput(0, 4), Cycles(0));
        assert_eq!(Cycles::for_throughput(10, 0), Cycles(0));
    }

    #[test]
    fn clock_conversion() {
        let clk = ClockDomain::zcu102();
        assert_eq!(clk.freq_hz(), 1e8);
        assert!((clk.to_ms(Cycles(100_000)) - 1.0).abs() < 1e-9);
        assert!((clk.to_seconds(Cycles(100_000_000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be positive")]
    fn zero_frequency_panics() {
        let _ = ClockDomain::from_mhz(0.0);
    }

    #[test]
    fn display() {
        assert_eq!(Cycles(42).to_string(), "42 cyc");
    }
}
