//! The hybrid processing element: parallel-MAC and broadcasting-MAC models.
//!
//! MEADOW's tile mixes two PE flavors (Fig. 2c):
//!
//! * **Parallel MAC PE** — an array of multipliers feeding an adder tree.
//!   It reduces up to `multipliers` products per cycle, so one output element
//!   of a length-`d_mult` dot product costs `ceil(d_mult / multipliers)`
//!   cycles.
//! * **Broadcasting MAC PE** — the same multiplier array feeding
//!   per-output-channel accumulators. Each cycle broadcasts one input element
//!   across all output channels, so a `1×d_mult · d_mult×n` product costs
//!   `d_mult` cycles (for `n ≤ multipliers`), accumulating in place. This is
//!   what makes the `SM×V` stage stream softmax outputs one score per cycle.
//!
//! Both flavors are functional (they produce exact INT32 numbers) *and*
//! cycle-accounted, so the dataflow executors use a single code path for
//! correctness tests and latency measurement.

use crate::clock::Cycles;
use meadow_tensor::gemm::dot_i8;
use serde::{Deserialize, Serialize};

/// Static description of one PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeGeometry {
    /// Number of INT8 multipliers in the PE (64 on the ZCU102 build).
    pub multipliers: usize,
}

impl PeGeometry {
    /// ZCU102 geometry: 64 multipliers per PE (Table 1).
    pub const ZCU102: PeGeometry = PeGeometry { multipliers: 64 };
}

impl Default for PeGeometry {
    fn default() -> Self {
        Self::ZCU102
    }
}

/// Parallel-MAC PE: multiplier array + adder tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelMacPe {
    geometry: PeGeometry,
}

impl ParallelMacPe {
    /// Creates a parallel-MAC PE.
    pub fn new(geometry: PeGeometry) -> Self {
        Self { geometry }
    }

    /// Cycles to produce one dot-product output of length `d_mult`.
    fn dot_cycles(&self, d_mult: usize) -> Cycles {
        Cycles::for_throughput(d_mult as u64, self.geometry.multipliers as u64)
    }

    /// Functionally computes a dot product (the adder-tree datapath),
    /// returning the INT32 accumulator and the cycles spent.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths (layouts are owned by the
    /// scheduler, so a mismatch is a scheduling bug).
    pub fn execute_dot(&self, a: &[i8], b: &[i8]) -> (i32, Cycles) {
        assert_eq!(a.len(), b.len(), "parallel PE operand length mismatch");
        (dot_i8(a, b), self.dot_cycles(a.len()))
    }
}

impl Default for ParallelMacPe {
    fn default() -> Self {
        Self::new(PeGeometry::ZCU102)
    }
}

/// Broadcasting-MAC PE: multiplier array + accumulator registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastingMacPe {
    geometry: PeGeometry,
}

impl BroadcastingMacPe {
    /// Creates a broadcasting-MAC PE.
    pub fn new(geometry: PeGeometry) -> Self {
        Self { geometry }
    }

    /// Cycles for a `1×d_mult · d_mult×n` vector-matrix product: one
    /// broadcast per `d_mult` element, times the number of accumulator
    /// groups needed to cover `n` output channels.
    fn broadcast_cycles(&self, d_mult: usize, n: usize) -> Cycles {
        let groups = (n as u64).div_ceil(self.geometry.multipliers as u64).max(1);
        Cycles((d_mult as u64) * groups)
    }

    /// Functionally computes `out += xᵀ · rows` where `rows[i]` is the
    /// weight row broadcast against input element `x[i]` — the exact order
    /// the accumulators see. Returns cycles spent.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != x.len()` or any row length differs from
    /// `out.len()`.
    pub fn execute_broadcast(&self, x: &[i8], rows: &[&[i8]], out: &mut [i32]) -> Cycles {
        assert_eq!(x.len(), rows.len(), "broadcast PE input/row count mismatch");
        for (&xi, row) in x.iter().zip(rows) {
            assert_eq!(row.len(), out.len(), "broadcast PE row width mismatch");
            let xi = i32::from(xi);
            for (o, &w) in out.iter_mut().zip(*row) {
                *o += xi * i32::from(w);
            }
        }
        self.broadcast_cycles(x.len(), out.len())
    }
}

impl Default for BroadcastingMacPe {
    fn default() -> Self {
        Self::new(PeGeometry::ZCU102)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_dot_cycles_scale_with_depth() {
        let pe = ParallelMacPe::default();
        assert_eq!(pe.dot_cycles(64), Cycles(1));
        assert_eq!(pe.dot_cycles(65), Cycles(2));
        assert_eq!(pe.dot_cycles(768), Cycles(12));
        assert_eq!(pe.dot_cycles(0), Cycles(0));
    }

    #[test]
    fn parallel_functional_matches_reference() {
        let pe = ParallelMacPe::default();
        let a = [1i8, -2, 3, 4];
        let b = [5i8, 6, -7, 8];
        let (acc, cycles) = pe.execute_dot(&a, &b);
        assert_eq!(acc, 5 - 12 - 21 + 32);
        assert_eq!(cycles, Cycles(1));
        // Lengths below, at and past the 16-lane body of `dot_i8`, with
        // extreme values so any lost or doubled product shows.
        for len in [0usize, 1, 15, 16, 17, 33, 64, 129, 773] {
            let a: Vec<i8> = (0..len).map(|i| (i * 37 % 256) as u8 as i8).collect();
            let b: Vec<i8> = (0..len).map(|i| if i % 3 == 0 { i8::MIN } else { i8::MAX }).collect();
            let (acc, cycles) = pe.execute_dot(&a, &b);
            let exact: i32 = a.iter().zip(&b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
            assert_eq!(acc, exact, "length {len}");
            assert_eq!(acc, dot_i8(&a, &b), "length {len}");
            assert_eq!(cycles, pe.dot_cycles(len));
        }
    }

    #[test]
    fn broadcast_cycles_are_dmult_bound() {
        let pe = BroadcastingMacPe::default();
        // One accumulator group for n ≤ 64: cost is exactly d_mult cycles.
        assert_eq!(pe.broadcast_cycles(512, 64), Cycles(512));
        // Wider outputs need multiple groups.
        assert_eq!(pe.broadcast_cycles(512, 65), Cycles(1024));
        assert_eq!(pe.broadcast_cycles(0, 64), Cycles(0));
    }

    #[test]
    fn broadcast_functional_matches_reference() {
        let pe = BroadcastingMacPe::default();
        let x = [2i8, -1];
        let r0 = [1i8, 0, 3];
        let r1 = [4i8, 5, -6];
        let mut out = [0i32; 3];
        let cycles = pe.execute_broadcast(&x, &[&r0, &r1], &mut out);
        // out = 2*[1,0,3] + (-1)*[4,5,-6] = [-2,-5,12]
        assert_eq!(out, [-2, -5, 12]);
        assert_eq!(cycles, Cycles(2));
    }

    #[test]
    fn broadcast_accumulates_into_existing_values() {
        let pe = BroadcastingMacPe::default();
        let mut out = [10i32, 20];
        pe.execute_broadcast(&[1], &[&[1i8, 1][..]], &mut out);
        assert_eq!(out, [11, 21]);
    }

    #[test]
    fn both_flavors_agree_on_total_macs() {
        // A (1×k)·(k×n) product computed either way yields identical numbers.
        let k = 16;
        let n = 8;
        let x: Vec<i8> = (0..k).map(|i| (i as i8) - 7).collect();
        let w: Vec<Vec<i8>> =
            (0..k).map(|i| (0..n).map(|j| ((i * j) % 11) as i8 - 5).collect()).collect();
        let par = ParallelMacPe::default();
        let mut expected = vec![0i32; n];
        for (j, e) in expected.iter_mut().enumerate() {
            let col: Vec<i8> = (0..k).map(|i| w[i][j]).collect();
            *e = par.execute_dot(&x, &col).0;
        }
        let bc = BroadcastingMacPe::default();
        let rows: Vec<&[i8]> = w.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0i32; n];
        bc.execute_broadcast(&x, &rows, &mut out);
        assert_eq!(out, expected);
    }
}
