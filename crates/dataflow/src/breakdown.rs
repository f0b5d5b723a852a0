//! Latency breakdowns: the fetch / compute / store decomposition the paper's
//! distribution figures report.

use meadow_sim::Cycles;
use serde::{Deserialize, Serialize};

/// Latency of one operation (one decoder-layer op or one fused TPHS block).
///
/// `fetch`, `compute` and `store` are *component totals* (the stacked bars of
/// Figs. 1, 8, 9); `makespan` is the wall-clock cost after whatever overlap
/// the executor achieved. For the sequential GEMM baseline
/// `makespan == fetch + compute + store`; the TPHS pipeline overlaps, so its
/// makespan is smaller than the component sum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatency {
    /// Operation name as shown in figures ("Q", "QKT", "SM", "SMxV", ...).
    pub name: String,
    /// DRAM → chip transfer cycles.
    pub fetch: Cycles,
    /// On-chip compute cycles.
    pub compute: Cycles,
    /// Chip → DRAM transfer cycles.
    pub store: Cycles,
    /// Wall-clock cycles for the op.
    pub makespan: Cycles,
}

impl OpLatency {
    /// A fully sequential op: makespan is the sum of its components.
    pub(crate) fn sequential(
        name: impl Into<String>,
        fetch: Cycles,
        compute: Cycles,
        store: Cycles,
    ) -> Self {
        Self { name: name.into(), fetch, compute, store, makespan: fetch + compute + store }
    }

    /// Component sum (the stacked-bar height).
    pub fn component_sum(&self) -> Cycles {
        self.fetch + self.compute + self.store
    }
}

/// Latency of one full layer: an ordered list of op latencies.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LayerLatency {
    /// Ops in execution order.
    pub ops: Vec<OpLatency>,
}

impl LayerLatency {
    /// An empty layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends an op.
    pub(crate) fn push(&mut self, op: OpLatency) {
        self.ops.push(op);
    }

    /// Total fetch cycles across ops.
    pub fn fetch(&self) -> Cycles {
        self.ops.iter().map(|o| o.fetch).sum()
    }

    /// Total compute cycles across ops.
    pub fn compute(&self) -> Cycles {
        self.ops.iter().map(|o| o.compute).sum()
    }

    /// Total store cycles across ops.
    pub fn store(&self) -> Cycles {
        self.ops.iter().map(|o| o.store).sum()
    }

    /// Total wall-clock cycles (ops run back to back).
    pub fn makespan(&self) -> Cycles {
        self.ops.iter().map(|o| o.makespan).sum()
    }

    /// Merges the ops of another layer (used when a schedule is built from
    /// fragments).
    pub(crate) fn extend(&mut self, other: LayerLatency) {
        self.ops.extend(other.ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_op_sums() {
        let op = OpLatency::sequential("Q", Cycles(10), Cycles(5), Cycles(3));
        assert_eq!(op.makespan, Cycles(18));
        assert_eq!(op.component_sum(), Cycles(18));
    }

    #[test]
    fn layer_aggregation() {
        let mut layer = LayerLatency::new();
        layer.push(OpLatency::sequential("Q", Cycles(10), Cycles(5), Cycles(3)));
        layer.push(OpLatency {
            name: "TPHS".into(),
            fetch: Cycles(20),
            compute: Cycles(30),
            store: Cycles(4),
            makespan: Cycles(35), // overlapped
        });
        assert_eq!(layer.fetch(), Cycles(30));
        assert_eq!(layer.compute(), Cycles(35));
        assert_eq!(layer.store(), Cycles(7));
        assert_eq!(layer.makespan(), Cycles(53));
    }

    #[test]
    fn empty_layer_is_zero() {
        let layer = LayerLatency::new();
        assert_eq!(layer.makespan(), Cycles::ZERO);
        assert_eq!(layer.fetch(), Cycles::ZERO);
    }
}
