//! Network-on-chip interconnect model.
//!
//! All BRAM↔PE, PE↔SM and PE↔PE movement in MEADOW rides the NoC (Fig. 2a).
//! On the ZCU102 build the NoC is a wide crossbar whose links move a fixed
//! number of bytes per cycle; TPHS pipeline-register forwarding consumes one
//! link per producer/consumer pair. The model charges cycles per transfer and
//! accumulates the bytes and link-cycles it has moved.

use crate::clock::Cycles;
use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Bytes one link moves per cycle.
    pub link_bytes_per_cycle: u64,
    /// Number of independent links (crossbar ports).
    pub links: usize,
}

impl NocConfig {
    /// ZCU102 default: 64-byte links, one per PE/module port (96 PEs + 100
    /// auxiliary module ports).
    pub fn zcu102() -> Self {
        Self { link_bytes_per_cycle: 64, links: 196 }
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::zcu102()
    }
}

/// NoC transfer-cost model with traffic accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Noc {
    config: NocConfig,
    total_bytes: u64,
    total_link_cycles: u64,
}

impl Noc {
    /// Creates a NoC.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero link width or zero links.
    pub fn new(config: NocConfig) -> Result<Self, SimError> {
        if config.link_bytes_per_cycle == 0 {
            return Err(SimError::InvalidConfig {
                param: "link_bytes_per_cycle",
                reason: "must be non-zero".into(),
            });
        }
        if config.links == 0 {
            return Err(SimError::InvalidConfig {
                param: "links",
                reason: "must be non-zero".into(),
            });
        }
        Ok(Self { config, total_bytes: 0, total_link_cycles: 0 })
    }

    /// Cycles for a point-to-point transfer of `bytes` over one link.
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> Cycles {
        Cycles::for_throughput(bytes, self.config.link_bytes_per_cycle)
    }

    /// Performs an accounted transfer over one link.
    pub fn transfer(&mut self, bytes: u64) -> Cycles {
        let cycles = self.transfer_cycles(bytes);
        self.total_bytes += bytes;
        self.total_link_cycles += cycles.get();
        cycles
    }

    /// Performs an accounted store-and-forward transfer of `bytes` across
    /// `hops` links (the cluster serving layer charges both cross-chip
    /// KV-cache migration and the prefill→decode KV handoff of
    /// disaggregated serving this way). Every hop's link is charged for
    /// the full payload, so `total_bytes` grows by `bytes * hops` — the
    /// aggregate link-level traffic the transfer actually put on the
    /// interconnect. Zero hops (same endpoint) moves nothing and charges
    /// nothing, which is why callers that route between *distinct* chips
    /// must never present `hops == 0` for a real transfer.
    pub fn transfer_hops(&mut self, bytes: u64, hops: u32) -> Cycles {
        let mut total = Cycles::ZERO;
        for _ in 0..hops {
            total += self.transfer(bytes);
        }
        total
    }

    /// Aggregate link-cycles consumed (for utilization checks: the NoC is
    /// saturated when `total_link_cycles / links` approaches the makespan).
    pub fn total_link_cycles(&self) -> u64 {
        self.total_link_cycles
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

impl Default for Noc {
    fn default() -> Self {
        Self::new(NocConfig::default()).expect("default config is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_rounds_up() {
        let noc = Noc::default();
        assert_eq!(noc.transfer_cycles(0), Cycles::ZERO);
        assert_eq!(noc.transfer_cycles(1), Cycles(1));
        assert_eq!(noc.transfer_cycles(64), Cycles(1));
        assert_eq!(noc.transfer_cycles(65), Cycles(2));
    }

    #[test]
    fn accounting_accumulates() {
        let mut noc = Noc::default();
        noc.transfer(128);
        noc.transfer(64);
        assert_eq!(noc.total_bytes(), 192);
        assert_eq!(noc.total_link_cycles(), 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Noc::new(NocConfig { link_bytes_per_cycle: 0, links: 4 }).is_err());
        assert!(Noc::new(NocConfig { link_bytes_per_cycle: 8, links: 0 }).is_err());
    }

    #[test]
    fn hop_transfers_scale_linearly_and_account_per_link() {
        let mut noc = Noc::default();
        // 3 hops of a one-link transfer: 3× the cycles, 3× the link bytes.
        let one = noc.transfer_cycles(128);
        let charged = noc.transfer_hops(128, 3);
        assert_eq!(charged, Cycles(one.get() * 3));
        assert_eq!(noc.total_bytes(), 3 * 128);
        assert_eq!(noc.total_link_cycles(), 3 * one.get());
        // Zero hops moves nothing.
        assert_eq!(noc.transfer_hops(512, 0), Cycles::ZERO);
        assert_eq!(noc.total_bytes(), 3 * 128);
    }
}
