//! Off-chip DRAM channel model and traffic accounting.
//!
//! MEADOW's entire evaluation is driven by the off-chip bandwidth: the paper
//! sweeps 1–51 Gbps and attributes latency to data **fetch**, **compute** and
//! **store** (Figs. 1, 8, 9, 11). This module provides:
//!
//! * [`DramModel`] — converts byte volumes to transfer cycles at a given
//!   bandwidth and clock, with burst-granularity rounding.
//! * [`TrafficLedger`] — attributes every transferred byte to a
//!   [`TrafficClass`], which is exactly the decomposition the paper's
//!   stacked-bar figures report.

use crate::clock::{ClockDomain, Cycles};
use crate::error::SimError;
use serde::{Deserialize, JsonWriter, Serialize, Value};

/// What a DRAM transfer was for. Mirrors the categories of the paper's
/// latency-distribution figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Weight matrices (packed or raw).
    WeightFetch,
    /// Input activations / tokens.
    InputFetch,
    /// KV-cache reads during attention.
    KvFetch,
    /// Intermediate tensors re-read in GEMM mode (Q, scores, softmax output).
    IntermediateFetch,
    /// Intermediate tensors written back in GEMM mode.
    IntermediateStore,
    /// Final layer outputs written back.
    OutputStore,
    /// KV-cache writes.
    KvStore,
    /// Serving-level KV-cache residency migration: spilling an evicted
    /// session's cache off chip and reloading it on re-admission. Counted as
    /// store-side traffic (spill-dominated); distinct from the per-step
    /// [`TrafficClass::KvFetch`]/[`TrafficClass::KvStore`] attention traffic.
    KvCache,
    /// Serving-level model weight residency: streaming a model's weights on
    /// chip for a cold start (and re-streaming after LRU eviction). Fetch
    /// side — weights are read-only, so eviction writes nothing back.
    /// Distinct from the per-step [`TrafficClass::WeightFetch`] re-reads the
    /// layer pipeline charges while computing.
    Weights,
}

impl TrafficClass {
    /// Whether the class is a fetch (DRAM → chip).
    fn is_fetch(self) -> bool {
        matches!(
            self,
            TrafficClass::WeightFetch
                | TrafficClass::InputFetch
                | TrafficClass::KvFetch
                | TrafficClass::IntermediateFetch
                | TrafficClass::Weights
        )
    }

    /// Whether the class is a store (chip → DRAM).
    fn is_store(self) -> bool {
        !self.is_fetch()
    }

    /// All classes, for iteration in reports.
    pub(crate) fn all() -> [TrafficClass; 9] {
        [
            TrafficClass::WeightFetch,
            TrafficClass::InputFetch,
            TrafficClass::KvFetch,
            TrafficClass::IntermediateFetch,
            TrafficClass::IntermediateStore,
            TrafficClass::OutputStore,
            TrafficClass::KvStore,
            TrafficClass::KvCache,
            TrafficClass::Weights,
        ]
    }
}

/// Byte-and-cycle ledger keyed by [`TrafficClass`]: one fixed slot per
/// class, so recording a transfer and merging a ledger are array adds.
///
/// A mask remembers which classes were ever recorded, because the JSON
/// lists exactly those: `{"bytes": [[class, value], ..], "cycles": [..]}`,
/// in class order, a class recorded at zero bytes included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    bytes: [u64; 9],
    cycles: [u64; 9],
    /// Bit `class as usize` is set once `class` has been recorded.
    recorded: u16,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transfer.
    fn record(&mut self, class: TrafficClass, bytes: u64, cycles: Cycles) {
        let slot = class as usize;
        self.bytes[slot] += bytes;
        self.cycles[slot] += cycles.get();
        self.recorded |= 1 << slot;
    }

    /// Bytes recorded for one class.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class as usize]
    }

    /// Cycles recorded for one class.
    pub fn cycles(&self, class: TrafficClass) -> Cycles {
        Cycles(self.cycles[class as usize])
    }

    /// Total bytes fetched (DRAM → chip).
    pub fn fetch_bytes(&self) -> u64 {
        TrafficClass::all().iter().filter(|c| c.is_fetch()).map(|&c| self.bytes(c)).sum()
    }

    /// Total bytes stored (chip → DRAM).
    pub fn store_bytes(&self) -> u64 {
        TrafficClass::all().iter().filter(|c| c.is_store()).map(|&c| self.bytes(c)).sum()
    }

    /// Total fetch cycles.
    pub fn fetch_cycles(&self) -> Cycles {
        Cycles(
            TrafficClass::all()
                .iter()
                .filter(|c| c.is_fetch())
                .map(|&c| self.cycles(c).get())
                .sum(),
        )
    }

    /// Total store cycles.
    pub fn store_cycles(&self) -> Cycles {
        Cycles(
            TrafficClass::all()
                .iter()
                .filter(|c| c.is_store())
                .map(|&c| self.cycles(c).get())
                .sum(),
        )
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        for slot in 0..self.bytes.len() {
            self.bytes[slot] += other.bytes[slot];
            self.cycles[slot] += other.cycles[slot];
        }
        self.recorded |= other.recorded;
    }
}

impl Serialize for TrafficLedger {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.open_map();
        for (key, values) in [("bytes", &self.bytes), ("cycles", &self.cycles)] {
            w.key(key);
            w.open_seq();
            for class in TrafficClass::all() {
                if self.recorded & (1 << class as usize) != 0 {
                    w.element();
                    (class, values[class as usize]).write_json(w);
                }
            }
            w.close_seq();
        }
        w.close_map();
    }
}

impl Deserialize for TrafficLedger {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let list = |key| match v.get(key) {
            Some(field) => Vec::<(TrafficClass, u64)>::from_value(field),
            None => Err(serde::Error::msg(format!("missing field `{key}`"))),
        };
        let (bytes, cycles) = (list("bytes")?, list("cycles")?);
        if !bytes.iter().map(|e| e.0).eq(cycles.iter().map(|e| e.0)) {
            return Err(serde::Error::msg("ledger bytes and cycles list different classes"));
        }
        let mut ledger = Self::default();
        for ((class, b), (_, c)) in bytes.into_iter().zip(cycles) {
            ledger.record(class, b, Cycles(c));
        }
        Ok(ledger)
    }
}

/// Bandwidth-parameterized DRAM channel.
///
/// The paper quotes bandwidth in Gbps against a 100 MHz accelerator clock, so
/// at 12 Gbps the channel moves `12e9 / 8 / 100e6 = 15` bytes per cycle.
/// Transfers are rounded up to the burst granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramModel {
    bandwidth_gbps: f64,
    clock: ClockDomain,
    burst_bytes: u64,
    ledger: TrafficLedger,
}

impl DramModel {
    /// Default burst granularity in bytes (a DDR4 x16 burst).
    pub const DEFAULT_BURST_BYTES: u64 = 64;

    /// Creates a channel at `bandwidth_gbps` against `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the bandwidth is not finite and
    /// positive, or if `burst_bytes` is zero.
    pub fn new(
        bandwidth_gbps: f64,
        clock: ClockDomain,
        burst_bytes: u64,
    ) -> Result<Self, SimError> {
        if !bandwidth_gbps.is_finite() || bandwidth_gbps <= 0.0 {
            return Err(SimError::InvalidConfig {
                param: "bandwidth_gbps",
                reason: format!("must be finite and positive, got {bandwidth_gbps}"),
            });
        }
        if burst_bytes == 0 {
            return Err(SimError::InvalidConfig {
                param: "burst_bytes",
                reason: "must be non-zero".to_string(),
            });
        }
        Ok(Self { bandwidth_gbps, clock, burst_bytes, ledger: TrafficLedger::new() })
    }

    /// Convenience constructor with the default burst size.
    pub fn with_bandwidth(bandwidth_gbps: f64, clock: ClockDomain) -> Result<Self, SimError> {
        Self::new(bandwidth_gbps, clock, Self::DEFAULT_BURST_BYTES)
    }

    /// Bytes the channel moves per accelerator clock cycle.
    fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0 / self.clock.freq_hz()
    }

    /// Cycles to transfer `bytes`, including burst rounding. Does not touch
    /// the ledger; use [`DramModel::transfer`] for accounted transfers.
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let rounded = bytes.div_ceil(self.burst_bytes) * self.burst_bytes;
        Cycles((rounded as f64 / self.bytes_per_cycle()).ceil() as u64)
    }

    /// Performs an accounted transfer: computes cycles, records bytes and
    /// cycles under `class`, and returns the cycle cost.
    pub fn transfer(&mut self, class: TrafficClass, bytes: u64) -> Cycles {
        let cycles = self.transfer_cycles(bytes);
        self.ledger.record(class, bytes, cycles);
        cycles
    }

    /// Performs an accounted transfer of `bytes` moved as page-granular
    /// chunks of `page_bytes` (the last chunk may be partial): each page is
    /// a separate burst-rounded transfer, which is how the serving layer's
    /// paged KV spill/reload traffic hits the channel. Equivalent to
    /// [`DramModel::transfer`] when `bytes <= page_bytes`.
    ///
    /// A zero `page_bytes` falls back to a single whole transfer rather
    /// than dividing by zero (callers validate page sizes upstream).
    fn transfer_paged(&mut self, class: TrafficClass, bytes: u64, page_bytes: u64) -> Cycles {
        if page_bytes == 0 || bytes <= page_bytes {
            return self.transfer(class, bytes);
        }
        let mut total = Cycles::ZERO;
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(page_bytes);
            total += self.transfer(class, chunk);
            remaining -= chunk;
        }
        total
    }

    /// The single funnel for serving-level KV-cache residency migration:
    /// charges `bytes` under [`TrafficClass::KvCache`], as one whole burst
    /// (`granularity == None`, the whole-cache spill/reload path) or as
    /// page-granular chunks (`granularity == Some(page_bytes)`, the paged
    /// path — see `DramModel::transfer_paged`). Routing both eviction
    /// disciplines through one helper keeps their `KvCache` accounting
    /// from drifting apart.
    pub fn transfer_kv_cache(&mut self, bytes: u64, granularity: Option<u64>) -> Cycles {
        match granularity {
            Some(page_bytes) => self.transfer_paged(TrafficClass::KvCache, bytes, page_bytes),
            None => self.transfer(TrafficClass::KvCache, bytes),
        }
    }

    /// The single funnel for serving-level model weight streaming: charges
    /// `bytes` (one layer's worth, typically) under [`TrafficClass::Weights`]
    /// as one burst-rounded transfer. Mirrors
    /// [`DramModel::transfer_kv_cache`] so cold-start weight traffic and KV
    /// residency traffic flow through the same accounted channel.
    pub fn transfer_weights(&mut self, bytes: u64) -> Cycles {
        self.transfer(TrafficClass::Weights, bytes)
    }

    /// The accumulated traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(gbps: f64) -> DramModel {
        DramModel::with_bandwidth(gbps, ClockDomain::zcu102()).unwrap()
    }

    #[test]
    fn bytes_per_cycle_matches_paper_arithmetic() {
        assert!((dram(12.0).bytes_per_cycle() - 15.0).abs() < 1e-9);
        assert!((dram(1.0).bytes_per_cycle() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn transfer_cycles_round_up_to_bursts() {
        let d = dram(12.0);
        // 1 byte still costs a full 64-byte burst: ceil(64/15) = 5 cycles.
        assert_eq!(d.transfer_cycles(1), Cycles(5));
        assert_eq!(d.transfer_cycles(0), Cycles::ZERO);
        // 1 MB at 15 B/cyc ≈ 69906 cycles.
        let mb = 1_048_576;
        let got = d.transfer_cycles(mb).get();
        assert!((got as f64 - mb as f64 / 15.0).abs() < 16.0, "got {got}");
    }

    #[test]
    fn lower_bandwidth_costs_proportionally_more() {
        let hi = dram(12.0).transfer_cycles(1 << 20).get() as f64;
        let lo = dram(1.0).transfer_cycles(1 << 20).get() as f64;
        assert!((lo / hi - 12.0).abs() < 0.05);
    }

    #[test]
    fn ledger_attribution() {
        let mut d = dram(6.0);
        d.transfer(TrafficClass::WeightFetch, 1000);
        d.transfer(TrafficClass::WeightFetch, 500);
        d.transfer(TrafficClass::OutputStore, 200);
        assert_eq!(d.ledger().bytes(TrafficClass::WeightFetch), 1500);
        assert_eq!(d.ledger().bytes(TrafficClass::OutputStore), 200);
        assert_eq!(d.ledger().fetch_bytes(), 1500);
        assert_eq!(d.ledger().store_bytes(), 200);
        assert!(d.ledger().fetch_cycles() > Cycles::ZERO);
    }

    #[test]
    fn ledger_merge() {
        let mut a = TrafficLedger::new();
        a.record(TrafficClass::KvFetch, 10, Cycles(1));
        let mut b = TrafficLedger::new();
        b.record(TrafficClass::KvFetch, 5, Cycles(2));
        b.record(TrafficClass::KvStore, 7, Cycles(3));
        a.merge(&b);
        assert_eq!(a.bytes(TrafficClass::KvFetch), 15);
        assert_eq!(a.cycles(TrafficClass::KvFetch), Cycles(3));
        assert_eq!(a.bytes(TrafficClass::KvStore), 7);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(DramModel::with_bandwidth(0.0, ClockDomain::zcu102()).is_err());
        assert!(DramModel::with_bandwidth(-3.0, ClockDomain::zcu102()).is_err());
        assert!(DramModel::with_bandwidth(f64::NAN, ClockDomain::zcu102()).is_err());
        assert!(DramModel::new(1.0, ClockDomain::zcu102(), 0).is_err());
    }

    #[test]
    fn class_fetch_store_partition() {
        for c in TrafficClass::all() {
            assert!(c.is_fetch() ^ c.is_store());
        }
        assert_eq!(TrafficClass::all().len(), 9);
    }

    #[test]
    fn paged_transfers_charge_per_page_bursts() {
        let mut whole = dram(12.0);
        let mut paged = dram(12.0);
        let one = whole.transfer(TrafficClass::KvCache, 1000);
        let chunked = paged.transfer_paged(TrafficClass::KvCache, 1000, 256);
        // Same bytes on the ledger; the page-granular path pays burst
        // rounding per chunk, so it can only be slower.
        assert_eq!(whole.ledger().bytes(TrafficClass::KvCache), 1000);
        assert_eq!(paged.ledger().bytes(TrafficClass::KvCache), 1000);
        assert!(chunked >= one, "chunked {chunked:?} < whole {one:?}");
        // A transfer at or below one page is exactly a plain transfer, and
        // zero page size degenerates to a whole transfer.
        let mut a = dram(12.0);
        let mut b = dram(12.0);
        assert_eq!(
            a.transfer_paged(TrafficClass::KvCache, 200, 256),
            b.transfer(TrafficClass::KvCache, 200)
        );
        assert_eq!(
            a.transfer_paged(TrafficClass::KvCache, 999, 0),
            b.transfer(TrafficClass::KvCache, 999)
        );
        assert_eq!(a.transfer_paged(TrafficClass::KvCache, 0, 256), Cycles::ZERO);
    }

    #[test]
    fn kv_cache_funnel_matches_the_underlying_transfers() {
        // Whole-burst mode is exactly `transfer(KvCache, ..)`; paged mode
        // is exactly `transfer_paged(KvCache, .., page)` — cycle for
        // cycle, byte for byte.
        let mut funnel = dram(12.0);
        let mut direct = dram(12.0);
        assert_eq!(
            funnel.transfer_kv_cache(1000, None),
            direct.transfer(TrafficClass::KvCache, 1000)
        );
        assert_eq!(
            funnel.transfer_kv_cache(1000, Some(256)),
            direct.transfer_paged(TrafficClass::KvCache, 1000, 256)
        );
        assert_eq!(funnel.ledger(), direct.ledger());
        assert_eq!(funnel.ledger().bytes(TrafficClass::KvCache), 2000);
    }

    #[test]
    fn weights_funnel_matches_the_underlying_transfer() {
        let mut funnel = dram(12.0);
        let mut direct = dram(12.0);
        assert_eq!(
            funnel.transfer_weights(1 << 16),
            direct.transfer(TrafficClass::Weights, 1 << 16)
        );
        assert_eq!(funnel.ledger(), direct.ledger());
        assert_eq!(funnel.ledger().bytes(TrafficClass::Weights), 1 << 16);
        // Weight streaming is fetch-side: read-only data writes nothing back.
        assert!(TrafficClass::Weights.is_fetch());
        assert_eq!(funnel.ledger().fetch_bytes(), 1 << 16);
        assert_eq!(funnel.ledger().store_bytes(), 0);
    }

    #[test]
    fn kv_cache_migration_is_store_side() {
        let mut d = dram(6.0);
        d.transfer(TrafficClass::KvCache, 4096);
        assert!(TrafficClass::KvCache.is_store());
        assert_eq!(d.ledger().bytes(TrafficClass::KvCache), 4096);
        assert_eq!(d.ledger().store_bytes(), 4096);
        assert_eq!(d.ledger().fetch_bytes(), 0);
    }

    /// The ledger's JSON is part of every report, so its bytes are frozen:
    /// one `[class, value]` list per field, recorded classes only, in class
    /// order, and a class recorded at zero bytes still listed.
    #[test]
    fn ledger_json_is_frozen() {
        let empty = TrafficLedger::new();
        let mut zero = TrafficLedger::new();
        zero.record(TrafficClass::KvStore, 0, Cycles::ZERO);
        zero.record(TrafficClass::InputFetch, 48, Cycles(4));
        let mut all = TrafficLedger::new();
        for (k, class) in TrafficClass::all().into_iter().enumerate().rev() {
            all.record(class, 1000 * (k as u64 + 1), Cycles(k as u64 + 7));
        }
        let cases = [
            (&empty, r#"{"bytes":[],"cycles":[]}"#, EMPTY_PRETTY),
            (
                &zero,
                r#"{"bytes":[["InputFetch",48],["KvStore",0]],"cycles":[["InputFetch",4],["KvStore",0]]}"#,
                ZERO_PRETTY,
            ),
            (
                &all,
                concat!(
                    r#"{"bytes":[["WeightFetch",1000],["InputFetch",2000],["KvFetch",3000],"#,
                    r#"["IntermediateFetch",4000],["IntermediateStore",5000],["OutputStore",6000],"#,
                    r#"["KvStore",7000],["KvCache",8000],["Weights",9000]],"#,
                    r#""cycles":[["WeightFetch",7],["InputFetch",8],["KvFetch",9],"#,
                    r#"["IntermediateFetch",10],["IntermediateStore",11],["OutputStore",12],"#,
                    r#"["KvStore",13],["KvCache",14],["Weights",15]]}"#
                ),
                ALL_PRETTY,
            ),
        ];
        for (ledger, compact, pretty) in cases {
            assert_eq!(serde_json::to_string(ledger).unwrap(), compact);
            assert_eq!(serde_json::to_string_pretty(ledger).unwrap(), pretty);
            for text in [compact, pretty] {
                assert_eq!(&serde_json::from_str::<TrafficLedger>(text).unwrap(), ledger);
            }
        }
        // A merge lists the union of both sides' classes, zero ones included.
        let mut merged = TrafficLedger::new();
        merged.record(TrafficClass::Weights, 5, Cycles(1));
        merged.merge(&zero);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            r#"{"bytes":[["InputFetch",48],["KvStore",0],["Weights",5]],"cycles":[["InputFetch",4],["KvStore",0],["Weights",1]]}"#
        );
        assert_eq!(merged.bytes(TrafficClass::InputFetch), 48);
        assert_eq!(merged.cycles(TrafficClass::Weights), Cycles(1));
    }

    const EMPTY_PRETTY: &str = r#"{
  "bytes": [],
  "cycles": []
}"#;

    const ZERO_PRETTY: &str = r#"{
  "bytes": [
    [
      "InputFetch",
      48
    ],
    [
      "KvStore",
      0
    ]
  ],
  "cycles": [
    [
      "InputFetch",
      4
    ],
    [
      "KvStore",
      0
    ]
  ]
}"#;

    const ALL_PRETTY: &str = r#"{
  "bytes": [
    [
      "WeightFetch",
      1000
    ],
    [
      "InputFetch",
      2000
    ],
    [
      "KvFetch",
      3000
    ],
    [
      "IntermediateFetch",
      4000
    ],
    [
      "IntermediateStore",
      5000
    ],
    [
      "OutputStore",
      6000
    ],
    [
      "KvStore",
      7000
    ],
    [
      "KvCache",
      8000
    ],
    [
      "Weights",
      9000
    ]
  ],
  "cycles": [
    [
      "WeightFetch",
      7
    ],
    [
      "InputFetch",
      8
    ],
    [
      "KvFetch",
      9
    ],
    [
      "IntermediateFetch",
      10
    ],
    [
      "IntermediateStore",
      11
    ],
    [
      "OutputStore",
      12
    ],
    [
      "KvStore",
      13
    ],
    [
      "KvCache",
      14
    ],
    [
      "Weights",
      15
    ]
  ]
}"#;
}
