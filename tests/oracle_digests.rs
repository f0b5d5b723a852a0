//! Frozen oracle corpus for the serving scheduler.
//!
//! A per-tick scan core used to serve as the event-driven core's reference
//! oracle. Before it was deleted, it served every case of the fixed, seeded
//! matrix below, and this suite recorded an FNV-1a/64 digest of each
//! outcome's serialized report (or of its typed error's message) in
//! `tests/golden/oracle_digests.json`. The event core must reproduce every
//! digest, so it stays pinned to the retired oracle byte for byte. One test
//! checks each scheduler family (single chip, replica cluster, heterogeneous
//! fleet, disaggregation, and speculative cases of any mode).
//!
//! Every case draws each feature axis independently from one std-only
//! xorshift stream: serving mode (single chip, replica cluster,
//! heterogeneous fleet, disaggregation), batch cap, KV policy, page size,
//! budget, admission, KV layout and compression, speculation and weight
//! residency. The corpus checks itself too: every value in [`COVERAGE`]
//! must occur in at least [`MIN_OCCURRENCES`] cases and the digests must
//! be pairwise distinct, so shrinking the generator fails loudly. Regenerate
//! only for an intentional report change, since that re-pins the corpus to
//! the current core: `MEADOW_UPDATE_GOLDEN=1 cargo test --test oracle_digests`.

mod common;

use common::{fnv1a64, requests_from_seed, spread_models};
use meadow::core::cluster::{
    Colocated, LeastLoadedKv, LeastLoadedWeighted, PrefillDecodeSplit, RoundRobin, SessionAffinity,
    ToLeastLoaded,
};
use meadow::core::serve::{AdmissionPolicy, KvPolicy, ServeConfig, SpecDecode};
use meadow::core::spec::{ServeOutcome, ServeSpec, ServeSpecBuilder};
use meadow::core::{CoreError, EngineConfig, MeadowEngine};
use meadow::models::workload::ArrivalTrace;
use meadow::models::{presets, KvCompression, KvLayout};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::{Once, OnceLock};

const CASES: usize = 200;
const MIN_OCCURRENCES: usize = 5;

/// Every `axis=value` tag the corpus must exercise.
const COVERAGE: &str = "mode=single mode=cluster mode=fleet mode=disaggregated \
    placement=round-robin placement=least-loaded-kv placement=session-affinity \
    placement=least-loaded-weighted phases=colocated phases=prefill-decode-split migration=on \
    migration=off policy=fifo policy=lru policy=paged-lru budget=unbounded budget=bounded \
    admission=queue admission=reject-after layout=dense layout=grouped-heads \
    layout=sliding-window compression=none compression=veda-vote speculation=on \
    speculation=off weights=resident weights=sequential weights=streamed";

/// Std-only xorshift64 stream that tags every draw as `axis=value`.
struct Draw {
    state: u64,
    tags: Vec<String>,
}

impl Draw {
    fn below(&mut self, bound: u64) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state % bound
    }

    /// One of `options`, tagged with its name (which may carry further
    /// space-separated `key=value` parameters).
    fn pick<T: Copy>(&mut self, axis: &str, options: &[(&str, T)]) -> T {
        let (name, value) = options[self.below(options.len() as u64) as usize];
        self.tags.push(format!("{axis}={name}"));
        value
    }

    /// One of `values`, tagged with the value itself.
    fn value<T: Copy + Display>(&mut self, axis: &str, values: &[T]) -> T {
        let value = values[self.below(values.len() as u64) as usize];
        self.tags.push(format!("{axis}={value}"));
        value
    }

    /// A number in `lo..lo + span`, tagged with itself.
    fn num(&mut self, axis: &str, lo: u64, span: u64) -> u64 {
        let value = lo + self.below(span);
        self.tags.push(format!("{axis}={value}"));
        value
    }
}

/// One corpus case: its label (the space-joined tags) and what it serves.
struct Case {
    label: String,
    builder: ServeSpecBuilder,
    trace: ArrivalTrace,
}

fn draw_case(d: &mut Draw) -> Case {
    d.tags.clear();
    let model = presets::tiny_decoder();
    let mut builder = ServeSpec::builder();
    let mode = d.pick("mode", &[("single", 0), ("cluster", 1), ("fleet", 2), ("disaggregated", 3)]);
    if mode == 1 {
        builder = builder.chips(d.value("chips", &[1, 2, 3, 4]));
        let placements = [("round-robin", 0), ("least-loaded-kv", 1), ("session-affinity", 2)];
        builder = match d.pick("placement", &placements) {
            0 => builder.placement(RoundRobin),
            1 => builder.placement(LeastLoadedKv),
            _ => builder.placement(SessionAffinity),
        };
    } else if mode == 2 {
        let littles = d.value("littles", &[1, 2]);
        let hops: Vec<u32> = (0..littles).map(|_| d.value("hops", &[1, 3])).collect();
        let mut specs = vec![EngineConfig::zcu102(model.clone(), 12.0)];
        specs.extend(hops.iter().map(|_| EngineConfig::zcu102_little(model.clone(), 6.0)));
        d.tags.push("placement=least-loaded-weighted".to_string());
        builder = builder.chip_specs(specs).link_hops(hops).placement(LeastLoadedWeighted);
    } else if mode == 3 {
        let chips = d.num("chips", 2, 3);
        builder = builder.chips(chips as usize);
        builder = if d.pick("phases", &[("colocated", false), ("prefill-decode-split", true)]) {
            let prefill_chips = d.num("prefill-chips", 1, chips - 1) as usize;
            builder.phases(PrefillDecodeSplit { prefill_chips })
        } else {
            builder.phases(Colocated)
        };
    }
    if (mode == 1 || mode == 2) && d.pick("migration", &[("off", false), ("on", true)]) {
        builder = builder.migration(ToLeastLoaded);
    }

    let seed = d.num("trace-seed", 0, 1_000_000);
    let requests = d.num("requests", 1, 24) as usize;
    let step_ms = d.value("step-ms", &[0.05, 0.5, 2.0]);
    let mut trace = requests_from_seed(seed, requests, 24, 8, step_ms);
    for r in &mut trace.requests {
        *r = r.with_affinity(d.below(3) as u32);
    }
    let policies =
        [("fifo", KvPolicy::Fifo), ("lru", KvPolicy::Lru), ("paged-lru", KvPolicy::PagedLru)];
    let mut config = ServeConfig::default()
        .with_max_batch(d.value("max-batch", &[1, 2, 4, 8, usize::MAX]))
        .with_policy(d.pick("policy", &policies))
        .with_page_bytes(d.value("page-bytes", &[64, 256, 1024, ServeConfig::DEFAULT_PAGE_BYTES]));
    let budgets = [
        ("unbounded", 0),
        ("bounded peaks=1", 1),
        ("bounded peaks=2", 2),
        ("bounded peaks=3", 3),
        ("bounded peaks=5", 5),
    ];
    let multiplier = d.pick("budget", &budgets);
    if multiplier > 0 {
        let peak = trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap_or(1);
        config = config.with_budget(multiplier * peak);
    }
    let reject = |ttft_slo_ms| AdmissionPolicy::RejectAfter { ttft_slo_ms };
    config = config.with_admission(d.pick(
        "admission",
        &[
            ("queue", AdmissionPolicy::Queue),
            ("reject-after slo-ms=1", reject(1.0)),
            ("reject-after slo-ms=5", reject(5.0)),
            ("reject-after slo-ms=50", reject(50.0)),
        ],
    ));
    config = config.with_kv_layout(d.pick(
        "layout",
        &[
            ("dense", KvLayout::Dense),
            ("grouped-heads kv-heads=1", KvLayout::GroupedHeads { kv_heads: 1 }),
            ("grouped-heads kv-heads=2", KvLayout::GroupedHeads { kv_heads: 2 }),
            ("sliding-window window=8 sinks=2", KvLayout::SlidingWindow { window: 8, sinks: 2 }),
            ("sliding-window window=16 sinks=4", KvLayout::SlidingWindow { window: 16, sinks: 4 }),
        ],
    ));
    let veda = |keep_ratio| KvCompression::VedaVote { keep_ratio };
    config = config.with_kv_compression(d.pick(
        "compression",
        &[
            ("none", KvCompression::None),
            ("veda-vote keep=0.5", veda(0.5)),
            ("veda-vote keep=0.75", veda(0.75)),
            ("veda-vote keep=0.9", veda(0.9)),
        ],
    ));
    if d.pick("speculation", &[("off", false), ("on", true)]) {
        config = config.with_speculation(SpecDecode {
            draft_len: d.num("draft-len", 1, 5) as usize,
            acceptance: d.value("acceptance", &[0.0, 0.3, 0.7, 0.9, 1.0]),
            draft_cost_ratio: d.value("draft-cost", &[0.1, 0.3, 0.5]),
        });
    }
    let residency = [("resident", None), ("sequential", Some(false)), ("streamed", Some(true))];
    if let Some(streaming) = d.pick("weights", &residency) {
        trace = spread_models(trace, 2);
        config =
            config.with_weight_budget(model.total_weight_bytes()).with_weight_streaming(streaming);
    }
    Case { label: d.tags.join(" "), builder: builder.config(config), trace }
}

fn cases() -> Vec<Case> {
    let mut d = Draw { state: 0x00C0_FFEE_0AC1_E5ED, tags: Vec::new() };
    (0..CASES).map(|_| draw_case(&mut d)).collect()
}

/// Serves one case: the FNV-1a/64 of its serialized outcome (or of the
/// message of the typed error it ended in), and its label.
fn digest(case: Case, engine: &MeadowEngine) -> (String, String) {
    let spec = case.builder.build();
    let outcome = spec.map_err(CoreError::from).and_then(|s| s.run(engine, &case.trace));
    let text = match outcome {
        Ok(ServeOutcome::Single(r)) => r.to_json().unwrap(),
        Ok(ServeOutcome::Cluster(r)) => r.to_json().unwrap(),
        Ok(ServeOutcome::Disaggregated(r)) => r.to_json().unwrap(),
        Err(e) => e.to_string(),
    };
    (fnv1a64(&text), case.label)
}

/// `(digest, label)` of every case, computed once per test binary.
fn corpus() -> &'static [(String, String)] {
    static CORPUS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let engine =
            MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
        cases().into_iter().map(|case| digest(case, &engine)).collect()
    })
}

/// The scheduler family a case's label puts it in: speculative cases form
/// their own family, every other case belongs to its serving mode.
fn family(label: &str) -> &str {
    if label.contains(" speculation=on") {
        return "speculation";
    }
    label.split(' ').next().and_then(|tag| tag.strip_prefix("mode=")).unwrap_or(label)
}

/// Checks every corpus case of `family` against its recorded digest and
/// label. Families partition the corpus, so the family tests together
/// hold every case to the oracle.
fn reproduces_the_oracle(family_name: &str) {
    let got = corpus();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/oracle_digests.json");
    if std::env::var_os("MEADOW_UPDATE_GOLDEN").is_some() {
        static WRITE: Once = Once::new();
        WRITE.call_once(|| {
            // One `[digest, label]` pair per line, so a diff names the cases.
            let rows: Vec<String> =
                got.iter().map(|(d, l)| format!("  [\"{d}\", \"{l}\"]")).collect();
            std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n"))).unwrap();
            eprintln!("regenerated {}", path.display());
        });
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let want: Vec<(String, String)> = serde_json::from_str(&text).unwrap();
    assert_eq!(want.len(), got.len(), "{} holds a different case count", path.display());
    let members: Vec<usize> =
        (0..got.len()).filter(|&i| family(&got[i].1) == family_name).collect();
    assert!(!members.is_empty(), "the corpus has no {family_name} cases");
    let diverged: Vec<String> = members
        .into_iter()
        .filter(|&i| want[i] != got[i])
        .map(|i| format!("case {i}: recorded {:?}, got {:?}", want[i], got[i]))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} {family_name} cases left the oracle:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn single_chip_cases_reproduce_the_oracle() {
    reproduces_the_oracle("single");
}

#[test]
fn cluster_cases_reproduce_the_oracle() {
    reproduces_the_oracle("cluster");
}

#[test]
fn hetero_cluster_cases_reproduce_the_oracle() {
    reproduces_the_oracle("fleet");
}

#[test]
fn disaggregated_cases_reproduce_the_oracle() {
    reproduces_the_oracle("disaggregated");
}

#[test]
fn speculation_cases_reproduce_the_oracle() {
    reproduces_the_oracle("speculation");
}

#[test]
fn corpus_covers_every_axis_value() {
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    for case in cases() {
        for tag in case.label.split(' ') {
            *tally.entry(tag.to_string()).or_default() += 1;
        }
    }
    let thin: Vec<String> = COVERAGE
        .split_whitespace()
        .map(|tag| (tag, tally.get(tag).copied().unwrap_or(0)))
        .filter(|&(_, n)| n < MIN_OCCURRENCES)
        .map(|(tag, n)| format!("{tag}: {n}"))
        .collect();
    assert!(thin.is_empty(), "axis values in fewer than {MIN_OCCURRENCES} cases: {thin:?}");
}

#[test]
fn corpus_digests_are_pairwise_distinct() {
    let mut seen = HashSet::new();
    let repeats: Vec<_> = corpus().iter().filter(|(digest, _)| !seen.insert(digest)).collect();
    assert!(repeats.is_empty(), "cases repeat an earlier digest: {repeats:?}");
}
