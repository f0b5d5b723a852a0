//! Cross-crate substrate checks: the hardware models compose correctly with
//! the numeric references they are supposed to implement.

use meadow::sim::event::{EventSim, TaskKind};
use meadow::sim::pe::{BroadcastingMacPe, ParallelMacPe};
use meadow::sim::softmax_unit::SoftmaxUnit;
use meadow::sim::{ChipConfig, Cycles};
use meadow::tensor::gemm::dot_i8;
use meadow::tensor::softmax::softmax_row_exact;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_pe_computes_exact_dot_products(
        a in proptest::collection::vec(any::<i8>(), 1..256),
        b_seed in any::<u64>(),
    ) {
        let b: Vec<i8> = a.iter().enumerate()
            .map(|(i, _)| ((b_seed >> (i % 56)) & 0xFF) as u8 as i8)
            .collect();
        let pe = ParallelMacPe::default();
        let (acc, cycles) = pe.execute_dot(&a, &b);
        let exact: i32 = a.iter().zip(&b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
        prop_assert_eq!(acc, exact);
        prop_assert_eq!(cycles, Cycles((a.len() as u64).div_ceil(64)));
    }

    #[test]
    fn broadcasting_pe_matches_transposed_dot(
        x in proptest::collection::vec(-20i8..=20, 1..32),
        width in 1usize..16,
    ) {
        let rows: Vec<Vec<i8>> = (0..x.len())
            .map(|i| (0..width).map(|j| ((i * 7 + j * 3) % 25) as i8 - 12).collect())
            .collect();
        let row_refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        let mut out = vec![0i32; width];
        BroadcastingMacPe::default().execute_broadcast(&x, &row_refs, &mut out);
        for (j, &o) in out.iter().enumerate() {
            let col: Vec<i8> = rows.iter().map(|r| r[j]).collect();
            prop_assert_eq!(o, dot_i8(&x, &col));
        }
    }

    #[test]
    fn softmax_unit_tracks_reference(row in proptest::collection::vec(-6.0f32..6.0, 1..64)) {
        let unit = SoftmaxUnit::default();
        let (approx, cycles) = unit.execute_row(&row);
        let exact = softmax_row_exact(&row);
        for (a, e) in approx.iter().zip(&exact) {
            prop_assert!((a - e).abs() < 0.03, "{} vs {}", a, e);
        }
        prop_assert_eq!(cycles, Cycles(3 * row.len() as u64));
    }

    #[test]
    fn event_sim_makespan_bounds(
        durations in proptest::collection::vec(1u64..100, 1..20),
    ) {
        // All tasks on one resource: makespan = sum. Across resources with
        // no deps: makespan = max per-resource sum.
        let mut sim = EventSim::new();
        let r = sim.add_resource("only");
        for &d in &durations {
            sim.submit(r, TaskKind::Compute, Cycles(d), &[]).unwrap();
        }
        prop_assert_eq!(sim.makespan(), Cycles(durations.iter().sum::<u64>()));

        let mut sim = EventSim::new();
        let r1 = sim.add_resource("a");
        let r2 = sim.add_resource("b");
        let mut sums = [0u64, 0];
        for (i, &d) in durations.iter().enumerate() {
            let r = if i % 2 == 0 { r1 } else { r2 };
            sums[i % 2] += d;
            sim.submit(r, TaskKind::Compute, Cycles(d), &[]).unwrap();
        }
        prop_assert_eq!(sim.makespan(), Cycles(sums[0].max(sums[1])));
    }
}

#[test]
fn chip_scaling_preserves_validity() {
    for pes in [2usize, 8, 14, 36, 48, 96, 200] {
        let chip = ChipConfig::zcu102_with_total_pes(pes);
        chip.validate().unwrap_or_else(|e| panic!("{pes} PEs: {e}"));
        assert!(chip.total_pes() >= 2);
    }
}

#[test]
fn dependency_chains_serialize_across_resources() {
    let mut sim = EventSim::new();
    let dma = sim.add_resource("dma");
    let pe = sim.add_resource("pe");
    let mut prev = None;
    let mut expected = 0;
    for i in 0..10u64 {
        let deps: Vec<_> = prev.into_iter().collect();
        let r = if i % 2 == 0 { dma } else { pe };
        let t = sim.submit(r, TaskKind::Compute, Cycles(i + 1), &deps).unwrap();
        expected += i + 1;
        prev = Some(t);
    }
    assert_eq!(sim.makespan(), Cycles(expected));
}
