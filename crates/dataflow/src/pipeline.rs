//! Flow-shop scheduling for the TPHS stage pipeline.
//!
//! TPHS pushes waves of tokens through a linear chain of stages
//! (Q → QKᵀ → MAX → EXP → DIV → SM·V) connected by double-buffered pipeline
//! registers (capacity-1 buffers, Fig. 2b). `flow_shop_makespan` gives the
//! closed form for uniform per-wave service times; [`flow_shop_schedule`]
//! simulates arbitrary per-item times with blocking, used both to validate
//! the closed form and to model ragged pipelines.

use meadow_sim::Cycles;

/// Makespan of `items` identical jobs through stages with the given service
/// times, with unlimited intermediate buffering (equivalently capacity-1
/// buffers — with deterministic uniform times no blocking ever occurs):
/// `Σ stage_times + (items − 1) · max(stage_times)`.
pub(crate) fn flow_shop_makespan(stage_times: &[Cycles], items: usize) -> Cycles {
    if items == 0 || stage_times.is_empty() {
        return Cycles::ZERO;
    }
    let sum: Cycles = stage_times.iter().copied().sum();
    let bottleneck = stage_times.iter().copied().fold(Cycles::ZERO, Cycles::max);
    sum + Cycles(bottleneck.get() * (items as u64 - 1))
}

/// Event-accurate *blocking* flow shop with possibly per-item service times.
///
/// `times[i][s]` is the service time of item `i` at stage `s`. An item may
/// only leave stage `s` when stage `s+1` is free (blocking); stages process
/// items in order. This is the zero-buffer semantics — a conservative bound
/// for the double-buffered PREGs, and exact for the uniform-time waves TPHS
/// actually schedules (where no blocking occurs and the closed form holds,
/// as the property tests verify).
///
/// Returns the completion time of the last item, or zero for empty input.
///
/// # Panics
///
/// Panics if rows have inconsistent stage counts (caller constructs the
/// matrix).
pub fn flow_shop_schedule(times: &[Vec<Cycles>]) -> Cycles {
    flow_shop_completion_times(times).last().copied().unwrap_or(Cycles::ZERO)
}

/// Per-item completion times of the blocking flow shop of
/// [`flow_shop_schedule`]: entry `i` is when item `i` leaves the last stage.
///
/// Items traverse the stages in order, so completion times are
/// non-decreasing and the last entry is the makespan. The serving simulator
/// uses this to give each request in a continuous-batching macro-step its
/// own first-token / finish timestamp (stages = decoder layers, items =
/// per-session steps) instead of charging the whole batch makespan to every
/// request.
///
/// # Panics
///
/// Panics if rows have inconsistent stage counts (caller constructs the
/// matrix).
pub fn flow_shop_completion_times(times: &[Vec<Cycles>]) -> Vec<Cycles> {
    let items = times.len();
    if items == 0 {
        return Vec::new();
    }
    let stages = times[0].len();
    if stages == 0 {
        return vec![Cycles::ZERO; items];
    }
    // depart[s] = time the most recent item left stage s (stage free again).
    let mut depart = vec![Cycles::ZERO; stages + 1];
    let mut finishes = Vec::with_capacity(items);
    for item in times {
        assert_eq!(item.len(), stages, "ragged stage-time matrix");
        // enter[s]: when this item starts service at stage s.
        let mut ready = Cycles::ZERO; // item available at stage 0 immediately
        for (s, &dur) in item.iter().enumerate() {
            // Start when the item is ready and the stage is free.
            let start = ready.max(depart[s]);
            let service_done = start + dur;
            // With a capacity-1 output buffer, the item occupies the stage
            // until the next stage has accepted the previous item, i.e. the
            // stage frees at max(service_done, depart[s + 1]).
            let leave = service_done.max(depart[s + 1]);
            depart[s] = leave;
            ready = service_done.max(depart[s + 1]);
            if s == stages - 1 {
                depart[s] = service_done;
                ready = service_done;
                finishes.push(service_done);
            }
        }
    }
    finishes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_simulation_for_uniform_times() {
        for stages in 1..5usize {
            for items in 1..8usize {
                let stage_times: Vec<Cycles> =
                    (0..stages).map(|s| Cycles(10 + 3 * s as u64)).collect();
                let matrix: Vec<Vec<Cycles>> = (0..items).map(|_| stage_times.clone()).collect();
                assert_eq!(
                    flow_shop_schedule(&matrix),
                    flow_shop_makespan(&stage_times, items),
                    "stages {stages} items {items}"
                );
            }
        }
    }

    #[test]
    fn single_item_is_sum_of_stages() {
        let times = [Cycles(5), Cycles(7), Cycles(2)];
        assert_eq!(flow_shop_makespan(&times, 1), Cycles(14));
    }

    #[test]
    fn bottleneck_dominates_throughput() {
        let times = [Cycles(1), Cycles(100), Cycles(1)];
        // 102 + 9*100
        assert_eq!(flow_shop_makespan(&times, 10), Cycles(1002));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(flow_shop_makespan(&[], 5), Cycles::ZERO);
        assert_eq!(flow_shop_makespan(&[Cycles(5)], 0), Cycles::ZERO);
        assert_eq!(flow_shop_schedule(&[]), Cycles::ZERO);
        assert_eq!(flow_shop_schedule(&[vec![]]), Cycles::ZERO);
        assert!(flow_shop_completion_times(&[]).is_empty());
        assert_eq!(flow_shop_completion_times(&[vec![], vec![]]), vec![Cycles::ZERO; 2]);
    }

    #[test]
    fn completion_times_are_monotone_and_end_at_the_makespan() {
        let matrix: Vec<Vec<Cycles>> =
            (0..7).map(|i| vec![Cycles(3 + i % 4), Cycles(9 - i), Cycles(2 + i)]).collect();
        let finishes = flow_shop_completion_times(&matrix);
        assert_eq!(finishes.len(), 7);
        assert!(finishes.windows(2).all(|w| w[0] <= w[1]), "{finishes:?}");
        assert_eq!(*finishes.last().unwrap(), flow_shop_schedule(&matrix));
        // Single item: completion is the sum of its stage times.
        let single = flow_shop_completion_times(&[vec![Cycles(5), Cycles(7), Cycles(2)]]);
        assert_eq!(single, vec![Cycles(14)]);
    }

    #[test]
    fn blocking_delays_upstream() {
        // Item 0 is slow at stage 1; item 1 must wait at stage 0's buffer.
        let matrix = vec![vec![Cycles(1), Cycles(50)], vec![Cycles(1), Cycles(1)]];
        let makespan = flow_shop_schedule(&matrix);
        // Item 0 finishes at 1+50 = 51; item 1 can only start stage 1 at 51,
        // finishing at 52.
        assert_eq!(makespan, Cycles(52));
    }

    #[test]
    fn ragged_times_are_handled() {
        // Decreasing service times: later items catch up but never overtake.
        let matrix = vec![
            vec![Cycles(10), Cycles(10)],
            vec![Cycles(5), Cycles(5)],
            vec![Cycles(1), Cycles(1)],
        ];
        let makespan = flow_shop_schedule(&matrix);
        // item0: s0 0-10, s1 10-20. item1: s0 starts 10, done 15, blocked in
        // s0 until s1 frees at 20, s1 20-25. item2: s0 starts 20 (when item1
        // vacates), done 21, blocked until 25, s1 25-26.
        assert_eq!(makespan, Cycles(26));
    }

    #[test]
    fn lower_bound_holds() {
        // Makespan is at least items × bottleneck for any schedule.
        let matrix: Vec<Vec<Cycles>> =
            (0..6).map(|i| vec![Cycles(3 + i), Cycles(9), Cycles(2)]).collect();
        let makespan = flow_shop_schedule(&matrix);
        assert!(makespan >= Cycles(6 * 9));
    }
}
