//! Multi-lane makespan scheduling for subarray-level parallelism.
//!
//! The serial [`crate::Engine`] executes one command at a time. pLUTo,
//! however, exploits MASA/SALP (paper §2.2, §5.5) to run many LUT queries
//! concurrently across subarrays. The binding global constraint is the
//! four-activate window (tFAW): at most four ACTs may issue per rank per
//! tFAW.
//!
//! [`ParallelScheduler`] computes the *makespan* of a set of per-subarray
//! command lanes under that constraint. Each lane is a sequence of steps;
//! steps that issue an activation must reserve a slot in the shared
//! activation window, while other steps (LISA hops, column accesses) proceed
//! independently. Energy is not computed here — it is additive and
//! unaffected by parallelism (paper §8.3) — the caller sums per-lane
//! energies instead.

use crate::units::Picos;
use std::collections::VecDeque;

/// Activations the rank admits per tFAW window.
const ACTS_PER_WINDOW: usize = 4;

/// The scheduling class of one step in a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// The step begins with a row activation and must reserve a tFAW slot.
    Act,
    /// The step issues no activation (precharge tail, LISA hop, I/O, …).
    Other,
}

/// One step of work on a lane: its scheduling class and duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStep {
    /// Scheduling class.
    pub kind: StepKind,
    /// How long the lane is busy executing the step.
    pub duration: Picos,
}

impl LaneStep {
    /// An activation-bearing step.
    pub const fn act(duration: Picos) -> Self {
        LaneStep {
            kind: StepKind::Act,
            duration,
        }
    }

    /// A non-activation step.
    pub const fn other(duration: Picos) -> Self {
        LaneStep {
            kind: StepKind::Other,
            duration,
        }
    }
}

/// A sequence of steps executed serially on one subarray.
#[derive(Debug, Clone, Default)]
pub struct Lane {
    steps: Vec<LaneStep>,
}

impl Lane {
    /// Creates an empty lane.
    pub fn new() -> Self {
        Lane::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: LaneStep) -> &mut Self {
        self.steps.push(step);
        self
    }

    /// Appends `n` copies of a step.
    pub fn push_repeated(&mut self, step: LaneStep, n: usize) -> &mut Self {
        self.steps.extend(std::iter::repeat(step).take(n));
        self
    }

    /// The steps in this lane.
    pub fn steps(&self) -> &[LaneStep] {
        &self.steps
    }

    /// Serial duration of the lane (no tFAW interference).
    pub fn serial_duration(&self) -> Picos {
        self.steps.iter().map(|s| s.duration).sum()
    }
}

impl FromIterator<LaneStep> for Lane {
    fn from_iter<I: IntoIterator<Item = LaneStep>>(iter: I) -> Self {
        Lane {
            steps: iter.into_iter().collect(),
        }
    }
}

/// Computes the parallel makespan of a set of lanes under a shared tFAW
/// constraint.
#[derive(Debug, Clone)]
pub struct ParallelScheduler {
    t_faw: Picos,
}

impl ParallelScheduler {
    /// Creates a scheduler enforcing at most four activations per `t_faw`
    /// window ([`Picos::ZERO`] disables the constraint, the paper's
    /// "tFAW = 0 s" configuration).
    pub fn new(t_faw: Picos) -> Self {
        ParallelScheduler { t_faw }
    }

    /// Returns the makespan: the time at which the last lane finishes when
    /// all lanes start at time zero and activations contend for the shared
    /// window (earliest-ready-first arbitration, FIFO tie-break).
    pub fn makespan(&self, lanes: &[Lane]) -> Picos {
        let mut ready: Vec<Picos> = vec![Picos::ZERO; lanes.len()];
        let mut next_step: Vec<usize> = vec![0; lanes.len()];
        let mut window: VecDeque<Picos> = VecDeque::with_capacity(ACTS_PER_WINDOW);
        let mut finish = Picos::ZERO;

        // Process steps globally in earliest-ready order so that the shared
        // activation window is granted fairly.
        loop {
            // Pick the unfinished lane with the earliest ready time.
            let mut best: Option<usize> = None;
            for (i, lane) in lanes.iter().enumerate() {
                if next_step[i] < lane.steps.len() {
                    match best {
                        None => best = Some(i),
                        Some(b) if ready[i] < ready[b] => best = Some(i),
                        _ => {}
                    }
                }
            }
            let Some(i) = best else { break };
            let step = lanes[i].steps[next_step[i]];
            next_step[i] += 1;
            let start = match step.kind {
                StepKind::Act => {
                    let mut at = ready[i];
                    if self.t_faw > Picos::ZERO {
                        if window.len() >= ACTS_PER_WINDOW {
                            let gate = window[window.len() - ACTS_PER_WINDOW] + self.t_faw;
                            at = at.max(gate);
                        }
                        window.push_back(at);
                        while window.len() > ACTS_PER_WINDOW {
                            window.pop_front();
                        }
                    }
                    at
                }
                StepKind::Other => ready[i],
            };
            ready[i] = start + step.duration;
            finish = finish.max(ready[i]);
        }
        finish
    }

    /// Convenience: makespan of `n` identical lanes.
    pub fn makespan_uniform(&self, lane: &Lane, n: usize) -> Picos {
        let lanes: Vec<Lane> = std::iter::repeat(lane.clone()).take(n).collect();
        self.makespan(&lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: f64) -> Picos {
        Picos::from_ns(x)
    }

    #[test]
    fn single_lane_is_serial_sum() {
        let mut lane = Lane::new();
        lane.push(LaneStep::act(ns(14.0)))
            .push(LaneStep::other(ns(14.0)))
            .push(LaneStep::act(ns(14.0)));
        let sched = ParallelScheduler::new(ns(13.328));
        assert_eq!(sched.makespan(&[lane.clone()]), lane.serial_duration());
    }

    #[test]
    fn unconstrained_lanes_run_fully_parallel() {
        let mut lane = Lane::new();
        lane.push_repeated(LaneStep::act(ns(28.0)), 10);
        let sched = ParallelScheduler::new(Picos::ZERO); // tFAW disabled
        let one = sched.makespan_uniform(&lane, 1);
        let sixteen = sched.makespan_uniform(&lane, 16);
        assert_eq!(one, sixteen, "no shared constraint => perfect scaling");
    }

    #[test]
    fn tfaw_binds_many_parallel_lanes() {
        // 16 lanes each issuing 10 ACTs of 28 ns. Aggregate demand:
        // 160 ACTs. Allowed rate: 4 per 13.328 ns. Lower bound:
        // (160 - 4) / 4 * 13.328 ns ≈ 519 ns > serial lane time 280 ns.
        let mut lane = Lane::new();
        lane.push_repeated(LaneStep::act(ns(28.0)), 10);
        let sched = ParallelScheduler::new(ns(13.328));
        let t = sched.makespan_uniform(&lane, 16);
        assert!(t > ns(280.0), "tFAW must throttle: {t}");
        assert!(t >= ns(13.328 * 156.0 / 4.0));
    }

    #[test]
    fn tfaw_never_slows_a_single_slow_lane() {
        // ACT spacing (28 ns) already exceeds tFAW/4; four lanes of this
        // kind demand 4 ACTs per 28 ns < 4 per 13.328 ns allowed.
        let mut lane = Lane::new();
        lane.push_repeated(LaneStep::act(ns(28.0)), 8);
        let sched = ParallelScheduler::new(ns(13.328));
        let one = sched.makespan_uniform(&lane, 1);
        assert_eq!(one, lane.serial_duration());
    }

    #[test]
    fn other_steps_do_not_contend() {
        let mut lane = Lane::new();
        lane.push_repeated(LaneStep::other(ns(28.0)), 10);
        let sched = ParallelScheduler::new(ns(13.328));
        assert_eq!(
            sched.makespan_uniform(&lane, 64),
            lane.serial_duration(),
            "non-ACT steps are unconstrained"
        );
    }

    #[test]
    fn makespan_monotone_in_lane_count() {
        let mut lane = Lane::new();
        lane.push_repeated(LaneStep::act(ns(10.0)), 16);
        let sched = ParallelScheduler::new(ns(13.328));
        let mut prev = Picos::ZERO;
        for n in [1usize, 2, 4, 8, 16, 32] {
            let t = sched.makespan_uniform(&lane, n);
            assert!(t >= prev, "makespan must not shrink as lanes are added");
            prev = t;
        }
    }

    #[test]
    fn empty_lanes_finish_instantly() {
        let sched = ParallelScheduler::new(ns(13.328));
        assert_eq!(sched.makespan(&[]), Picos::ZERO);
        assert_eq!(sched.makespan(&[Lane::new()]), Picos::ZERO);
    }

    #[test]
    fn from_iterator_builds_lane() {
        let lane: Lane = (0..3).map(|_| LaneStep::act(ns(1.0))).collect();
        assert_eq!(lane.steps().len(), 3);
    }
}
