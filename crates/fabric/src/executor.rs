//! The deterministic single-thread executor.
//!
//! One thread, N poll-able tasks: the executor admits tasks in index
//! order (optionally in bounded batches) and round-robins over the
//! resident ones, polling each once per round. Because every task owns
//! its state — fabric, RNG streams, keys — *what* a task computes is
//! independent of *when* it is polled, so outputs are bit-identical at
//! any batch size; the batch bound only caps how many protocol instances
//! are resident (memory) at once.

use pem_telemetry::Counter;

/// Polls executed across all executor runs (telemetry; empty until a
/// collector is installed).
static POLLS: Counter = Counter::new();

fn register_fabric_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| pem_telemetry::register_counter("fabric/polls", &POLLS));
}

/// Result of polling a task once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll<T> {
    /// The task made (at most) one unit of progress and wants to be
    /// polled again.
    Pending,
    /// The task completed with this output.
    Ready(T),
}

/// A unit of multiplexable work: one coalition window, one protocol
/// instance, one anything that advances in discrete steps.
///
/// # Contract
///
/// [`poll`](Self::poll) advances the task by one step and never blocks:
/// a task whose next message has not arrived returns an error (e.g.
/// `NetError::Empty`) rather than waiting. A task is polled once per
/// scheduling round until it returns [`Poll::Ready`] or an error.
pub trait FabricTask {
    /// What the task produces when it completes.
    type Output;
    /// Error type surfaced through [`Executor::run`].
    type Error;

    /// Advances the task by one step.
    ///
    /// # Errors
    ///
    /// Task-specific failures; the executor evicts the task.
    fn poll(&mut self) -> Result<Poll<Self::Output>, Self::Error>;

    /// Unused: the executor polls every resident task each round. Kept
    /// (always `true`) only so existing implementations that still
    /// override it, such as the benchmark's no-op probe task, compile.
    fn is_ready(&self) -> bool {
        true
    }
}

/// What [`Executor::run_collect`] returns: one `Result` per input task,
/// in input order, plus the run's scheduling counters.
pub type Collected<O, E> = (Vec<Result<O, E>>, ExecutorReport);

/// Counters from one [`Executor::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorReport {
    /// Task polls executed.
    pub polls: u64,
    /// Maximum number of tasks resident at once.
    pub peak_resident: usize,
    /// Tasks completed.
    pub completed: usize,
}

/// The deterministic single-thread task scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    /// Admission batch: at most this many tasks resident at once
    /// (`0` = admit everything immediately).
    batch: usize,
}

impl Executor {
    /// Creates an executor with the given admission batch size
    /// (`0` = unbounded: every task is admitted up front).
    pub fn new(batch: usize) -> Executor {
        Executor { batch }
    }

    /// Runs every task to completion, returning outputs in input order
    /// plus the run's scheduling counters — [`run_collect`] for callers
    /// that treat any task failure as fatal.
    ///
    /// # Errors
    ///
    /// The first task error, by input index.
    ///
    /// [`run_collect`]: Executor::run_collect
    pub fn run<T: FabricTask>(
        &self,
        tasks: Vec<T>,
    ) -> Result<(Vec<T::Output>, ExecutorReport), T::Error> {
        let (results, report) = self.run_collect(tasks);
        Ok((results.into_iter().collect::<Result<_, _>>()?, report))
    }

    /// Runs every task until it completes or fails, returning one
    /// `Result` per task in input order plus the run's scheduling
    /// counters. Failures are isolated: a task error evicts *that task
    /// only*, recorded as `Err` at its input index, while every other
    /// task runs to completion.
    ///
    /// Each round first admits tasks in index order up to the batch
    /// bound, then polls every resident task once in admission order,
    /// evicting it on [`Poll::Ready`] or an error. A freed slot admits
    /// the next waiting task at the top of the next round.
    pub fn run_collect<T: FabricTask>(&self, tasks: Vec<T>) -> Collected<T::Output, T::Error> {
        register_fabric_metrics();
        let n = tasks.len();
        let batch = if self.batch == 0 {
            n.max(1)
        } else {
            self.batch
        };
        let mut waiting = tasks.into_iter().enumerate();
        let mut active: Vec<(usize, T)> = Vec::new();
        let mut results: Vec<Option<Result<T::Output, T::Error>>> = (0..n).map(|_| None).collect();
        let mut report = ExecutorReport::default();

        loop {
            active.extend(waiting.by_ref().take(batch - active.len()));
            report.peak_resident = report.peak_resident.max(active.len());
            if active.is_empty() {
                break;
            }
            let mut i = 0;
            while i < active.len() {
                POLLS.incr();
                report.polls += 1;
                let result = match active[i].1.poll() {
                    Ok(Poll::Pending) => {
                        i += 1;
                        continue;
                    }
                    Ok(Poll::Ready(out)) => {
                        report.completed += 1;
                        Ok(out)
                    }
                    Err(e) => Err(e),
                };
                let (idx, _) = active.remove(i);
                results[idx] = Some(result);
            }
        }

        (
            results
                .into_iter()
                .map(|slot| slot.expect("every task resolved"))
                .collect(),
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task that completes after a fixed number of polls.
    struct Countdown {
        id: usize,
        remaining: u32,
    }

    impl FabricTask for Countdown {
        type Output = usize;
        type Error = &'static str;

        fn poll(&mut self) -> Result<Poll<usize>, &'static str> {
            self.remaining = self.remaining.saturating_sub(1);
            if self.remaining == 0 {
                Ok(Poll::Ready(self.id))
            } else {
                Ok(Poll::Pending)
            }
        }
    }

    fn countdowns(lens: &[u32]) -> Vec<Countdown> {
        lens.iter()
            .enumerate()
            .map(|(id, &remaining)| Countdown { id, remaining })
            .collect()
    }

    #[test]
    fn outputs_land_in_input_order_at_any_batch() {
        for batch in [0usize, 1, 2, 3, 64] {
            let (out, report) = Executor::new(batch)
                .run(countdowns(&[5, 1, 3, 2, 4]))
                .expect("run");
            assert_eq!(out, vec![0, 1, 2, 3, 4], "batch {batch}");
            assert_eq!(report.completed, 5);
            let expected_resident = if batch == 0 { 5 } else { batch.min(5) };
            assert_eq!(report.peak_resident, expected_resident);
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let (out, report) = Executor::new(0).run(Vec::<Countdown>::new()).expect("run");
        assert!(out.is_empty());
        assert_eq!(report, ExecutorReport::default());
    }

    #[test]
    fn poll_counts_are_deterministic() {
        let run = |batch| {
            Executor::new(batch)
                .run(countdowns(&[4, 4, 4]))
                .expect("run")
                .1
        };
        assert_eq!(run(0), run(0), "same schedule, same counters");
        // Unbounded admission: 3 tasks × 4 polls each.
        assert_eq!(run(0).polls, 12);
    }

    #[test]
    fn errors_abort_the_run() {
        struct Fails;
        impl FabricTask for Fails {
            type Output = ();
            type Error = &'static str;
            fn poll(&mut self) -> Result<Poll<()>, &'static str> {
                Err("boom")
            }
        }
        assert_eq!(Executor::new(0).run(vec![Fails]).unwrap_err(), "boom");
    }

    #[test]
    fn run_collect_isolates_failures() {
        /// Fails on its `fail_at`-th poll; completes otherwise.
        struct Mixed {
            id: usize,
            remaining: u32,
            fail_at: Option<u32>,
        }
        impl FabricTask for Mixed {
            type Output = usize;
            type Error = String;
            fn poll(&mut self) -> Result<Poll<usize>, String> {
                self.remaining -= 1;
                if self.fail_at == Some(self.remaining) {
                    return Err(format!("task {} failed", self.id));
                }
                if self.remaining == 0 {
                    Ok(Poll::Ready(self.id))
                } else {
                    Ok(Poll::Pending)
                }
            }
        }
        let tasks = |fail: bool| {
            (0..4usize)
                .map(|id| Mixed {
                    id,
                    remaining: 3,
                    fail_at: (fail && id == 2).then_some(1),
                })
                .collect::<Vec<_>>()
        };
        for batch in [0usize, 1, 2] {
            let (results, report) = Executor::new(batch).run_collect(tasks(true));
            assert_eq!(results.len(), 4, "batch {batch}");
            for (id, result) in results.iter().enumerate() {
                if id == 2 {
                    assert_eq!(*result, Err("task 2 failed".to_string()));
                } else {
                    assert_eq!(*result, Ok(id));
                }
            }
            assert_eq!(report.completed, 3);
        }
        // Fault-free run_collect matches run exactly (outputs + counters).
        let (ok, collect_report) = Executor::new(2).run_collect(tasks(false));
        let (out, run_report) = Executor::new(2).run(tasks(false)).expect("run");
        assert_eq!(ok.into_iter().collect::<Result<Vec<_>, _>>(), Ok(out));
        assert_eq!(collect_report, run_report);
    }

    #[test]
    fn readiness_is_never_consulted() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Logs its id on every poll; claims readiness per `ready`.
        struct Logged {
            id: usize,
            remaining: u32,
            ready: bool,
            log: Rc<RefCell<Vec<usize>>>,
        }
        impl FabricTask for Logged {
            type Output = usize;
            type Error = &'static str;
            fn poll(&mut self) -> Result<Poll<usize>, &'static str> {
                self.log.borrow_mut().push(self.id);
                self.remaining -= 1;
                Ok(if self.remaining == 0 {
                    Poll::Ready(self.id)
                } else {
                    Poll::Pending
                })
            }
            fn is_ready(&self) -> bool {
                self.ready
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let tasks = [false, true]
            .into_iter()
            .enumerate()
            .map(|(id, ready)| Logged {
                id,
                remaining: 3,
                ready,
                log: Rc::clone(&log),
            })
            .collect();
        let (out, report) = Executor::new(0).run(tasks).expect("run");
        assert_eq!(out, vec![0, 1]);
        assert_eq!(*log.borrow(), vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(report.polls, 6);
    }
}
