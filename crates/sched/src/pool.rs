//! A fixed-size worker pool with deterministic result ordering.
//!
//! Coalition windows are embarrassingly parallel: each shard owns its
//! keys, named RNG streams and network fabric, so *what* is computed is
//! independent of *where/when* it runs. This pool exploits that: jobs are
//! pulled from a shared queue by `workers` OS threads, results land in
//! their input slot, and the output order is always the input order —
//! making grid runs bit-identical at any worker count.

use std::collections::VecDeque;
use std::sync::Mutex;

use pem_telemetry::Counter;

/// Jobs run by a worker other than their round-robin home (`i % workers`)
/// — how much the shared queue actually rebalances.
static STEALS: Counter = Counter::new();

fn register_pool_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("sched/steals", &STEALS);
    });
}

/// Runs `job` over every input on `workers` threads, returning results
/// in input order.
///
/// `job` receives `(index, input)`. With `workers <= 1` everything runs
/// on the calling thread (no spawn overhead).
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn run_indexed<I, O, F>(workers: usize, inputs: Vec<I>, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Send + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    if workers <= 1 || n == 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| job(i, input))
            .collect();
    }

    register_pool_metrics();
    let spawned = workers.min(n);
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(inputs.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    {
        let job = &job;
        let queue = &queue;
        let results = &results;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned)
                .map(|w| {
                    scope.spawn(move || loop {
                        let next = queue.lock().expect("queue lock").pop_front();
                        match next {
                            Some((i, input)) => {
                                if i % spawned != w {
                                    STEALS.incr();
                                }
                                let out = job(i, input);
                                results.lock().expect("results lock")[i] = Some(out);
                            }
                            None => break,
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker thread panicked");
            }
        });
    }

    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let inputs: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 4, 8, 64] {
            let out = run_indexed(workers, inputs.clone(), |i, v| {
                // Stagger to shuffle completion order.
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                v * 2
            });
            assert_eq!(out, inputs.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(4, empty, |_, v: u8| v).is_empty());
        assert_eq!(run_indexed(4, vec![9], |i, v| (i, v)), vec![(0, 9)]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = run_indexed(16, vec![1, 2, 3], |_, v| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
