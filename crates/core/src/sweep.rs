//! Deterministic fan-out of independent runs across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Fans independent experiment cells — (scheme × load × seed) tuples, or
/// anything else `Send` — across scoped worker threads with
/// **deterministic** semantics: workers take cells by index from an atomic
/// counter, and each result lands in its cell's slot, so results come back
/// in cell order no matter which worker finished first. A cell's
/// randomness comes from the seed its caller put in it, never from thread
/// identity or wall clock, so `--jobs 1` and `--jobs 8` give byte-identical
/// per-cell results (`uno-bench`'s `sweep_determinism` test holds the
/// runner to this).
///
/// The simulator itself stays single-threaded; all parallelism lives here,
/// across independent runs.
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// Runner with `jobs` worker threads (0 = one per available core).
    pub fn new(jobs: usize) -> Self {
        let jobs = match jobs {
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        SweepRunner { jobs }
    }

    /// Worker threads this runner fans out across.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f(index, cell)` for every cell, in parallel, collecting results
    /// in cell order. At most one worker per cell is started.
    pub fn run<C, T, F>(&self, cells: Vec<C>, f: F) -> Vec<T>
    where
        C: Send,
        T: Send,
        F: Fn(usize, C) -> T + Sync,
    {
        let n = cells.len();
        let inputs: Vec<Mutex<Option<C>>> =
            cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let outputs: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..self.jobs.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = inputs[i].lock().unwrap().take().expect("cell taken once");
                    let out = f(i, cell);
                    *outputs[i].lock().unwrap() = Some(out);
                });
            }
        });
        outputs
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every cell ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runner_orders_results_and_reports_jobs() {
        let runner = SweepRunner::new(3);
        assert_eq!(runner.jobs(), 3);
        let cells: Vec<(u64, u64)> = (0..12).map(|i| (i, i * i)).collect();
        let out = runner.run(cells.clone(), |idx, (a, b)| (idx, a + b));
        let want: Vec<(usize, u64)> = cells.iter().map(|&(a, b)| (a as usize, a + b)).collect();
        assert_eq!(out, want);
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert!(runner.run(Vec::<u8>::new(), |_, c| c).is_empty());
    }
}
