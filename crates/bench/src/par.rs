//! The batch-evaluation engine: fan independent work units across a
//! scoped worker pool.
//!
//! The experiments in this workspace are dominated by
//! embarrassingly parallel batches — evaluating one predicate against a
//! corpus of runs, generating runs across a seed range, classifying a
//! catalog of specifications. The [`Engine`] distributes such batches
//! over `std::thread::scope` workers with a shared atomic work index, so
//! heterogeneous work units balance dynamically.
//!
//! **Determinism**: [`Engine::par_map`] writes each result into the slot
//! of its input, so the output order is the input order regardless of
//! thread count or scheduling. With `threads == 1` the engine does not
//! spawn at all — it runs the plain sequential iterator, producing
//! bit-identical results and allocation behavior to a hand-written loop.
//!
//! Thread count comes from [`Engine::from_env`]: the `MSGORDER_THREADS`
//! environment variable if set, else the machine's available
//! parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker pool configuration for batch evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine using exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
        }
    }

    /// An engine running everything on the calling thread.
    pub fn sequential() -> Self {
        Engine::new(1)
    }

    /// Reads the thread count from `MSGORDER_THREADS`, falling back to
    /// the machine's available parallelism (and 1 if even that is
    /// unknown). `MSGORDER_THREADS=0` and unparsable values also fall
    /// back — an engine never has zero workers.
    pub fn from_env() -> Self {
        Engine::from_env_value(std::env::var("MSGORDER_THREADS").ok().as_deref())
    }

    /// [`Engine::from_env`] with the variable's value passed explicitly
    /// (so the parsing and clamping logic is testable without touching
    /// process-global environment state).
    fn from_env_value(var: Option<&str>) -> Self {
        let threads = var
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Engine::new(threads)
    }

    /// The number of workers this engine uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Work units are claimed dynamically (a shared atomic index), so
    /// units of very different cost still balance. With one thread this
    /// is exactly `items.into_iter().map(f).collect()`.
    ///
    /// # Panics
    /// Propagates a panic from any work unit.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("no worker panicked holding a work slot")
                        .take()
                        .expect("each work unit is claimed once");
                    let result = f(item);
                    *slots[i]
                        .lock()
                        .expect("no worker panicked holding a result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("final read")
                    .expect("every slot was filled")
            })
            .collect()
    }

    /// Borrowing variant of [`Engine::par_map`]: maps `f` over `&items`
    /// without consuming them, in input order. This is the shape of
    /// "one predicate against a corpus": the corpus stays available
    /// afterwards.
    pub fn par_map_ref<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.par_map(items.iter().collect(), f)
    }

    /// Maps `f` over a range of indices (the per-seed loop shape),
    /// returning results in index order.
    pub fn par_map_range<R, F>(&self, range: std::ops::Range<usize>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.par_map(range.collect(), f)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let seq = Engine::sequential().par_map(items.clone(), |x| x * x + 1);
        for threads in [2, 4, 7] {
            let par = Engine::new(threads).par_map(items.clone(), |x| x * x + 1);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn order_is_input_order() {
        let out = Engine::new(4).par_map((0..64).collect::<Vec<usize>>(), |x| x);
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Engine::new(3).par_map((0..50).collect::<Vec<usize>>(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn ref_variant_leaves_corpus_intact() {
        let corpus: Vec<String> = (0..10).map(|i| format!("run-{i}")).collect();
        let lens = Engine::new(2).par_map_ref(&corpus, |s| s.len());
        assert_eq!(lens.len(), corpus.len());
        assert_eq!(corpus[0], "run-0", "corpus still usable");
    }

    #[test]
    fn range_variant_is_index_ordered() {
        let out = Engine::new(4).par_map_range(0..20, |i| i * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<u8> = Engine::new(4).par_map(Vec::<u8>::new(), |x| x);
        assert!(empty.is_empty());
        let one = Engine::new(4).par_map(vec![9u8], |x| x + 1);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(Engine::new(0).threads(), 1);
    }

    #[test]
    fn env_zero_never_builds_a_zero_worker_engine() {
        // Regression: MSGORDER_THREADS=0 used to flow straight into the
        // thread count; it must fall back like an unset variable.
        assert!(Engine::from_env_value(Some("0")).threads() >= 1);
        assert_eq!(
            Engine::from_env_value(Some("0")).threads(),
            Engine::from_env_value(None).threads()
        );
    }

    #[test]
    fn env_parses_explicit_counts_and_ignores_garbage() {
        assert_eq!(Engine::from_env_value(Some("3")).threads(), 3);
        assert!(Engine::from_env_value(Some("not-a-number")).threads() >= 1);
        assert!(Engine::from_env_value(Some("")).threads() >= 1);
    }
}
