//! Multi-threaded batch rewrite engine: fan a query workload across N
//! worker threads sharing one `Arc<AlignmentStore>` + `Arc<FrozenInterner>`.
//!
//! This is the serve-phase shape the core crate's API redesign enables: the
//! rule set and symbol table are frozen and shared read-only, every worker
//! owns a [`RewriteScratch`], and the hot loop performs no locking, no
//! interning, and (once warm) no allocation. Work is split into contiguous
//! chunks so outputs can be reassembled in input order; because the fresh
//! counter restarts per query, the rewritten output of a query is identical
//! no matter which thread (or how many threads) processed it — asserted by
//! the determinism test below.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sparql_rewrite_core::{
    AlignmentStore, FrozenInterner, IndexedRewriter, Query, RewriteScratch, Rewriter,
};

pub struct BatchEngine {
    store: Arc<AlignmentStore>,
    interner: Arc<FrozenInterner>,
}

impl BatchEngine {
    pub fn new(store: Arc<AlignmentStore>, interner: Arc<FrozenInterner>) -> BatchEngine {
        BatchEngine { store, interner }
    }

    /// The shared frozen symbol table (for rendering results).
    pub fn interner(&self) -> &FrozenInterner {
        &self.interner
    }

    /// The shared fan-out scaffold: split `queries` into `n_threads`
    /// contiguous chunks, give each worker its own rewriter handle (an
    /// `Arc` clone of the shared store) and `RewriteScratch`, run `work`
    /// per chunk, and return the per-chunk results in chunk order. Both
    /// public entry points ride this, so the timed path always partitions
    /// work exactly the way the collecting path does.
    fn run_chunked<T, F>(&self, queries: &[Query], n_threads: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&[Query], &IndexedRewriter, &mut RewriteScratch) -> T + Sync,
    {
        let chunk = queries.len().div_ceil(n_threads.max(1)).max(1);
        thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|slice| {
                    let store = Arc::clone(&self.store);
                    scope.spawn(move || {
                        let rewriter = IndexedRewriter::new(store);
                        let mut scratch = RewriteScratch::new();
                        work(slice, &rewriter, &mut scratch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }

    /// Rewrite every query across `n_threads` workers; outputs come back in
    /// input order regardless of the thread that produced them.
    pub fn rewrite_all(&self, queries: &[Query], n_threads: usize) -> Vec<Query> {
        let chunks = self.run_chunked(queries, n_threads, |slice, rewriter, scratch| {
            slice
                .iter()
                .map(|q| {
                    rewriter.rewrite_query_into(q, scratch);
                    scratch.to_query()
                })
                .collect::<Vec<Query>>()
        });
        let mut out = Vec::with_capacity(queries.len());
        for c in chunks {
            out.extend(c);
        }
        out
    }

    /// Steady-state timed run: each worker loops `reps` times over its
    /// contiguous slice with a warmed scratch (one untimed warm-up pass),
    /// rewriting into the scratch without materializing owned output.
    /// Returns total wall-clock time for the whole fan-out, including
    /// thread spawn/join — amortized by choosing `reps` large enough.
    pub fn timed_run(&self, queries: &[Query], n_threads: usize, reps: u32) -> Duration {
        let start = Instant::now();
        self.run_chunked(queries, n_threads, |slice, rewriter, scratch| {
            for q in slice {
                rewriter.rewrite_query_into(q, scratch);
            }
            for _ in 0..reps {
                for q in slice {
                    rewriter.rewrite_query_into(q, scratch);
                    std::hint::black_box(scratch.patterns());
                }
            }
        });
        start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadSpec};
    use sparql_rewrite_core::Interner;

    fn engine_and_queries() -> (BatchEngine, Vec<Query>) {
        let spec = WorkloadSpec {
            n_rules: 400,
            patterns_per_query: 8,
            n_queries: 97, // deliberately not divisible by the thread counts
            seed: 0xfeed_beef,
            // Group shapes: the batch engine must stay deterministic across
            // thread counts on the recursive path (UNION expansion included).
            group_shapes: true,
            complex: crate::workload::ComplexShape::None,
        };
        let mut w = generate(&spec);
        let mut store = std::mem::take(&mut w.store);
        // Freeze into the dense direct-indexed dispatch tables, like the
        // production serve path.
        store.build_dense_index(w.interner.symbol_bound());
        let interner = Arc::new(std::mem::replace(&mut w.interner, Interner::new()).freeze());
        (
            BatchEngine::new(Arc::new(store), interner),
            std::mem::take(&mut w.queries),
        )
    }

    #[test]
    fn parallel_rewrite_equals_sequential_at_any_thread_count() {
        let (engine, queries) = engine_and_queries();
        // Ground truth: plain sequential rewrites, one scratch-free call per
        // query.
        let rewriter = IndexedRewriter::new(Arc::clone(&engine.store));
        let sequential: Vec<Query> = queries.iter().map(|q| rewriter.rewrite_query(q)).collect();

        for n_threads in [1, 2, 4, 8] {
            let parallel = engine.rewrite_all(&queries, n_threads);
            assert_eq!(
                parallel, sequential,
                "{n_threads}-thread batch diverged from sequential rewriting"
            );
        }
    }

    #[test]
    fn one_thread_and_eight_threads_render_identically() {
        let (engine, queries) = engine_and_queries();
        let one = engine.rewrite_all(&queries, 1);
        let eight = engine.rewrite_all(&queries, 8);
        assert_eq!(one, eight);
        // Rendered text (the externally observable artifact) matches too —
        // fresh-variable naming must not depend on scheduling.
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(
                a.display(engine.interner()).to_string(),
                b.display(engine.interner()).to_string()
            );
        }
    }

    #[test]
    fn timed_run_smoke() {
        let (engine, queries) = engine_and_queries();
        let elapsed = engine.timed_run(&queries, 2, 3);
        assert!(elapsed > Duration::ZERO);
    }
}
