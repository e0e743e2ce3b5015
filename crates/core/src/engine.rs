//! End-to-end serve engine: the full **parse → rewrite → render** request
//! pipeline over one shared, frozen rule set, fronted by the sharded
//! rewrite-result cache.
//!
//! This is the request-path shape the ROADMAP's north star asks for —
//! "queries/sec served" as a first-class number, not just rewrite
//! throughput. Per request the engine:
//!
//! 0. canonicalizes the request text into a [`QueryFingerprint`]
//!    (single-pass, ~0.7–1.6 µs) and probes the shared [`RewriteCache`] —
//!    a hit copies the previously rendered rewrite straight into the
//!    output buffer and skips the pipeline entirely,
//! 1. parses SPARQL text into a caller-owned [`ParseScratch`]
//!    (worker-local interner — known strings resolve to their shared
//!    symbols, novel strings get worker-private ids that can never alias a
//!    rule symbol),
//! 2. rewrites the borrowed parse via [`Rewriter::rewrite_ref_into`]
//!    against the shared dense-indexed [`AlignmentStore`],
//! 3. renders the rewritten query into a reusable output `String` and
//!    fills the cache entry (stamped with the store's revision, so a
//!    post-freeze rule load invalidates it like the dense tables).
//!
//! Every stage writes into reusable buffers, so a warm
//! [`ServeEngine::serve`] call performs **zero heap allocations** on both
//! the hit and the cold path — the bench harness gates on that, parser and
//! cache probe included. The HTTP front end (`crates/server`) pins one
//! [`ServeScratch`] per worker thread and shares one `ServeEngine` behind
//! an `Arc`, so the same guarantee holds end to end through the socket
//! path.
//!
//! [`QueryFingerprint`]: crate::cache::QueryFingerprint

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::{
    fingerprint_query, fingerprint_raw, parse_query_into, render_query_into, AlignmentStore,
    CacheConfig, CacheStats, IndexedRewriter, Interner, ParseError, ParseScratch, QueryRef,
    RewriteCache, RewriteScratch, Rewriter,
};

/// Shared, read-only serve state: the dense-indexed rule set, the
/// build-phase interner workers clone from, and (unless disabled) the
/// shared rewrite-result cache.
pub struct ServeEngine {
    rewriter: IndexedRewriter<Arc<AlignmentStore>>,
    /// Build-phase interner snapshot. Workers clone it so parsing can
    /// intern novel strings without locks while every pre-existing symbol
    /// stays identical to the rule set's.
    base_interner: Interner,
    /// Rewrite-result cache behind its adaptive-cap slot; `None` when
    /// constructed cache-less (the harness's cold-pipeline configs and the
    /// `--no-cache` A/B runs).
    cache: Option<AdaptiveCache>,
    /// Rule-set revision the engine was frozen at — the generation tag for
    /// every cache entry. The store behind the `Arc` is immutable here, so
    /// one snapshot is exact; an engine rebuilt after `add_*` gets the new
    /// revision and every old entry lazily misses.
    revision: u64,
}

/// Per-worker reusable state for [`ServeEngine::serve`]. All steady-state
/// buffers live here; the engine itself is never mutated.
pub struct ServeScratch {
    interner: Interner,
    parse: ParseScratch,
    rewrite: RewriteScratch,
    fresh_base: String,
    out: String,
    /// Cache copy-out buffer (bytes are validated UTF-8 before use).
    hit_buf: Vec<u8>,
    /// Per-worker counters — on the scratch, not the engine, so hot-path
    /// accounting never touches a shared cache line.
    cache_hits: u64,
    cache_misses: u64,
}

impl ServeScratch {
    /// Cache hits recorded by this scratch since construction/reset.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Cache misses (cold serves while caching was enabled) recorded by
    /// this scratch since construction/reset.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    pub fn reset_cache_counters(&mut self) {
        self.cache_hits = 0;
        self.cache_misses = 0;
    }
}

/// Serves per adaptation window: the cap controller looks at the live
/// oversize-bypass rate once every this many served requests.
const ADAPT_WINDOW: u64 = 1024;
/// Absolute value-cap ceiling, matching the tuned-cache construction clamp.
const ADAPT_MAX_CAP: usize = 1 << 20;
/// Grow the cap when more than this percentage of a window's serves
/// bypassed the cache for being oversized.
const GROW_BYPASS_PCT: u64 = 5;
/// Shrink only when at most this percentage bypassed — the `(1%, 5%)`
/// band between the two thresholds is the hysteresis dead zone where the
/// cap holds.
const SHRINK_BYPASS_PCT: u64 = 1;

/// The rewrite cache behind a runtime cap controller.
///
/// [`RewriteCache`] physically sizes every shard's value pool by its cap,
/// so changing the cap means rebuilding the cache; this slot wraps the
/// cache in an `RwLock` whose read side is the per-serve cost (one atomic
/// acquire, no allocation). Once per [`ADAPT_WINDOW`] serves the
/// controller compares the window's oversize-bypass count against the
/// thresholds above: a bypass-heavy window doubles the cap (halving
/// slots-per-shard so the pool byte budget stays put), a bypass-free
/// window whose largest served rewrite fits comfortably halves it back.
/// Three guards keep it from oscillating: the dead zone between the
/// thresholds, the construction cap as a hard floor, and the
/// largest-rewrite-this-window check (hits included) — a hot oversize
/// value that got cached by a grow keeps the cap up even though it no
/// longer *bypasses* anything.
struct AdaptiveCache {
    slot: RwLock<RewriteCache>,
    /// Cap the engine was constructed with — the adaptive floor.
    base_cap: usize,
    /// Construction config; rebuilds derive their geometry from it.
    base_config: CacheConfig,
    serves: AtomicU64,
    /// Bypass counter reading at the last window boundary.
    last_bypasses: AtomicU64,
    /// Largest rendered rewrite served (hit or cold) this window.
    window_max_len: AtomicUsize,
    grows: AtomicU64,
    shrinks: AtomicU64,
}

impl AdaptiveCache {
    fn new(config: CacheConfig) -> AdaptiveCache {
        let cache = RewriteCache::new(config);
        let base_cap = cache.value_cap();
        AdaptiveCache {
            slot: RwLock::new(cache),
            base_cap,
            base_config: config,
            serves: AtomicU64::new(0),
            last_bypasses: AtomicU64::new(0),
            window_max_len: AtomicUsize::new(0),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, RewriteCache> {
        self.slot.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-serve bookkeeping; every [`ADAPT_WINDOW`]-th serve runs one
    /// controller step. Allocation-free unless the step decides to resize.
    fn note_serve(&self, out_len: usize) {
        self.window_max_len.fetch_max(out_len, Ordering::Relaxed);
        if (self.serves.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(ADAPT_WINDOW) {
            self.adapt();
        }
    }

    /// Shard-slot count for a cap `k` doublings above the base: the pool
    /// byte budget (`slots × cap`) is held constant by trading entry count
    /// for entry size.
    fn slots_for(&self, new_cap: usize) -> usize {
        let k = (new_cap / self.base_cap).trailing_zeros();
        (self.base_config.slots_per_shard >> k).max(8)
    }

    fn adapt(&self) {
        let (bypasses, cur_cap) = {
            let c = self.read();
            (c.oversize_bypasses(), c.value_cap())
        };
        let delta = bypasses.saturating_sub(self.last_bypasses.swap(bypasses, Ordering::Relaxed));
        let window_max = self.window_max_len.swap(0, Ordering::Relaxed);
        let new_cap = if delta * 100 >= GROW_BYPASS_PCT * ADAPT_WINDOW {
            // Refuse to grow past the absolute ceiling or past the point
            // where the constant byte budget leaves too few slots to probe.
            if cur_cap.saturating_mul(2) > ADAPT_MAX_CAP || self.slots_for(cur_cap) <= 8 {
                return;
            }
            cur_cap * 2
        } else if delta * 100 <= SHRINK_BYPASS_PCT * ADAPT_WINDOW
            && cur_cap > self.base_cap
            && window_max.saturating_mul(2) <= cur_cap
        {
            (cur_cap / 2).max(self.base_cap)
        } else {
            return;
        };
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        if slot.value_cap() != cur_cap {
            // Another thread's controller step resized first; its window
            // accounting owns this boundary.
            return;
        }
        *slot = RewriteCache::new(CacheConfig {
            slots_per_shard: self.slots_for(new_cap),
            value_cap: new_cap,
            ..self.base_config
        });
        // The fresh cache's bypass counter restarts at zero.
        self.last_bypasses.store(0, Ordering::Relaxed);
        if new_cap > cur_cap {
            self.grows.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shrinks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl ServeEngine {
    /// Freeze `store` (building its dense dispatch tables now, so set-up
    /// rather than the first request pays for them) and take a snapshot of
    /// the interner for worker clones. `cache` sizes the rewrite-result cache
    /// (`Some(CacheConfig::default())` for the production shape), or
    /// `None` serves every request through the cold pipeline — the
    /// `--no-cache` A/B path and the raw-pipeline bench configs.
    pub fn with_cache(
        mut store: AlignmentStore,
        interner: Interner,
        cache: Option<CacheConfig>,
    ) -> ServeEngine {
        store.build_dense_index(interner.symbol_bound());
        let revision = store.revision();
        ServeEngine {
            rewriter: IndexedRewriter::new(Arc::new(store)),
            base_interner: interner,
            cache: cache.map(AdaptiveCache::new),
            revision,
        }
    }

    /// Like [`ServeEngine::with_cache`], but the cache's value cap is
    /// **tuned from the workload** instead of taken from `config`: the
    /// engine first serves `samples` through the cold pipeline, measures
    /// the largest rendered rewrite, and installs the cache with that
    /// length (clamped to `[64, 1 MiB]`) as the cap. A cap sized to the
    /// workload means no live query is silently bypassed for being
    /// oversized, while a pathological one-off can't make every shard's
    /// value pool pay for it.
    ///
    /// Samples that fail to parse are skipped; if none parses, the cap
    /// falls back to `config.value_cap` unchanged.
    pub fn with_tuned_cache(
        store: AlignmentStore,
        interner: Interner,
        mut config: CacheConfig,
        samples: &[String],
    ) -> ServeEngine {
        let mut engine = ServeEngine::with_cache(store, interner, None);
        let mut scratch = engine.scratch();
        let mut max_len = 0usize;
        for sample in samples {
            if let Ok(out) = engine.serve(sample, &mut scratch) {
                max_len = max_len.max(out.len());
            }
        }
        if max_len > 0 {
            config.value_cap = max_len.clamp(64, 1 << 20);
        }
        engine.cache = Some(AdaptiveCache::new(config));
        engine
    }

    /// Inserts the shared cache refused because the rendered rewrite
    /// exceeded its value cap — requests that re-render on every arrival no
    /// matter how hot they are. Completes the hit/miss picture: `misses -
    /// bypass-driven re-serves` is the true cold-start count. 0 when the
    /// engine is cache-less.
    pub fn cache_bypasses(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |ac| ac.read().oversize_bypasses())
    }

    /// Per-shard cache observability snapshot (occupancy, hits, misses,
    /// evictions, oversize bypasses); `None` when the engine is
    /// cache-less. Counter scan, not hot path — see
    /// [`RewriteCache::stats`] for the probe-level semantics.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|ac| ac.read().stats())
    }

    /// The installed cache's **current** value-size cap in bytes (`None`
    /// cache-less). Under [`ServeEngine::with_tuned_cache`] it starts at
    /// the measured workload maximum, not the config default — and either
    /// construction is only the starting point: the cap adapts at runtime
    /// to the live oversize-bypass rate (see [`ServeEngine::cache_resizes`]).
    pub fn cache_value_cap(&self) -> Option<usize> {
        self.cache.as_ref().map(|ac| ac.read().value_cap())
    }

    /// How often the adaptive cap controller resized the cache at runtime:
    /// `(grows, shrinks)`. `(0, 0)` for a cache-less engine or a workload
    /// whose rewrites fit the constructed cap (the controller's hysteresis
    /// band holds the cap still on such streams).
    pub fn cache_resizes(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), |ac| {
            (
                ac.grows.load(Ordering::Relaxed),
                ac.shrinks.load(Ordering::Relaxed),
            )
        })
    }

    /// The dense-indexed rewriter — ground-truth access for equivalence
    /// tests and offline (non-serve-path) rewriting.
    pub fn rewriter(&self) -> &IndexedRewriter<Arc<AlignmentStore>> {
        &self.rewriter
    }

    /// The build-phase interner snapshot workers clone from.
    pub fn base_interner(&self) -> &Interner {
        &self.base_interner
    }

    /// A fresh worker scratch. Cloning the interner is the one deliberate
    /// startup cost; after it, the worker shares nothing mutable.
    pub fn scratch(&self) -> ServeScratch {
        ServeScratch {
            interner: self.base_interner.clone(),
            parse: ParseScratch::new(),
            rewrite: RewriteScratch::new(),
            fresh_base: String::new(),
            out: String::new(),
            hit_buf: Vec::with_capacity(self.cache.as_ref().map_or(0, |ac| ac.read().value_cap())),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Serve one request. With the cache enabled, a repeated (or
    /// equivalently re-spelled) query is answered by fingerprint + probe +
    /// copy; otherwise the full parse → rewrite → render pipeline runs and
    /// the result backfills the cache. Returns the rewritten query text,
    /// borrowed from the scratch's output buffer. Zero heap allocations
    /// once the scratch (and its interner) are warm for the request's
    /// vocabulary — hit or miss.
    ///
    /// Two-level keying: the **raw-byte** fingerprint (word-speed hash,
    /// ~0.15–0.3 µs per request) catches byte-identical repeats — the
    /// dominant case, clients re-send the same string — and only on a raw
    /// miss does the ~0.7–1.6 µs **canonical** fingerprint run to catch
    /// whitespace / keyword-case / PREFIX-alias re-spellings. A canonical hit promotes the raw
    /// spelling to its own entry so the next identical request takes the
    /// fast level.
    pub fn serve<'s>(
        &self,
        request: &str,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s str, ParseError> {
        let Some(ac) = &self.cache else {
            self.serve_cold(request, scratch)?;
            return Ok(&scratch.out);
        };
        {
            let cache = ac.read();
            self.serve_via(&cache, request, scratch)?;
        }
        // Controller bookkeeping outside the read guard — a window
        // boundary that decides to resize needs the write lock.
        ac.note_serve(scratch.out.len());
        Ok(&scratch.out)
    }

    /// The cached serve path against one pinned cache instance.
    fn serve_via(
        &self,
        cache: &RewriteCache,
        request: &str,
        scratch: &mut ServeScratch,
    ) -> Result<(), ParseError> {
        let raw_fp = fingerprint_raw(request);
        if self.finish_hit(
            cache.lookup(raw_fp, self.revision, &mut scratch.hit_buf),
            scratch,
        ) {
            return Ok(());
        }
        let canon_fp = fingerprint_query(request);
        if let Some(fp) = canon_fp {
            if self.finish_hit(
                cache.lookup(fp, self.revision, &mut scratch.hit_buf),
                scratch,
            ) {
                // Promote this exact spelling: next time it hits on the
                // raw level without paying for canonicalization.
                cache.insert(raw_fp, self.revision, scratch.out.as_bytes());
                return Ok(());
            }
        }
        self.serve_cold(request, scratch)?;
        // Counted only after a successful cold serve: a rejected request
        // was never served, so it is neither a hit nor a miss.
        scratch.cache_misses += 1;
        // Fill under the canonical key (shared by every re-spelling) and
        // the raw key (this spelling's fast level) — one entry when the
        // request is already in canonical spelling and the keys coincide.
        // An uncanonicalizable text can't be parsed either, so reaching
        // here means `canon_fp` is almost always `Some`; if it isn't,
        // don't cache at all.
        if let Some(fp) = canon_fp {
            cache.insert(fp, self.revision, scratch.out.as_bytes());
            if fp != raw_fp {
                cache.insert(raw_fp, self.revision, scratch.out.as_bytes());
            }
        }
        Ok(())
    }

    /// On `hit`, validate the copied bytes and move them into the output
    /// buffer; returns whether the request is fully served. The copied
    /// bytes were rendered into a `String` by a previous cold serve and
    /// survived the seqlock validation, so UTF-8 checking is a formality —
    /// but a cheap one, and it keeps this module free of `unsafe`. Failure
    /// falls through to the cold path.
    fn finish_hit(&self, hit: bool, scratch: &mut ServeScratch) -> bool {
        if !hit {
            return false;
        }
        let ServeScratch {
            out,
            hit_buf,
            cache_hits,
            ..
        } = scratch;
        match std::str::from_utf8(hit_buf) {
            Ok(text) => {
                *cache_hits += 1;
                out.clear();
                out.push_str(text);
                true
            }
            Err(_) => false,
        }
    }

    /// The uncached pipeline: parse → rewrite → render into `scratch.out`.
    fn serve_cold(&self, request: &str, scratch: &mut ServeScratch) -> Result<(), ParseError> {
        parse_query_into(request, &mut scratch.interner, &mut scratch.parse)?;
        self.rewriter
            .rewrite_ref_into(scratch.parse.query_ref(), &mut scratch.rewrite);
        render_query_into(
            QueryRef {
                select: scratch.rewrite.select(),
                pattern: scratch.rewrite.pattern(),
            },
            &scratch.interner,
            &mut scratch.fresh_base,
            &mut scratch.out,
        );
        Ok(())
    }

    /// Steady-state timed fan-out: split `requests` into `n_threads`
    /// contiguous chunks, give each worker its own [`ServeScratch`], warm it
    /// with one untimed pass, then loop `reps` times over the chunk.
    /// Returns wall-clock time for the whole fan-out (spawn, interner
    /// clones, and join included — amortize with `reps`).
    pub fn timed_serve_run(&self, requests: &[String], n_threads: usize, reps: u32) -> Duration {
        let chunk = requests.len().div_ceil(n_threads.max(1)).max(1);
        let start = Instant::now();
        thread::scope(|scope| {
            let handles: Vec<_> = requests
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || {
                        let mut scratch = self.scratch();
                        for q in slice {
                            self.serve(q, &mut scratch).expect("workload parses");
                        }
                        for _ in 0..reps {
                            for q in slice {
                                let out = self.serve(q, &mut scratch).expect("workload parses");
                                std::hint::black_box(out);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("serve worker panicked");
            }
        });
        start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Term, TriplePattern};

    /// One rule mapping a short source predicate onto a long target IRI,
    /// so rewrites of source-vocabulary queries come out much bigger than
    /// they went in — easy to push past a small value cap.
    fn adaptive_engine(value_cap: usize) -> ServeEngine {
        let mut interner = Interner::new();
        let mut store = AlignmentStore::new();
        let var_s = Term::var(interner.intern("s"));
        let var_o = Term::var(interner.intern("o"));
        let src = Term::iri(interner.intern("http://src.example.org/onto/p"));
        let tgt = Term::iri(
            interner.intern("http://tgt.example.org/onto/a-deliberately-long-predicate-q"),
        );
        store
            .add_predicate(
                TriplePattern::new(var_s, src, var_o),
                vec![TriplePattern::new(var_s, tgt, var_o)],
            )
            .expect("valid rule");
        ServeEngine::with_cache(
            store,
            interner,
            Some(CacheConfig {
                shards: 2,
                slots_per_shard: 256,
                value_cap,
            }),
        )
    }

    #[test]
    fn value_cap_adapts_to_bypass_rate_with_hysteresis() {
        let engine = adaptive_engine(64);
        let mut scratch = engine.scratch();
        let base_cap = engine.cache_value_cap().expect("cache installed");
        assert_eq!(base_cap, 64);

        // A query whose rewrite renders far past the 64-byte cap (each of
        // the six patterns expands to the long target IRI) and one that
        // stays comfortably under it.
        let big = "SELECT * WHERE { \
             ?a <http://src.example.org/onto/p> ?b . \
             ?c <http://src.example.org/onto/p> ?d . \
             ?e <http://src.example.org/onto/p> ?f . \
             ?g <http://src.example.org/onto/p> ?h . \
             ?i <http://src.example.org/onto/p> ?j . \
             ?k <http://src.example.org/onto/p> ?l }";
        let small = "SELECT * WHERE { ?s ?p ?o }";
        let big_len = engine.serve(big, &mut scratch).expect("parses").len();
        assert!(
            (257..=512).contains(&big_len),
            "test geometry: big rewrite must need exactly three doublings, got {big_len}"
        );

        // Phase 1 — bypass-heavy stream: every serve re-renders and the
        // insert is refused, so the controller doubles the cap at window
        // boundaries until the value fits (64 → 128 → 256 → 512).
        for _ in 0..5 * ADAPT_WINDOW {
            engine.serve(big, &mut scratch).expect("parses");
        }
        let grown_cap = engine.cache_value_cap().unwrap();
        assert!(
            grown_cap >= big_len,
            "cap never grew past the hot value: cap {grown_cap}, value {big_len}"
        );
        let (grows, shrinks) = engine.cache_resizes();
        assert!(grows >= 3, "expected three doublings, saw {grows}");
        assert_eq!(shrinks, 0, "nothing to shrink during the bypass phase");

        // The now-fitting value is served from the cache.
        scratch.reset_cache_counters();
        engine.serve(big, &mut scratch).expect("parses");
        engine.serve(big, &mut scratch).expect("parses");
        assert!(
            scratch.cache_hits() >= 1,
            "grown cache never hit the formerly-bypassed value"
        );

        // Phase 2 — hysteresis: pure hits mean a zero bypass rate, but the
        // window's largest served rewrite is the hot value itself, so the
        // cap must hold instead of shrinking back and re-evicting it (the
        // oscillation the dead zone + window-max guard exist to prevent).
        for _ in 0..2 * ADAPT_WINDOW {
            engine.serve(big, &mut scratch).expect("parses");
        }
        assert_eq!(
            engine.cache_value_cap().unwrap(),
            grown_cap,
            "cap oscillated under a hit-heavy stream of large values"
        );

        // Phase 3 — the large values stop arriving: bypass-free windows of
        // small rewrites walk the cap back down, floored at the
        // construction cap.
        for _ in 0..5 * ADAPT_WINDOW {
            engine.serve(small, &mut scratch).expect("parses");
        }
        assert_eq!(
            engine.cache_value_cap().unwrap(),
            base_cap,
            "cap did not return to the construction floor"
        );
        let (_, shrinks) = engine.cache_resizes();
        assert!(shrinks >= 3, "expected three halvings, saw {shrinks}");
    }
}
