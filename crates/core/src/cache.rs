//! Sharded rewrite-result cache: serve repeated queries at memcpy speed.
//!
//! The rewriting model is deterministic per (query text, rule set): over a
//! frozen [`crate::align::AlignmentStore`], the same request text always
//! yields the same rewritten text. Real linked-data endpoints see heavily
//! skewed, repeated query workloads, so a serve path that re-runs the full
//! ~µs parse → rewrite → render pipeline for a text it rendered a
//! microsecond ago is leaving an order of magnitude on the table. This
//! module provides the two pieces that close that gap:
//!
//! 1. [`fingerprint_query`] — a **single-pass byte-level canonicalizer**
//!    that maps every textual spelling of one logical query to one 64-bit
//!    fingerprint (plus a canonical-length tag) without allocating and
//!    without parsing: whitespace/comments collapse to single separators,
//!    keywords case-normalize, `$x` normalizes to `?x`, language tags
//!    lowercase, and QNames resolve against the query's own PREFIX table to
//!    their full-IRI spelling (the prologue itself contributes nothing, so
//!    alias renames and unused declarations don't split the cache entry).
//!    A probe therefore costs normalize + hash + memcpy instead of
//!    parse + rewrite + render.
//! 2. [`RewriteCache`] — a sharded, **read-lock-free** map from fingerprint
//!    to rendered rewrite: N power-of-two shards, each a fixed-capacity
//!    open-addressed table of seqlock-versioned slots over a flat
//!    pre-allocated value pool. Readers never block and never allocate;
//!    writers (cache fills) serialize behind a short per-shard spinlock.
//!    Eviction is CLOCK-style second chance over the probe neighborhood.
//!
//! # Conservative canonicalization
//!
//! The canonicalizer must never map two queries with *different* rewrites
//! to one fingerprint, so it only applies transformations the parser itself
//! makes semantically invisible (each one mirrors a documented parser
//! behavior). Spellings it cannot prove equivalent simply fingerprint
//! differently — a harmless missed hit. Text it cannot confidently scan
//! (undeclared prefixes, unterminated tokens — text the parser would reject
//! anyway) returns `None` and the caller serves cold without touching the
//! cache.
//!
//! # Invalidation contract
//!
//! Entries are stamped with a **generation** — by convention the owning
//! store's [`crate::align::AlignmentStore::revision`]. Every `add_*` after
//! a freeze bumps the revision, so all entries cached under the old rule
//! set lazily miss (and become preferred eviction victims), mirroring how
//! the same `add_*` invalidates the dense dispatch tables. No eager scan,
//! no epoch machinery: correctness is a single integer compare per probe.
//!
//! # Memory model
//!
//! The value pool is a flat array of `AtomicU64` words, so concurrent
//! read/overwrite is a *defined* race: a reader that overlaps a writer sees
//! torn words, fails the seqlock version check, and treats the probe as a
//! miss. No `unsafe` anywhere — "memcpy speed" here is a relaxed-atomic
//! word copy, which compiles to the same wide loads/stores.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use crate::parser::{is_iri_byte, is_name_byte};
use crate::smallvec::SmallVec;

/// Byte-class bitmap baked from the parser's classifiers at compile time:
/// bit 0 = name byte, bit 1 = IRIREF body byte. One table load replaces a
/// chain of range compares in the scanner's per-byte loops, and building
/// it *from* `parser::is_name_byte` / `is_iri_byte` means the scanner can
/// never drift from the tokenizer.
static CLASS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let c = i as u8;
        if is_name_byte(c) {
            t[i] |= 1;
        }
        if is_iri_byte(c) {
            t[i] |= 2;
        }
        i += 1;
    }
    t
};

#[inline]
fn name_byte(c: u8) -> bool {
    CLASS[c as usize] & 1 != 0
}

#[inline]
fn iri_byte(c: u8) -> bool {
    CLASS[c as usize] & 2 != 0
}

/// Keywords the parser matches case-insensitively; the canonicalizer feeds
/// them uppercased so `select` and `SELECT` fingerprint identically. (`a`,
/// `true`, and `false` are matched case-sensitively by the parser and are
/// deliberately absent.)
const KEYWORDS: &[&str] = &[
    "SELECT", "WHERE", "PREFIX", "OPTIONAL", "UNION", "FILTER", "GRAPH", "SERVICE", "MINUS",
];

/// Canonical identity of one query text: a 64-bit hash of the normalized
/// byte stream plus the stream's length as a cheap secondary discriminator
/// (two queries must collide on both to alias).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct QueryFingerprint {
    /// Hash of the normalized byte stream; never 0 (0 is the vacant-slot
    /// sentinel, real hashes are remapped).
    hash: u64,
    /// Length of the normalized byte stream.
    norm_len: u32,
}

impl QueryFingerprint {
    /// Construct from raw parts. Exposed for tests and for callers that
    /// key the cache by something other than SPARQL text; `hash == 0` is
    /// remapped to 1 (0 is the vacant-slot sentinel).
    pub fn from_parts(hash: u64, norm_len: u32) -> QueryFingerprint {
        QueryFingerprint {
            hash: if hash == 0 { 1 } else { hash },
            norm_len,
        }
    }
}

/// Streaming 64-bit hash over the normalized byte stream.
///
/// Bytes accumulate in a small stack buffer and are digested 8 at a time
/// (Fx-style rotate-xor-multiply over little-endian words), so the digest
/// depends only on the byte *stream*, never on how the scanner chunks its
/// `push_bytes` calls — a QName expanded as three slices (`<`, base,
/// local) hashes identically to the same IRI fed as one slice. Buffering
/// instead of packing a word incrementally keeps the per-byte hot path at
/// one store + one increment; the mix loop runs on whole cache-resident
/// words when the buffer drains.
struct Fingerprinter {
    hash: u64,
    buf: [u8; Self::BUF],
    buf_len: usize,
    len: u32,
}

/// Per-process random fingerprint seed. Query text is attacker-controlled
/// at a public endpoint and the digest function is public, so an *unseeded*
/// hash would let an adversary precompute two distinct queries with one
/// fingerprint offline and poison the cache (query A served query B's
/// rewrite). Folding OS entropy into the initial state (via `RandomState`,
/// the same source `HashMap` uses for its DoS resistance) makes the
/// colliding pair depend on a value the attacker never sees. Fingerprints
/// are therefore stable within a process — all a cache key needs — but
/// deliberately differ across processes.
fn process_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(0x5eed);
        h.finish()
    })
}

impl Fingerprinter {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const K: u64 = 0x517c_c1b7_2722_0a95;
    /// Multiple of 8 so a full drain leaves no remainder.
    const BUF: usize = 256;

    fn new() -> Fingerprinter {
        Fingerprinter {
            hash: Self::SEED ^ process_seed(),
            buf: [0; Self::BUF],
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }

    /// Digest every complete 8-byte word in the buffer; the 0–7 byte tail
    /// moves to the front and stays pending (stream chunking must not
    /// influence word boundaries).
    fn drain(&mut self) {
        let words = self.buf_len / 8;
        for i in 0..words {
            let w = u64::from_le_bytes(self.buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            self.mix(w);
        }
        let rem = self.buf_len % 8;
        self.buf.copy_within(words * 8..self.buf_len, 0);
        self.buf_len = rem;
    }

    #[inline]
    fn push(&mut self, b: u8) {
        if self.buf_len == Self::BUF {
            self.drain();
        }
        self.buf[self.buf_len] = b;
        self.buf_len += 1;
        self.len = self.len.wrapping_add(1);
    }

    #[inline]
    fn push_bytes(&mut self, s: &[u8]) {
        let mut s = s;
        while !s.is_empty() {
            let room = Self::BUF - self.buf_len;
            if room == 0 {
                self.drain();
                continue;
            }
            let take = room.min(s.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&s[..take]);
            self.buf_len += take;
            self.len = self.len.wrapping_add(take as u32);
            s = &s[take..];
        }
    }

    fn finish(mut self) -> QueryFingerprint {
        self.drain();
        if self.buf_len > 0 {
            // Pack the 1–7 byte tail, tagged with its length so trailing
            // NULs in the stream can't alias an empty tail.
            let mut w = (self.buf_len as u64) << 56;
            for (i, &b) in self.buf[..self.buf_len].iter().enumerate() {
                w |= (b as u64) << (8 * i);
            }
            self.mix(w);
        }
        let len = self.len;
        self.mix(len as u64);
        // Fold high-bit entropy down (Fx's multiply drives it upward) so
        // both the shard selector and the slot index see mixed bits.
        let h = self.hash;
        QueryFingerprint::from_parts(h ^ (h >> 32), len)
    }
}

/// One `PREFIX name: <iri>` binding as byte spans into the scanned input.
/// Spans (not slices) keep the scratch `Copy + Default` for [`SmallVec`].
#[derive(Copy, Clone, Default)]
struct PrefixBinding {
    name_start: u32,
    name_end: u32,
    iri_start: u32,
    iri_end: u32,
}

/// Single-pass canonicalizing scanner. Mirrors the parser's tokenizer
/// byte-for-byte (same `is_name_byte` / `is_iri_byte` classifiers) but
/// feeds a [`Fingerprinter`] instead of building tokens.
struct Scanner<'a> {
    input: &'a str,
    pos: usize,
    fp: Fingerprinter,
    prefixes: SmallVec<PrefixBinding, 8>,
    /// Whether any token has been fed yet (controls separators).
    any: bool,
}

impl<'a> Scanner<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_trivia(&mut self) {
        let b = self.bytes();
        while self.pos < b.len() {
            match b[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'#' => {
                    while self.pos < b.len() && b[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Start a new token in the normalized stream: whitespace runs between
    /// tokens collapse to exactly one separator byte.
    #[inline]
    fn sep(&mut self) {
        if self.any {
            self.fp.push(b' ');
        }
        self.any = true;
    }

    /// Resolve `prefix` against the scanned PREFIX table; later
    /// declarations shadow earlier ones, matching the parser.
    fn lookup_prefix(&self, prefix: &str) -> Option<&'a str> {
        self.prefixes.as_slice().iter().rev().find_map(|p| {
            let name = &self.input[p.name_start as usize..p.name_end as usize];
            (name == prefix).then(|| &self.input[p.iri_start as usize..p.iri_end as usize])
        })
    }

    /// Consume a name-byte run (possibly containing one `:`, like the
    /// tokenizer's word/QName scan) and return `(text, has_colon)`.
    fn scan_name_token(&mut self) -> (&'a str, bool) {
        let b = self.bytes();
        let start = self.pos;
        let mut has_colon = false;
        while self.pos < b.len() && (name_byte(b[self.pos]) || (b[self.pos] == b':' && !has_colon))
        {
            if b[self.pos] == b':' {
                has_colon = true;
            }
            self.pos += 1;
        }
        (&self.input[start..self.pos], has_colon)
    }

    /// Scan the PREFIX prologue, recording bindings without feeding any
    /// bytes: the prologue only defines aliases, and every QName is fed in
    /// its resolved full-IRI spelling, so the declarations themselves are
    /// canonically invisible (alias renames, reordering, and unused
    /// prefixes all fingerprint identically).
    fn scan_prologue(&mut self) -> Option<()> {
        loop {
            self.skip_trivia();
            let start = self.pos;
            let b = self.bytes();
            let Some(&c) = b.get(self.pos) else {
                return Some(());
            };
            if !(name_byte(c) && c != b':') {
                return Some(());
            }
            let (word, has_colon) = self.scan_name_token();
            if has_colon || !word.eq_ignore_ascii_case("PREFIX") {
                self.pos = start;
                return Some(());
            }
            self.skip_trivia();
            // `name:` — name bytes then a colon, nothing else (a QName with
            // a non-final colon is a parse error; bail to the cold path).
            let (name, has_colon) = self.scan_name_token();
            if !has_colon || !name.ends_with(':') {
                return None;
            }
            let name = &name[..name.len() - 1];
            self.skip_trivia();
            let b = self.bytes();
            if b.get(self.pos) != Some(&b'<') {
                return None;
            }
            let iri_start = self.pos + 1;
            let mut end = iri_start;
            while end < b.len() && iri_byte(b[end]) {
                end += 1;
            }
            if b.get(end) != Some(&b'>') {
                return None;
            }
            self.pos = end + 1;
            let base = self.input.as_ptr() as usize;
            let name_start = (name.as_ptr() as usize - base) as u32;
            self.prefixes.push(PrefixBinding {
                name_start,
                name_end: name_start + name.len() as u32,
                iri_start: iri_start as u32,
                iri_end: end as u32,
            });
        }
    }

    /// Feed a QName in its resolved `<base + local>` spelling, so the
    /// aliased and full-IRI spellings of one term share a fingerprint.
    fn feed_qname(&mut self, qname: &str) -> Option<()> {
        let colon = qname.find(':')?;
        let base = self.lookup_prefix(&qname[..colon])?;
        self.fp.push(b'<');
        self.fp.push_bytes(base.as_bytes());
        self.fp.push_bytes(&qname.as_bytes()[colon + 1..]);
        self.fp.push(b'>');
        Some(())
    }

    /// Scan a literal starting at the opening quote; feeds the body
    /// verbatim, the language tag lowercased (the parser interns `"x"@EN`
    /// and `"x"@en` to one symbol), and a QName datatype in its expanded
    /// `^^<iri>` spelling (ditto).
    fn scan_literal(&mut self) -> Option<()> {
        let b = self.bytes();
        let start = self.pos;
        self.pos += 1;
        loop {
            match b.get(self.pos) {
                None => return None,
                Some(b'\\') => {
                    if self.pos + 1 >= b.len() {
                        return None;
                    }
                    self.pos += 2;
                }
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
            }
        }
        self.fp.push_bytes(&b[start..self.pos]);
        if b.get(self.pos) == Some(&b'@') {
            self.pos += 1;
            self.fp.push(b'@');
            let tag_start = self.pos;
            while self
                .bytes()
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'-')
            {
                self.fp.push(b[self.pos].to_ascii_lowercase());
                self.pos += 1;
            }
            if self.pos == tag_start {
                return None;
            }
        } else if b.get(self.pos) == Some(&b'^') && b.get(self.pos + 1) == Some(&b'^') {
            self.pos += 2;
            self.fp.push_bytes(b"^^");
            if b.get(self.pos) == Some(&b'<') {
                let dt_start = self.pos;
                self.pos += 1;
                while self.pos < b.len() && b[self.pos] != b'>' {
                    self.pos += 1;
                }
                if b.get(self.pos) != Some(&b'>') {
                    return None;
                }
                self.pos += 1;
                self.fp.push_bytes(&b[dt_start..self.pos]);
            } else {
                let (dtype, has_colon) = self.scan_name_token();
                if dtype.is_empty() || !has_colon {
                    return None;
                }
                self.feed_qname(dtype)?;
            }
        }
        Some(())
    }

    /// Scan a bare numeric literal exactly like the tokenizer (fraction dot
    /// consumed only when a digit follows) and feed it verbatim.
    fn scan_numeric(&mut self) -> Option<()> {
        let b = self.bytes();
        let start = self.pos;
        if b[self.pos] == b'+' || b[self.pos] == b'-' {
            self.pos += 1;
        }
        while b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if b.get(self.pos) == Some(&b'.') && b.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
            while b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
        }
        if b.get(self.pos).is_some_and(|&c| name_byte(c)) {
            return None;
        }
        self.fp.push_bytes(&b[start..self.pos]);
        Some(())
    }

    /// Scan the query body token by token.
    fn scan_body(&mut self) -> Option<()> {
        loop {
            self.skip_trivia();
            let b = self.bytes();
            let Some(&c) = b.get(self.pos) else {
                return Some(());
            };
            self.sep();
            match c {
                b'{' | b'}' | b'(' | b')' | b'.' | b';' | b',' | b'*' | b'=' => {
                    self.pos += 1;
                    self.fp.push(c);
                }
                b'!' | b'>' => {
                    self.pos += 1;
                    self.fp.push(c);
                    if self.bytes().get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        self.fp.push(b'=');
                    }
                }
                b'&' | b'|' => {
                    if b.get(self.pos + 1) != Some(&c) {
                        return None;
                    }
                    self.pos += 2;
                    self.fp.push(c);
                    self.fp.push(c);
                }
                b'<' => {
                    // IRI if a `>`-terminated IRIREF body follows, else the
                    // `<` / `<=` operator — same disambiguation as the
                    // tokenizer's `scan_angle`.
                    let mut end = self.pos + 1;
                    while end < b.len() && iri_byte(b[end]) {
                        end += 1;
                    }
                    if b.get(end) == Some(&b'>') {
                        self.fp.push_bytes(&b[self.pos..end + 1]);
                        self.pos = end + 1;
                    } else {
                        self.pos += 1;
                        self.fp.push(b'<');
                        if self.bytes().get(self.pos) == Some(&b'=') {
                            self.pos += 1;
                            self.fp.push(b'=');
                        }
                    }
                }
                b'?' | b'$' => {
                    // `$x` and `?x` parse identically; canonical sigil `?`.
                    self.pos += 1;
                    let (name, has_colon) = self.scan_name_token();
                    if name.is_empty() || has_colon {
                        return None;
                    }
                    self.fp.push(b'?');
                    self.fp.push_bytes(name.as_bytes());
                }
                b'"' => self.scan_literal()?,
                b'_' if b.get(self.pos + 1) == Some(&b':') => {
                    self.pos += 2;
                    let (name, has_colon) = self.scan_name_token();
                    if name.is_empty() || has_colon {
                        return None;
                    }
                    self.fp.push_bytes(b"_:");
                    self.fp.push_bytes(name.as_bytes());
                }
                c if c.is_ascii_digit() => self.scan_numeric()?,
                b'+' | b'-' if b.get(self.pos + 1).is_some_and(u8::is_ascii_digit) => {
                    self.scan_numeric()?
                }
                c if name_byte(c) || c == b':' => {
                    let (text, has_colon) = self.scan_name_token();
                    if has_colon {
                        self.feed_qname(text)?;
                    } else if let Some(kw) = KEYWORDS.iter().find(|k| text.eq_ignore_ascii_case(k))
                    {
                        self.fp.push_bytes(kw.as_bytes());
                    } else {
                        self.fp.push_bytes(text.as_bytes());
                    }
                }
                _ => return None,
            }
        }
    }
}

/// Canonicalize and fingerprint one query text in a single pass — no
/// allocation (up to 8 PREFIX declarations; more spill a scratch vector),
/// no parsing. Servebench's traced runs (`cache.fp_canon_ns`, 2-vCPU
/// Linux container) read 0.7–1.6 µs per request, longer bodies costing
/// more.
///
/// Returns `None` for text the scanner cannot confidently canonicalize
/// (undeclared prefixes, unterminated tokens, bytes outside the grammar) —
/// exactly the texts the parser rejects. The caller should serve such
/// requests through the cold path without touching the cache.
pub fn fingerprint_query(text: &str) -> Option<QueryFingerprint> {
    let mut scanner = Scanner {
        input: text,
        pos: 0,
        fp: Fingerprinter::new(),
        prefixes: SmallVec::new(),
        any: false,
    };
    scanner.scan_prologue()?;
    scanner.scan_body()?;
    Some(scanner.fp.finish())
}

/// Fingerprint the **raw** bytes of a request — no canonicalization, pure
/// word-at-a-time hashing (a few ns per 100 bytes). This is the first-level
/// cache key for byte-identical repeats, which dominate real endpoint
/// traffic (clients re-send the same string); [`fingerprint_query`] is the
/// second level that folds re-*spellings* onto one entry.
///
/// Safe to mix with canonical fingerprints in one [`RewriteCache`]: the
/// canonical stream of a query is itself a valid spelling of that query
/// (single separators, expanded IRIs, normalized keywords), so even a text
/// whose raw bytes *are* some query's canonical stream maps to the same
/// rewrite either way.
pub fn fingerprint_raw(text: &str) -> QueryFingerprint {
    let mut fp = Fingerprinter::new();
    fp.push_bytes(text.as_bytes());
    fp.finish()
}

/// Linear-probe window: an entry lives within `PROBE` slots of its home
/// index, so lookups touch a bounded neighborhood and eviction (which must
/// keep entries findable) picks victims inside the same window.
const PROBE: usize = 8;

/// Sizing knobs for [`RewriteCache`]. Shard and slot counts round up to
/// powers of two; `value_cap` rounds up to a multiple of 8 (the pool is
/// word-granular). Defaults: 8 shards × 1024 slots × 2 KiB ≈ 16 MiB of
/// value pool — thousands of distinct hot queries, far beyond the hot set
/// of a skewed endpoint workload.
#[derive(Copy, Clone, Debug)]
pub struct CacheConfig {
    pub shards: usize,
    pub slots_per_shard: usize,
    /// Maximum cacheable rendered-rewrite size in bytes; longer results are
    /// simply not cached.
    pub value_cap: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            slots_per_shard: 1024,
            value_cap: 2048,
        }
    }
}

/// Slot metadata. The value bytes live in the shard's word pool at the
/// slot's fixed offset; `version` is a seqlock (odd = write in progress)
/// that makes the fp/gen/len/value group read consistently without locks.
struct Slot {
    version: AtomicU32,
    /// CLOCK reference bit: set on hit, cleared by the eviction hand.
    refbit: AtomicU32,
    /// Fingerprint hash; 0 = never written.
    fp: AtomicU64,
    norm_len: AtomicU32,
    /// Generation (store revision) the entry was rendered under.
    gen: AtomicU64,
    /// Value length in bytes (≤ `value_cap`).
    val_len: AtomicU32,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU32::new(0),
            refbit: AtomicU32::new(0),
            fp: AtomicU64::new(0),
            norm_len: AtomicU32::new(0),
            gen: AtomicU64::new(0),
            val_len: AtomicU32::new(0),
        }
    }
}

struct Shard {
    /// Writer spinlock: fills/evictions are rare relative to hits and
    /// complete in sub-µs, so a spin (not a parking mutex) keeps the write
    /// path dependency-free and the struct `const`-free.
    lock: AtomicU32,
    /// CLOCK hand: rotating start offset within the probe window.
    hand: AtomicU32,
    slots: Box<[Slot]>,
    /// Flat value pool: `slots.len() * words_per_slot` relaxed-atomic words.
    /// Racing reads of words being overwritten are defined behavior; the
    /// seqlock version check discards torn copies.
    pool: Box<[AtomicU64]>,
    /// Inserts refused because the value exceeded `value_cap`. Oversized
    /// rewrites (UNION blowups) are the queries that would benefit most
    /// from caching, so the bypass rate is an observability signal, not
    /// noise — surfaced via [`RewriteCache::oversize_bypasses`].
    bypassed: AtomicU64,
    /// Probe-level hit/miss counters (one lookup = one count; the serve
    /// engine's two-level raw→canonical keying therefore books a
    /// canonical hit as one miss *and* one hit — see [`CacheStats`]).
    hits: AtomicU64,
    misses: AtomicU64,
    /// Live entries overwritten by an insert for a *different* key —
    /// capacity pressure made visible (refreshes of the same key are not
    /// evictions).
    evictions: AtomicU64,
}

/// Point-in-time observability snapshot of one shard, taken by
/// [`RewriteCache::stats`].
#[derive(Copy, Clone, Default, Debug)]
pub struct ShardCacheStats {
    /// Slots holding a written entry (never decreases: slots are
    /// overwritten, not emptied).
    pub occupancy: usize,
    /// Total slots in the shard.
    pub slots: usize,
    /// Probe-level lookup hits/misses (see [`CacheStats::hit_ratio`] for
    /// the caveat on two-level keying).
    pub hits: u64,
    pub misses: u64,
    /// Live entries overwritten by an insert under a different key.
    pub evictions: u64,
    /// Inserts refused because the value exceeded the cache's value cap.
    pub oversize_bypasses: u64,
}

/// Aggregated cache observability: per-shard occupancy, eviction, and
/// hit/miss counters, snapshotted without stopping traffic (counters are
/// relaxed atomics; occupancy is a racy-but-monotone scan).
///
/// Hit/miss counters are **probe-level**: every [`RewriteCache::lookup`]
/// books exactly one hit or miss. A caller probing the same cache under
/// two keys per request (the serve engine's raw→canonical levels) will
/// therefore see a lower probe hit ratio than its request-level hit rate
/// — both are real signals, they answer different questions.
#[derive(Clone, Default, Debug)]
pub struct CacheStats {
    pub per_shard: Vec<ShardCacheStats>,
}

impl CacheStats {
    /// Written slots across all shards.
    pub fn occupancy(&self) -> usize {
        self.per_shard.iter().map(|s| s.occupancy).sum()
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard.iter().map(|s| s.slots).sum()
    }

    pub fn hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.hits).sum()
    }

    pub fn misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.misses).sum()
    }

    pub fn evictions(&self) -> u64 {
        self.per_shard.iter().map(|s| s.evictions).sum()
    }

    pub fn oversize_bypasses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.oversize_bypasses).sum()
    }

    /// Probe-level hit ratio in `[0, 1]`; 0.0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Sharded, read-lock-free map from [`QueryFingerprint`] to rendered
/// rewrite bytes. See the module docs for the design; the public surface
/// is just [`RewriteCache::lookup`] and [`RewriteCache::insert`].
pub struct RewriteCache {
    shards: Box<[Shard]>,
    value_cap: usize,
    words_per_slot: usize,
}

impl Default for RewriteCache {
    fn default() -> RewriteCache {
        RewriteCache::new(CacheConfig::default())
    }
}

impl RewriteCache {
    pub fn new(config: CacheConfig) -> RewriteCache {
        let n_shards = config.shards.max(1).next_power_of_two();
        let n_slots = config.slots_per_shard.max(PROBE).next_power_of_two();
        let value_cap = config.value_cap.max(8).div_ceil(8) * 8;
        let words_per_slot = value_cap / 8;
        let shards = (0..n_shards)
            .map(|_| Shard {
                lock: AtomicU32::new(0),
                hand: AtomicU32::new(0),
                slots: (0..n_slots).map(|_| Slot::new()).collect(),
                pool: (0..n_slots * words_per_slot)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                bypassed: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect();
        RewriteCache {
            shards,
            value_cap,
            words_per_slot,
        }
    }

    /// Maximum cacheable value size in bytes (config's `value_cap`, rounded
    /// up to a word multiple). Size reusable read buffers to this.
    #[inline]
    pub fn value_cap(&self) -> usize {
        self.value_cap
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shards[0].slots.len()
    }

    /// Inserts refused because the value exceeded [`RewriteCache::value_cap`]
    /// — queries that will re-render on every request. Summed across
    /// shards; monotone over the cache's lifetime.
    pub fn oversize_bypasses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.bypassed.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot per-shard observability: occupancy, probe-level hit/miss
    /// counters, evictions, and oversize bypasses. The occupancy scan
    /// walks every slot (relaxed loads), so treat this as an operator
    /// endpoint, not a hot-path call.
    pub fn stats(&self) -> CacheStats {
        let per_shard = self
            .shards
            .iter()
            .map(|s| ShardCacheStats {
                occupancy: s
                    .slots
                    .iter()
                    .filter(|slot| slot.fp.load(Ordering::Relaxed) != 0)
                    .count(),
                slots: s.slots.len(),
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                oversize_bypasses: s.bypassed.load(Ordering::Relaxed),
            })
            .collect();
        CacheStats { per_shard }
    }

    /// Shard for a fingerprint (high hash bits) and home slot within it
    /// (low hash bits) — distinct bit ranges so shard and slot selection
    /// stay uncorrelated.
    #[inline]
    fn place(&self, fp: QueryFingerprint) -> (&Shard, usize) {
        let shard = &self.shards[(fp.hash >> 48) as usize & (self.shards.len() - 1)];
        let slot = fp.hash as usize & (shard.slots.len() - 1);
        (shard, slot)
    }

    /// Look up `fp` under generation `gen`, copying the cached bytes into
    /// `out` (cleared first) on a hit. Lock-free and allocation-free once
    /// `out` has `value_cap` capacity; a probe that races a concurrent
    /// overwrite fails its version check and reports a miss.
    ///
    /// On `true`, `out` holds bytes some `insert` stored verbatim under the
    /// same (fingerprint, generation) — for this crate's use, the rendered
    /// rewrite `String`, so they are valid UTF-8.
    pub fn lookup(&self, fp: QueryFingerprint, gen: u64, out: &mut Vec<u8>) -> bool {
        let (shard, home) = self.place(fp);
        let mask = shard.slots.len() - 1;
        for i in 0..PROBE {
            let idx = (home + i) & mask;
            let slot = &shard.slots[idx];
            let v1 = slot.version.load(Ordering::Acquire);
            let sfp = slot.fp.load(Ordering::Relaxed);
            if sfp == 0 {
                // Slots are never emptied once written, so a vacant slot
                // terminates the probe: nothing was ever pushed past it.
                shard.misses.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if v1 & 1 == 1
                || sfp != fp.hash
                || slot.norm_len.load(Ordering::Relaxed) != fp.norm_len
                || slot.gen.load(Ordering::Relaxed) != gen
            {
                continue;
            }
            let len = slot.val_len.load(Ordering::Relaxed) as usize;
            if len > self.value_cap {
                continue; // torn metadata; the version check would fail anyway
            }
            // Word-granular copy-out straight into `out`'s storage:
            // resize once (no per-word capacity checks), then overwrite by
            // 8-byte chunks. The words are relaxed atomic loads, so racing
            // an overwrite is defined — torn bytes are discarded below.
            let n_words = len.div_ceil(8);
            out.clear();
            out.resize(n_words * 8, 0);
            let base = idx * self.words_per_slot;
            for (chunk, w) in out
                .chunks_exact_mut(8)
                .zip(&shard.pool[base..base + n_words])
            {
                chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            out.truncate(len);
            // Order the data loads before the validating version re-read.
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) == v1 {
                slot.refbit.store(1, Ordering::Relaxed);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // Torn copy (entry was overwritten mid-read): treat as a miss —
            // the cold path will re-render and refresh the entry.
            shard.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Insert `value` for `fp` under generation `gen`. Values longer than
    /// [`RewriteCache::value_cap`] are not cached — the bypass is counted
    /// per shard and surfaced by [`RewriteCache::oversize_bypasses`].
    /// Writers serialize per shard behind a spinlock; victim choice is:
    /// refresh the matching entry, else a never-written slot, else a
    /// stale-generation entry, else CLOCK second-chance over the probe
    /// window.
    pub fn insert(&self, fp: QueryFingerprint, gen: u64, value: &[u8]) {
        let (shard, home) = self.place(fp);
        if value.len() > self.value_cap {
            shard.bypassed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mask = shard.slots.len() - 1;
        while shard.lock.swap(1, Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        let mut victim = None;
        let mut stale = None;
        for i in 0..PROBE {
            let idx = (home + i) & mask;
            let slot = &shard.slots[idx];
            let sfp = slot.fp.load(Ordering::Relaxed);
            if sfp == 0 {
                victim = Some(idx);
                break;
            }
            if sfp == fp.hash && slot.norm_len.load(Ordering::Relaxed) == fp.norm_len {
                victim = Some(idx);
                break;
            }
            if stale.is_none() && slot.gen.load(Ordering::Relaxed) != gen {
                stale = Some(idx);
            }
        }
        let idx = victim.or(stale).unwrap_or_else(|| {
            // CLOCK second chance over the probe window: sweep from the
            // shard hand clearing reference bits; the first slot found
            // clear is the victim. Two sweeps bound the scan — after one
            // full sweep every bit is clear.
            let start = shard.hand.load(Ordering::Relaxed) as usize;
            let mut chosen = (home + (start % PROBE)) & mask;
            for k in 0..2 * PROBE {
                let idx = (home + ((start + k) % PROBE)) & mask;
                if shard.slots[idx].refbit.swap(0, Ordering::Relaxed) == 0 {
                    chosen = idx;
                    shard
                        .hand
                        .store(((start + k + 1) % PROBE) as u32, Ordering::Relaxed);
                    break;
                }
            }
            chosen
        });

        let slot = &shard.slots[idx];
        let prev_fp = slot.fp.load(Ordering::Relaxed);
        if prev_fp != 0 && prev_fp != fp.hash {
            // Overwriting a live entry for a different key: capacity (or
            // staleness) pushed something out. Same-key refreshes are not
            // evictions.
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let v = slot.version.load(Ordering::Relaxed);
        // Seqlock write: odd version first, then data, then even version.
        slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.fp.store(fp.hash, Ordering::Relaxed);
        slot.norm_len.store(fp.norm_len, Ordering::Relaxed);
        slot.gen.store(gen, Ordering::Relaxed);
        slot.val_len.store(value.len() as u32, Ordering::Relaxed);
        let base = idx * self.words_per_slot;
        let mut chunks = value.chunks_exact(8);
        let mut wi = base;
        for c in &mut chunks {
            shard.pool[wi].store(
                u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
                Ordering::Relaxed,
            );
            wi += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            shard.pool[wi].store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
        slot.version.store(v.wrapping_add(2), Ordering::Release);
        slot.refbit.store(1, Ordering::Relaxed);
        shard.lock.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(text: &str) -> QueryFingerprint {
        fingerprint_query(text).unwrap_or_else(|| panic!("uncacheable: {text:?}"))
    }

    #[test]
    fn whitespace_and_comments_collapse() {
        let a = fp("SELECT * WHERE { ?s <http://p> ?o }");
        assert_eq!(a, fp("SELECT  *\n\tWHERE  {\n  ?s <http://p> ?o\n}\n"));
        assert_eq!(a, fp("SELECT * # projection\nWHERE { ?s <http://p> ?o }"));
        assert_ne!(a, fp("SELECT * WHERE { ?s <http://q> ?o }"));
        assert_ne!(
            a,
            fp("SELECT * WHERE { ?s <http://p> ?o . ?s <http://p> ?o }")
        );
    }

    #[test]
    fn keyword_case_normalizes_but_terms_stay_case_sensitive() {
        let a = fp("SELECT * WHERE { ?s <http://p> ?o }");
        assert_eq!(a, fp("select * where { ?s <http://p> ?o }"));
        assert_eq!(a, fp("Select * Where { ?s <http://p> ?o }"));
        // Variable names and IRIs are case-sensitive.
        assert_ne!(a, fp("SELECT * WHERE { ?S <http://p> ?o }"));
        assert_ne!(a, fp("SELECT * WHERE { ?s <HTTP://p> ?o }"));
        // `true`/`false` are case-sensitive in the parser: `TRUE` is a
        // different (invalid) word and must not merge with `true`.
        assert_ne!(
            fp("SELECT * WHERE { ?s <http://p> true }"),
            fp("SELECT * WHERE { ?s <http://p> TRUE }")
        );
    }

    #[test]
    fn dollar_sigil_and_lang_tag_case_normalize() {
        assert_eq!(
            fp("SELECT ?x WHERE { ?x <http://p> ?y }"),
            fp("SELECT $x WHERE { $x <http://p> $y }")
        );
        assert_eq!(
            fp("SELECT * WHERE { ?s <http://p> \"x\"@EN-gb }"),
            fp("SELECT * WHERE { ?s <http://p> \"x\"@en-GB }")
        );
        // Literal bodies are untouched.
        assert_ne!(
            fp("SELECT * WHERE { ?s <http://p> \"X\" }"),
            fp("SELECT * WHERE { ?s <http://p> \"x\" }")
        );
    }

    #[test]
    fn prefix_aliases_resolve_to_one_fingerprint() {
        let full = fp("SELECT * WHERE { ?s <http://ex.org/ns#name> ?o }");
        // Alias spelling, renamed alias, extra unused declaration, and
        // shadowed redeclaration all canonicalize to the full-IRI stream.
        assert_eq!(
            full,
            fp("PREFIX ex: <http://ex.org/ns#> SELECT * WHERE { ?s ex:name ?o }")
        );
        assert_eq!(
            full,
            fp("PREFIX zz: <http://ex.org/ns#> SELECT * WHERE { ?s zz:name ?o }")
        );
        assert_eq!(
            full,
            fp("PREFIX a: <http://other/> PREFIX b: <http://ex.org/ns#> \
                SELECT * WHERE { ?s b:name ?o }")
        );
        assert_eq!(
            full,
            fp("PREFIX p: <http://other/> PREFIX p: <http://ex.org/ns#> \
                SELECT * WHERE { ?s p:name ?o }")
        );
        // Datatype QNames expand too.
        assert_eq!(
            fp("PREFIX x: <http://t/> SELECT * WHERE { ?s <http://p> \"3\"^^x:int }"),
            fp("SELECT * WHERE { ?s <http://p> \"3\"^^<http://t/int> }")
        );
        // Different expansion, different fingerprint.
        assert_ne!(
            full,
            fp("PREFIX ex: <http://ex.org/other#> SELECT * WHERE { ?s ex:name ?o }")
        );
    }

    #[test]
    fn uncacheable_texts_return_none() {
        for text in [
            "SELECT * WHERE { ?s und:eclared ?o }",
            "SELECT * WHERE { ?s <http://p> \"unterminated }",
            "SELECT * WHERE { ?s <http://p> \"x\"@ }",
            "SELECT * WHERE { ?s <http://p> ?o FILTER(?o & 1) }",
            "PREFIX broken <http://p> SELECT * WHERE { ?s ?p ?o }",
            "SELECT * WHERE { ? <http://p> ?o }",
            "SELECT * WHERE { ?s <http://p> 3abc }",
            "SELECT * WHERE { ?s <http://p> ?o } \x01",
        ] {
            assert_eq!(fingerprint_query(text), None, "cached {text:?}");
        }
    }

    #[test]
    fn operator_spellings_do_not_merge() {
        // `<` as comparison vs `<=`: distinct streams.
        assert_ne!(
            fp("SELECT * WHERE { ?s <http://p> ?o FILTER(?o < 3) }"),
            fp("SELECT * WHERE { ?s <http://p> ?o FILTER(?o <= 3) }")
        );
        // Adjacent tokens never concatenate across the separator.
        assert_ne!(
            fp("SELECT ?a ?b WHERE { ?a <http://p> ?b }"),
            fp("SELECT ?ab WHERE { ?ab <http://p> ?ab }")
        );
    }

    #[test]
    fn fingerprint_is_chunking_independent() {
        // One stream fed as many small writes vs few large ones.
        let mut a = Fingerprinter::new();
        for b in b"abcdefghijklmnopqrstuvwxyz0123456789" {
            a.push(*b);
        }
        let mut b = Fingerprinter::new();
        b.push_bytes(b"abc");
        b.push_bytes(b"defghijklmnop");
        b.push_bytes(b"qrstuvwxyz0123456789");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn cache_round_trips_and_terminates_probes() {
        let cache = RewriteCache::new(CacheConfig {
            shards: 2,
            slots_per_shard: 16,
            value_cap: 64,
        });
        let mut buf = Vec::new();
        let k = fp("SELECT * WHERE { ?s <http://p0> ?o }");
        assert!(!cache.lookup(k, 0, &mut buf));
        cache.insert(k, 0, b"rewritten-0");
        assert!(cache.lookup(k, 0, &mut buf));
        assert_eq!(buf, b"rewritten-0");
        // Refresh in place.
        cache.insert(k, 0, b"rewritten-0b");
        assert!(cache.lookup(k, 0, &mut buf));
        assert_eq!(buf, b"rewritten-0b");
        // Oversized values are not cached — and each refusal is counted.
        assert_eq!(cache.oversize_bypasses(), 0);
        let big = fp("SELECT * WHERE { ?s <http://big> ?o }");
        cache.insert(big, 0, &[b'x'; 65]);
        assert!(!cache.lookup(big, 0, &mut buf));
        assert_eq!(cache.oversize_bypasses(), 1);
        cache.insert(big, 0, &[b'x'; 200]);
        assert_eq!(cache.oversize_bypasses(), 2);
        // A value exactly at the cap is cacheable, not a bypass.
        cache.insert(big, 0, &[b'y'; 64]);
        assert!(cache.lookup(big, 0, &mut buf));
        assert_eq!(cache.oversize_bypasses(), 2);
    }

    #[test]
    fn generation_mismatch_misses_and_recovers() {
        let cache = RewriteCache::new(CacheConfig::default());
        let k = fp("SELECT * WHERE { ?s <http://p> ?o }");
        let mut buf = Vec::new();
        cache.insert(k, 7, b"under-rev-7");
        assert!(cache.lookup(k, 7, &mut buf));
        // Rule set changed (revision bumped): stale entry must miss.
        assert!(!cache.lookup(k, 8, &mut buf));
        cache.insert(k, 8, b"under-rev-8");
        assert!(cache.lookup(k, 8, &mut buf));
        assert_eq!(buf, b"under-rev-8");
        assert!(!cache.lookup(k, 7, &mut buf));
    }

    #[test]
    fn eviction_keeps_recent_entries_findable() {
        // Tiny cache, many inserts: churn far past capacity, then verify
        // the most recent insert is always servable.
        let cache = RewriteCache::new(CacheConfig {
            shards: 1,
            slots_per_shard: 8,
            value_cap: 64,
        });
        let mut buf = Vec::new();
        for i in 0..256 {
            let text = format!("SELECT * WHERE {{ ?s <http://p{i}> ?o }}");
            let k = fp(&text);
            let val = format!("result-{i}");
            cache.insert(k, 0, val.as_bytes());
            assert!(cache.lookup(k, 0, &mut buf), "just-inserted {i} missing");
            assert_eq!(buf, val.as_bytes());
        }
    }

    #[test]
    fn stats_track_occupancy_hits_misses_and_evictions() {
        let cache = RewriteCache::new(CacheConfig {
            shards: 1,
            slots_per_shard: 8,
            value_cap: 64,
        });
        let mut buf = Vec::new();
        let s0 = cache.stats();
        assert_eq!((s0.occupancy(), s0.capacity()), (0, 8));
        assert_eq!((s0.hits(), s0.misses(), s0.evictions()), (0, 0, 0));
        assert_eq!(s0.hit_ratio(), 0.0);

        let k = fp("SELECT * WHERE { ?s <http://p0> ?o }");
        assert!(!cache.lookup(k, 0, &mut buf)); // miss
        cache.insert(k, 0, b"v0");
        assert!(cache.lookup(k, 0, &mut buf)); // hit
        let s1 = cache.stats();
        assert_eq!((s1.occupancy(), s1.hits(), s1.misses()), (1, 1, 1));
        assert!((s1.hit_ratio() - 0.5).abs() < 1e-9);
        // Refreshing the same key is not an eviction.
        cache.insert(k, 0, b"v0b");
        assert_eq!(cache.stats().evictions(), 0);

        // Churn far past the 8-slot capacity: evictions must be counted
        // and occupancy saturates at capacity.
        for i in 0..64 {
            let text = format!("SELECT * WHERE {{ ?s <http://p{i}> ?o }}");
            cache.insert(fp(&text), 0, b"x");
        }
        let s2 = cache.stats();
        assert!(
            s2.evictions() > 0,
            "64 inserts into 8 slots evicted nothing"
        );
        assert!(s2.occupancy() <= s2.capacity());
        assert!(s2.occupancy() > 1);
        // Oversize bypasses are surfaced through the same snapshot.
        cache.insert(fp("SELECT * WHERE { ?s <http://big> ?o }"), 0, &[b'x'; 65]);
        assert_eq!(cache.stats().oversize_bypasses(), 1);
    }

    #[test]
    fn from_parts_never_produces_the_vacant_sentinel() {
        assert_eq!(QueryFingerprint::from_parts(0, 5).hash, 1);
        assert_eq!(QueryFingerprint::from_parts(3, 5).hash, 3);
    }
}
