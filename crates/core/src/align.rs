//! Ontology alignments and the alignment store with dense symbol-id
//! rule dispatch.
//!
//! Following Correndo et al. (EDBT 2010), an alignment rule is either an
//! **entity alignment** `e1 ≡ e2` (rewrite every occurrence of `e1` to `e2`)
//! or a **predicate alignment** mapping a triple-pattern template to a
//! graph-pattern template, e.g.
//!
//! ```text
//! ?x src:authorOf ?y   ⇒   ?y tgt:author ?x
//! ?x src:name ?n       ⇒   ?x tgt:firstName ?f . ?x tgt:lastName ?l
//! ```
//!
//! The hot path is "for each query triple pattern, find the rules that could
//! apply". The store answers it from **dense direct-indexed tables** keyed
//! by interner symbol id, derived from the rule list in one pass — the
//! dictionary-encoded dispatch columnar SPARQL engines use: interner symbols
//! are dense `u32`s, so "hash the key, probe, compare" collapses into a
//! single bounds-checked array load. Entity targets and predicate posting-list
//! offsets share one merged per-symbol dispatch record (entity targets in
//! the concrete-kind lanes, CSR offsets in the otherwise-unused variable
//! lane), and rule templates are pooled flat by rule id so applying a match
//! never chases the rule list. The tables are built lazily on the first
//! lookup after a rule load (or eagerly by
//! [`AlignmentStore::build_dense_index`]) and are the only lookup path.
//!
//! The [`crate::rewriter::LinearRewriter`] ignores the tables and scans the
//! rule list instead, as the benchmark baseline.

use std::sync::OnceLock;

use crate::pattern::{ExprNode, TriplePattern};
use crate::term::{Term, TermKind, SYM_MASK, TAG_SHIFT};

/// Vacant guard slot in a [`RuleTemplate`] (and in the dense per-rule guard
/// pool): "this rule has no firing condition".
pub const NO_EXPR: u32 = u32::MAX;

/// The right-hand side of a complex correspondence ([`Rule::Complex`]): a
/// guarded group-pattern template in the same flattened index-linked form
/// [`crate::pattern::GroupPattern`] uses.
///
/// * `triples` — the body. May be a chain linked by existential variables:
///   variables (or blank nodes) not bound by the rule's lhs get fresh names
///   at application time, exactly like the flat [`Rule::Predicate`] rhs.
/// * `exprs` — one self-contained expression pool shared by the guard and
///   the emitted filters. Child indices are **template-relative** (0-based
///   into `exprs`) and must be topologically ordered — every node's
///   children sit strictly before it — so the pool survives CSR slicing in
///   the dense index and copies into a query's expression buffer with a
///   single base offset.
/// * `guard` — root (into `exprs`) of the optional firing condition, or
///   [`NO_EXPR`]. The rewriter evaluates the guard against the lhs bindings
///   of each match: statically false → the rule does not fire for that
///   pattern; statically true → it fires with no residue; undecidable
///   (e.g. a comparison over a variable the query leaves open) → it fires
///   and the instantiated guard is emitted as a `FILTER` for the endpoint
///   to decide.
/// * `filters` — roots (into `exprs`) of constraints always emitted
///   alongside the body. Value transforms live here as FILTER-equality
///   constraints relating an existential to a computed/constant term: the
///   AST deliberately has no BIND node, so computed terms lower to the
///   FILTER syntax that already round-trips through render → parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleTemplate {
    pub triples: Vec<TriplePattern>,
    pub exprs: Vec<ExprNode>,
    pub guard: u32,
    pub filters: Vec<u32>,
}

impl Default for RuleTemplate {
    fn default() -> RuleTemplate {
        RuleTemplate {
            triples: Vec::new(),
            exprs: Vec::new(),
            guard: NO_EXPR,
            filters: Vec::new(),
        }
    }
}

impl RuleTemplate {
    /// A template that is just a triple body — semantically identical to a
    /// flat [`Rule::Predicate`] rhs, useful as a starting point to hang a
    /// guard or filters on.
    pub fn from_triples(triples: Vec<TriplePattern>) -> RuleTemplate {
        RuleTemplate {
            triples,
            ..RuleTemplate::default()
        }
    }

    /// Append an expression node to the template pool; returns its
    /// (template-relative) index for use as a child, guard, or filter root.
    pub fn push_expr(&mut self, node: ExprNode) -> u32 {
        let idx = self.exprs.len() as u32;
        self.exprs.push(node);
        idx
    }

    /// Set the firing condition to the expression rooted at `root`.
    pub fn set_guard(&mut self, root: u32) {
        self.guard = root;
    }

    /// Emit the expression rooted at `root` as a FILTER constraint whenever
    /// the rule fires.
    pub fn push_filter(&mut self, root: u32) {
        self.filters.push(root);
    }
}

/// One alignment rule. Stored in a flat `Vec`; rule ids are indices into it,
/// and "first matching rule in id order wins" is the tie-break both
/// rewriters implement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `from ≡ to`: substitute `to` wherever `from` occurs (subject,
    /// predicate, or object position).
    Entity { from: Term, to: Term },
    /// Template rewrite: a query pattern that matches `lhs` is replaced by
    /// `rhs` with the lhs variable bindings applied. Variables occurring in
    /// `rhs` but not in `lhs` are existential and get fresh names at
    /// application time. The converse — an lhs variable unused in `rhs` —
    /// is deliberately legal: the paper's alignments may be lossy (the
    /// target ontology cannot always express every source binding), and the
    /// rule author owns that trade-off.
    Predicate {
        lhs: TriplePattern,
        rhs: Vec<TriplePattern>,
    },
    /// Complex correspondence: like [`Rule::Predicate`] but the replacement
    /// is a guarded group-pattern template — triple chains linked by
    /// existentials, emitted FILTER constraints / value transforms, and an
    /// optional firing condition. See [`RuleTemplate`].
    Complex {
        lhs: TriplePattern,
        tmpl: RuleTemplate,
    },
}

/// Error adding a rule to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// Predicate templates must have a concrete (non-variable) predicate —
    /// it is the index key and the paper's alignments are per-predicate.
    VariablePredicate,
    /// Entity alignments relate concrete terms; a variable cannot be ≡ to
    /// anything.
    VariableEntity,
    /// Empty right-hand side would silently delete query patterns.
    EmptyTemplate,
    /// Rule templates must not contain rewriter-minted [`TermKind::Fresh`]
    /// terms — their counters are meaningful only within one rewrite call,
    /// so a rule carrying one could capture the engine's own existentials.
    FreshTerm,
    /// A template expression pool is not self-contained: a child index
    /// points at or past its own node (the pool must be topologically
    /// ordered), or a guard/filter root is out of bounds.
    MalformedTemplateExpr,
    /// A guard expression references a variable the rule's lhs does not
    /// bind. Guards are decided against lhs bindings alone, so an unbound
    /// variable could never be evaluated — nor even named consistently in
    /// the residual FILTER.
    GuardVariableUnbound,
    /// A template filter references a variable that is neither lhs-bound
    /// nor existential (occurring in the template's triples): it would
    /// dangle in the rewritten query, constraining nothing.
    TemplateVariableUnbound,
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::VariablePredicate => {
                f.write_str("predicate alignment template must have a concrete predicate")
            }
            AlignError::VariableEntity => {
                f.write_str("entity alignment endpoints must be concrete terms")
            }
            AlignError::EmptyTemplate => {
                f.write_str("predicate alignment right-hand side must be non-empty")
            }
            AlignError::FreshTerm => {
                f.write_str("alignment rules must not contain fresh (rewriter-minted) terms")
            }
            AlignError::MalformedTemplateExpr => f.write_str(
                "template expression pool must be topologically ordered and self-contained",
            ),
            AlignError::GuardVariableUnbound => {
                f.write_str("guard expression references a variable not bound by the rule lhs")
            }
            AlignError::TemplateVariableUnbound => f.write_str(
                "template filter references a variable that is neither lhs-bound nor existential",
            ),
        }
    }
}

impl std::error::Error for AlignError {}

/// Dense direct-indexed dispatch tables, derived from the rule list by
/// [`DenseIndex::build`]. The dispatch table is sized by the largest
/// rule-key symbol (an entity source or a template predicate), so a lookup
/// is a bounds-checked array load with no hashing and no key comparison,
/// and the table never outgrows the interner.
#[derive(Debug)]
struct DenseIndex {
    /// One past the largest rule-key symbol. Terms carrying a symbol at or
    /// past it — including a worker-local post-freeze intern — fall outside
    /// every table and correctly resolve to "no rule".
    symbol_bound: u32,
    /// The merged dispatch table: one 16-byte record of four `u32` lanes per
    /// symbol, `table[(symbol << 2) | lane]`, with `symbol_bound + 1`
    /// records.
    ///
    /// * Lanes 0..=2 (the concrete term tags — IRI, literal, blank) hold
    ///   the raw replacement term of the first entity rule for that source
    ///   term, or [`NO_ENTITY`]. The lane is selected by the term's tag
    ///   directly, so the slot is shift+or (no multiply), and one unsigned
    ///   compare on the raw term excludes variables and fresh terms before
    ///   any memory is touched.
    /// * Lane 3 — the variable tag, which can never be an entity source —
    ///   holds the CSR offset of the symbol's predicate posting list: the
    ///   candidates for predicate symbol `s` are
    ///   `pred_ids[table[(s << 2) | 3] .. table[((s + 1) << 2) | 3]]`, in
    ///   rule-id order (hence the one extra record at the end).
    ///
    /// Packing the CSR offsets into the otherwise-wasted variable lane puts
    /// a predicate's entity target and both posting-list offsets on the
    /// same (or at worst the adjacent) cache line, so the per-pattern
    /// predicate dispatch costs one line instead of three.
    table: Box<[u32]>,
    /// CSR payload: posting lists of predicate-rule ids, indexed by lane 3
    /// of `table`.
    pred_ids: Box<[u32]>,
    /// Flat template pools indexed by **rule id**, so applying a matched
    /// rule never touches the `Vec<Rule>` enum (48-byte entries behind a
    /// pointer-chased `Vec<TriplePattern>` each): `tmpl_lhs[id]` is the
    /// template's lhs, its rhs is
    /// `rhs_pool[tmpl_rhs_off[id] .. tmpl_rhs_off[id + 1]]`. Entity-rule
    /// ids hold a placeholder lhs and an empty rhs range; candidate lookup
    /// only ever yields predicate ids.
    tmpl_lhs: Box<[TriplePattern]>,
    tmpl_rhs_off: Box<[u32]>,
    rhs_pool: Box<[TriplePattern]>,
    /// Complex-template pools in the same by-rule-id CSR layout as
    /// `rhs_pool`: `tmpl_guard[id]` is the rule's guard root ([`NO_EXPR`]
    /// when absent or for non-complex rules), its expression pool is
    /// `expr_pool[tmpl_expr_off[id] .. tmpl_expr_off[id + 1]]`, its filter
    /// roots `filter_pool[tmpl_filter_off[id] .. tmpl_filter_off[id + 1]]`.
    /// Expression child indices and the guard/filter roots are
    /// template-relative, so the CSR slice reproduces each rule's
    /// self-contained pool exactly — no index fix-up on the hot path. Flat
    /// predicate rules get empty ranges, keeping their dispatch untouched.
    tmpl_guard: Box<[u32]>,
    tmpl_expr_off: Box<[u32]>,
    expr_pool: Box<[ExprNode]>,
    tmpl_filter_off: Box<[u32]>,
    filter_pool: Box<[u32]>,
}

/// Borrowed view of one predicate/complex rule's templates, as returned by
/// [`AlignmentStore::template`]. For flat [`Rule::Predicate`] rules the
/// expression fields are empty and `guard` is [`NO_EXPR`], so a single code
/// path in the rewriter serves both rule classes.
#[derive(Clone, Copy, Debug)]
pub struct TemplateRef<'a> {
    pub lhs: TriplePattern,
    pub triples: &'a [TriplePattern],
    /// Template-relative expression pool shared by `guard` and `filters`.
    pub exprs: &'a [ExprNode],
    /// Root into `exprs`, or [`NO_EXPR`] for an unconditional rule.
    pub guard: u32,
    /// Roots into `exprs` of the always-emitted FILTER constraints.
    pub filters: &'a [u32],
}

/// Vacant entity lane in [`DenseIndex::table`]. `u32::MAX` decodes as a
/// [`crate::term::TermKind::Fresh`] term, which
/// [`AlignmentStore::add_entity`] rejects, so no rule target can ever
/// collide with the sentinel.
const NO_ENTITY: u32 = u32::MAX;

/// Number of concrete term kinds (IRI, literal, blank) the dense entity
/// table maps; their tags are `0..KINDS`.
const KINDS: usize = 3;

/// Raw values at or above this are non-concrete: variables (tag 3) and
/// fresh terms (tags 4..=7). Neither can be an entity-rule source or a
/// template-predicate key, so one unsigned compare rejects both without
/// touching memory.
const CONCRETE_TAG_CEIL: u32 = (KINDS as u32) << TAG_SHIFT;

/// Walk the expression subtree rooted at `root` (build-time only — the
/// scratch stack allocates) and check `ok` on every [`ExprNode::Term`]
/// leaf. The pool is already validated topological, so indices are in
/// bounds.
fn leaves_satisfy(exprs: &[ExprNode], root: u32, mut ok: impl FnMut(Term) -> bool) -> bool {
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        match exprs[i as usize] {
            ExprNode::Term(t) => {
                if !ok(t) {
                    return false;
                }
            }
            ExprNode::Cmp(_, l, r) | ExprNode::And(l, r) | ExprNode::Or(l, r) => {
                stack.push(l);
                stack.push(r);
            }
            ExprNode::Not(c) => stack.push(c),
        }
    }
    true
}

impl DenseIndex {
    /// Derive every table from the rule list in one pass over it. The first
    /// entity rule for a source term wins (later duplicates stay in the
    /// list — the linear scan also takes the first match — but never win),
    /// and each predicate posting list is in rule-id order.
    fn build(rules: &[Rule]) -> DenseIndex {
        let lane3 = |sym: usize| (sym << 2) | 3;
        // One 4-lane record per key symbol plus the end-of-CSR sentinel
        // record, grown to the largest key seen. Lane 3 first counts each
        // symbol's predicate rules; the prefix sum below turns the counts
        // into offsets.
        let mut table = vec![NO_ENTITY, NO_ENTITY, NO_ENTITY, 0];
        // Flat template pools by rule id. Complex rules add their guard,
        // expression, and filter-root pools in the same CSR shape; flat and
        // entity rules contribute empty ranges, so the extra pools cost
        // nothing on their dispatch path.
        let placeholder = TriplePattern::new(Term::fresh(0), Term::fresh(0), Term::fresh(0));
        let mut tmpl_lhs = vec![placeholder; rules.len()].into_boxed_slice();
        let mut tmpl_rhs_off = vec![0u32; rules.len() + 1];
        let mut rhs_pool = Vec::new();
        let mut tmpl_guard = vec![NO_EXPR; rules.len()].into_boxed_slice();
        let mut tmpl_expr_off = vec![0u32; rules.len() + 1];
        let mut expr_pool = Vec::new();
        let mut tmpl_filter_off = vec![0u32; rules.len() + 1];
        let mut filter_pool = Vec::new();
        for (id, rule) in rules.iter().enumerate() {
            let key = match rule {
                Rule::Entity { from, .. } => *from,
                Rule::Predicate { lhs, .. } | Rule::Complex { lhs, .. } => lhs.p,
            };
            let sym = key.symbol().index();
            let records = (sym + 2) << 2;
            if table.len() < records {
                let old = table.len();
                table.resize(records, NO_ENTITY);
                for record in table[old..].chunks_exact_mut(4) {
                    record[3] = 0;
                }
            }
            match rule {
                Rule::Entity { from, to } => {
                    debug_assert!(
                        (from.kind() as usize) < KINDS,
                        "entity sources are concrete"
                    );
                    let slot = (sym << 2) | from.kind() as usize;
                    if table[slot] == NO_ENTITY {
                        table[slot] = to.raw();
                    }
                }
                Rule::Predicate { lhs, rhs } => {
                    table[lane3(sym)] += 1;
                    tmpl_lhs[id] = *lhs;
                    rhs_pool.extend_from_slice(rhs);
                }
                Rule::Complex { lhs, tmpl } => {
                    table[lane3(sym)] += 1;
                    tmpl_lhs[id] = *lhs;
                    rhs_pool.extend_from_slice(&tmpl.triples);
                    tmpl_guard[id] = tmpl.guard;
                    expr_pool.extend_from_slice(&tmpl.exprs);
                    filter_pool.extend_from_slice(&tmpl.filters);
                }
            }
            tmpl_rhs_off[id + 1] = rhs_pool.len() as u32;
            tmpl_expr_off[id + 1] = expr_pool.len() as u32;
            tmpl_filter_off[id + 1] = filter_pool.len() as u32;
        }

        // CSR into lane 3: an inclusive prefix sum leaves each symbol's
        // lane holding the end of its posting list (the sentinel record
        // counts nothing, so it holds the total). Filling rule ids in
        // reverse, decrementing as we go, leaves each lane at the start of
        // its list and every list in rule-id order. Entity-rule ids hold
        // the fresh placeholder lhs and are skipped.
        let symbol_bound = table.len() / 4 - 1;
        for sym in 1..=symbol_bound {
            table[lane3(sym)] += table[lane3(sym - 1)];
        }
        let mut pred_ids = vec![0u32; table[lane3(symbol_bound)] as usize].into_boxed_slice();
        for (id, lhs) in tmpl_lhs.iter().enumerate().rev() {
            if lhs.p.is_fresh() {
                continue;
            }
            let lane = lane3(lhs.p.symbol().index());
            table[lane] -= 1;
            pred_ids[table[lane] as usize] = id as u32;
        }

        DenseIndex {
            symbol_bound: symbol_bound as u32,
            table: table.into_boxed_slice(),
            pred_ids,
            tmpl_lhs,
            tmpl_rhs_off: tmpl_rhs_off.into_boxed_slice(),
            rhs_pool: rhs_pool.into_boxed_slice(),
            tmpl_guard,
            tmpl_expr_off: tmpl_expr_off.into_boxed_slice(),
            expr_pool: expr_pool.into_boxed_slice(),
            tmpl_filter_off: tmpl_filter_off.into_boxed_slice(),
            filter_pool: filter_pool.into_boxed_slice(),
        }
    }
}

/// Rule set plus its dense dispatch tables.
///
/// Every `add_*` drops the tables; the next lookup rebuilds them from the
/// rule list (or [`AlignmentStore::build_dense_index`] does so eagerly), so
/// a store is correct whether it was frozen, reloaded after a freeze, or
/// never frozen at all. Concurrent first lookups through a shared store
/// build the tables exactly once.
#[derive(Default, Debug)]
pub struct AlignmentStore {
    rules: Vec<Rule>,
    /// Dispatch tables derived from `rules`; empty until the first lookup
    /// (or `build_dense_index`) after the last `add_*`.
    dense: OnceLock<DenseIndex>,
    /// Monotonic rule-set revision: bumped by every `add_*`, never by
    /// `build_dense_index` (building the tables changes the lookup
    /// machinery, not the rules). This is the generation tag the
    /// rewrite-result cache ([`crate::cache::RewriteCache`]) stamps entries
    /// with — a post-freeze rule load bumps it, so every cached rewrite
    /// produced under the old rule set lazily misses, mirroring how the
    /// same `add_*` drops the dense tables.
    revision: u64,
}

impl AlignmentStore {
    pub fn new() -> AlignmentStore {
        AlignmentStore::default()
    }

    /// Register `from ≡ to`. Returns the rule id.
    pub fn add_entity(&mut self, from: Term, to: Term) -> Result<u32, AlignError> {
        if from.is_var() || to.is_var() {
            return Err(AlignError::VariableEntity);
        }
        if from.is_fresh() || to.is_fresh() {
            return Err(AlignError::FreshTerm);
        }
        Ok(self.push_rule(Rule::Entity { from, to }))
    }

    /// Register a template rewrite `lhs ⇒ rhs`. Returns the rule id.
    pub fn add_predicate(
        &mut self,
        lhs: TriplePattern,
        rhs: Vec<TriplePattern>,
    ) -> Result<u32, AlignError> {
        if lhs.p.is_var() {
            return Err(AlignError::VariablePredicate);
        }
        if rhs.is_empty() {
            return Err(AlignError::EmptyTemplate);
        }
        if lhs
            .terms()
            .into_iter()
            .chain(rhs.iter().flat_map(|tp| tp.terms()))
            .any(Term::is_fresh)
        {
            return Err(AlignError::FreshTerm);
        }
        Ok(self.push_rule(Rule::Predicate { lhs, rhs }))
    }

    /// Register a complex correspondence `lhs ⇒ tmpl` (guarded
    /// group-pattern template). Returns the rule id.
    ///
    /// Beyond the flat-rule checks, validation enforces the template's
    /// internal scoping: the expression pool must be topologically ordered
    /// with in-bounds guard/filter roots
    /// ([`AlignError::MalformedTemplateExpr`]), every variable a guard
    /// names must be lhs-bound ([`AlignError::GuardVariableUnbound`] —
    /// guards are decided from lhs bindings alone), and every variable a
    /// filter names must be lhs-bound or existential, i.e. occur in the
    /// template's triples ([`AlignError::TemplateVariableUnbound`]). That
    /// last rule is what lets instantiation run allocation-free: by the
    /// time filters are copied, every leaf already has a binding or a fresh
    /// rename recorded by the body.
    pub fn add_complex_predicate(
        &mut self,
        lhs: TriplePattern,
        tmpl: RuleTemplate,
    ) -> Result<u32, AlignError> {
        if lhs.p.is_var() {
            return Err(AlignError::VariablePredicate);
        }
        if tmpl.triples.is_empty() {
            return Err(AlignError::EmptyTemplate);
        }
        let expr_leaves = tmpl.exprs.iter().filter_map(|e| match e {
            ExprNode::Term(t) => Some(*t),
            _ => None,
        });
        if lhs
            .terms()
            .into_iter()
            .chain(tmpl.triples.iter().flat_map(|tp| tp.terms()))
            .chain(expr_leaves)
            .any(Term::is_fresh)
        {
            return Err(AlignError::FreshTerm);
        }
        // Pool topology: children strictly before parents, roots in bounds.
        let n = tmpl.exprs.len() as u32;
        for (i, e) in tmpl.exprs.iter().enumerate() {
            let i = i as u32;
            let ordered = match *e {
                ExprNode::Term(_) => true,
                ExprNode::Cmp(_, l, r) | ExprNode::And(l, r) | ExprNode::Or(l, r) => l < i && r < i,
                ExprNode::Not(c) => c < i,
            };
            if !ordered {
                return Err(AlignError::MalformedTemplateExpr);
            }
        }
        if (tmpl.guard != NO_EXPR && tmpl.guard >= n) || tmpl.filters.iter().any(|&r| r >= n) {
            return Err(AlignError::MalformedTemplateExpr);
        }
        // Variable scoping. Blank nodes follow the same existential
        // convention as variables (the rhs rename path treats them alike).
        let lhs_bound = |t: Term| t.is_var() && (t == lhs.s || t == lhs.o);
        let existential = |t: Term| {
            tmpl.triples
                .iter()
                .any(|tp| tp.s == t || tp.p == t || tp.o == t)
        };
        let needs_binding = |t: Term| t.is_var() || t.kind() == TermKind::Blank;
        if tmpl.guard != NO_EXPR
            && !leaves_satisfy(&tmpl.exprs, tmpl.guard, |t| {
                !needs_binding(t) || lhs_bound(t)
            })
        {
            return Err(AlignError::GuardVariableUnbound);
        }
        for &root in &tmpl.filters {
            if !leaves_satisfy(&tmpl.exprs, root, |t| {
                !needs_binding(t) || lhs_bound(t) || existential(t)
            }) {
                return Err(AlignError::TemplateVariableUnbound);
            }
        }
        Ok(self.push_rule(Rule::Complex { lhs, tmpl }))
    }

    /// Append a validated rule: drop the dispatch tables (the next lookup
    /// rebuilds them) and bump the revision, which invalidates any
    /// rewrite-result cache keyed to the old rule set the same way.
    fn push_rule(&mut self, rule: Rule) -> u32 {
        let id = u32::try_from(self.rules.len()).expect("more than u32::MAX rules");
        self.rules.push(rule);
        self.dense = OnceLock::new();
        self.revision += 1;
        id
    }

    /// Build the dense dispatch tables now rather than on the first lookup,
    /// so serving set-up (not the first request) pays for them.
    /// `symbol_bound` is the interner's
    /// [`symbol_bound`](crate::interner::Interner::symbol_bound) at freeze
    /// time; the tables themselves are sized by the rules.
    ///
    /// # Panics
    ///
    /// If a rule symbol is at or past `symbol_bound`: the interner was
    /// frozen before the rules were loaded.
    pub fn build_dense_index(&mut self, symbol_bound: usize) {
        assert!(
            self.dense().symbol_bound as usize <= symbol_bound,
            "build_dense_index: symbol_bound smaller than a rule symbol \
             (freeze the interner after loading rules, not before)"
        );
    }

    /// The dispatch tables, built from the rule list on first use after a
    /// rule load.
    #[inline]
    fn dense(&self) -> &DenseIndex {
        self.dense.get_or_init(|| DenseIndex::build(&self.rules))
    }

    /// The templates of predicate/complex rule `id` as a uniform
    /// [`TemplateRef`] (flat rules surface empty expression fields). Only
    /// meaningful for ids yielded by
    /// [`AlignmentStore::predicate_candidates`] (or an equivalent scan):
    /// this reads the flat template pools and never touches the rule list.
    #[inline]
    pub fn template(&self, id: u32) -> TemplateRef<'_> {
        let dense = self.dense();
        let id = id as usize;
        TemplateRef {
            lhs: dense.tmpl_lhs[id],
            triples: &dense.rhs_pool
                [dense.tmpl_rhs_off[id] as usize..dense.tmpl_rhs_off[id + 1] as usize],
            exprs: &dense.expr_pool
                [dense.tmpl_expr_off[id] as usize..dense.tmpl_expr_off[id + 1] as usize],
            guard: dense.tmpl_guard[id],
            filters: &dense.filter_pool
                [dense.tmpl_filter_off[id] as usize..dense.tmpl_filter_off[id + 1] as usize],
        }
    }

    /// Monotonic rule-set revision, bumped by every successful `add_*`.
    ///
    /// Use it as the generation tag for a [`crate::cache::RewriteCache`]:
    /// stamp inserts with the revision the rewrite ran under and look up
    /// with the current one. Rewriting is deterministic per (query text,
    /// rule set), so equal revisions guarantee the cached text is still the
    /// correct rewrite — and a post-freeze `add_*` bumps the revision,
    /// making every stale entry miss without any eager scan, exactly as it
    /// drops the dense tables.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    #[inline]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Indexed entity lookup: the replacement for `t`, if any entity rule
    /// rewrites it. A tag check plus one array load; variables and fresh
    /// terms short-circuit without touching memory, and a symbol past every
    /// rule key (such as one minted after the freeze) falls outside the
    /// table.
    #[inline]
    pub fn entity_target(&self, t: Term) -> Option<Term> {
        let raw = t.raw();
        // Variables and fresh terms can never be entity-rule sources:
        // one compare, no memory touched (this is the common case —
        // most subject/object positions are variables).
        if raw >= CONCRETE_TAG_CEIL {
            return None;
        }
        let dense = self.dense();
        // slot = (symbol << 2) | tag, always an entity lane (tag ≤ 2).
        // A symbol past every rule key is rejected by the explicit bound
        // check (the sentinel record at the end means the slice check alone
        // is not tight enough).
        let sym = (raw & SYM_MASK) as usize;
        if sym >= dense.symbol_bound as usize {
            return None;
        }
        let to = dense.table[sym << 2 | (raw >> TAG_SHIFT) as usize];
        if to != NO_ENTITY {
            Some(Term::from_raw(to))
        } else {
            None
        }
    }

    /// Indexed predicate-rule candidates for a pattern whose predicate is
    /// `p`, in rule-id order. Variables never match (templates must have
    /// concrete predicates, so a variable predicate in the query can only be
    /// entity-rewritten, never template-expanded). Two adjacent offset loads
    /// and a slice.
    #[inline]
    pub fn predicate_candidates(&self, p: Term) -> &[u32] {
        // A variable predicate never matches a template (templates have
        // concrete predicates), and a fresh predicate carries a counter,
        // not a symbol — it must never alias a real predicate symbol in
        // the index. One compare covers both.
        if p.raw() >= CONCRETE_TAG_CEIL {
            return &[];
        }
        let dense = self.dense();
        let sym = p.symbol().index();
        if sym >= dense.symbol_bound as usize {
            return &[];
        }
        // CSR offsets live in lane 3 of the symbol's (and the next
        // symbol's) dispatch record — usually the same cache line the
        // entity lookup for this predicate just touched.
        let start = dense.table[sym << 2 | 3] as usize;
        let end = dense.table[(sym + 1) << 2 | 3] as usize;
        &dense.pred_ids[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn iri(i: &mut Interner, s: &str) -> Term {
        Term::iri(i.intern(s))
    }

    fn var(i: &mut Interner, s: &str) -> Term {
        Term::var(i.intern(s))
    }

    #[test]
    fn entity_index_first_rule_wins() {
        let mut it = Interner::new();
        let a = iri(&mut it, "http://a");
        let b = iri(&mut it, "http://b");
        let c = iri(&mut it, "http://c");
        let mut store = AlignmentStore::new();
        store.add_entity(a, b).unwrap();
        store.add_entity(a, c).unwrap();
        assert_eq!(store.entity_target(a), Some(b));
        assert_eq!(store.entity_target(b), None);
    }

    #[test]
    fn rejects_malformed_rules() {
        let mut it = Interner::new();
        let v = var(&mut it, "x");
        let p = iri(&mut it, "http://p");
        let mut store = AlignmentStore::new();
        assert_eq!(store.add_entity(v, p), Err(AlignError::VariableEntity));
        let lhs_varpred = TriplePattern::new(v, v, v);
        assert_eq!(
            store.add_predicate(lhs_varpred, vec![lhs_varpred]),
            Err(AlignError::VariablePredicate)
        );
        let lhs = TriplePattern::new(v, p, v);
        assert_eq!(
            store.add_predicate(lhs, vec![]),
            Err(AlignError::EmptyTemplate)
        );
    }

    #[test]
    fn complex_builder_validation() {
        use crate::pattern::CmpOp;

        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let y = var(&mut it, "y");
        let z = var(&mut it, "z"); // bound nowhere
        let p = iri(&mut it, "http://p");
        let q = iri(&mut it, "http://q");
        let c = iri(&mut it, "http://c");
        let lhs = TriplePattern::new(x, p, y);
        let mut store = AlignmentStore::new();
        let eq = |t: &mut RuleTemplate, a: Term, b: Term| {
            let l = t.push_expr(ExprNode::Term(a));
            let r = t.push_expr(ExprNode::Term(b));
            t.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r))
        };

        // Guard naming a variable the lhs does not bind.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        let g = eq(&mut t, z, c);
        t.set_guard(g);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::GuardVariableUnbound)
        );

        // Filter naming a variable that is neither lhs-bound nor in the
        // template body.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        let f = eq(&mut t, z, c);
        t.push_filter(f);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::TemplateVariableUnbound)
        );

        // Expression pool not topologically ordered: child at its own index.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        t.push_expr(ExprNode::Not(0));
        t.set_guard(0);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::MalformedTemplateExpr)
        );

        // Guard / filter roots out of bounds.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        t.set_guard(7);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::MalformedTemplateExpr)
        );
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        t.push_filter(7);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::MalformedTemplateExpr)
        );

        // Flat-rule checks still apply: empty body, fresh terms (including
        // in expression leaves), variable predicate.
        assert_eq!(
            store.add_complex_predicate(lhs, RuleTemplate::default()),
            Err(AlignError::EmptyTemplate)
        );
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        let f = eq(&mut t, y, Term::fresh(2));
        t.push_filter(f);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::FreshTerm)
        );
        assert_eq!(
            store.add_complex_predicate(
                TriplePattern::new(x, x, y),
                RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)])
            ),
            Err(AlignError::VariablePredicate)
        );
        assert!(store.is_empty(), "rejected rules must not be stored");

        // Display coverage for the new variants.
        for (err, needle) in [
            (AlignError::MalformedTemplateExpr, "topologically"),
            (AlignError::GuardVariableUnbound, "guard"),
            (AlignError::TemplateVariableUnbound, "filter"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }

        // And the happy path: guard over lhs vars, filter over an
        // existential chain variable.
        let w = var(&mut it, "w");
        let mut t = RuleTemplate::from_triples(vec![
            TriplePattern::new(x, q, w),
            TriplePattern::new(w, q, y),
        ]);
        let g = eq(&mut t, y, c);
        t.set_guard(g);
        let f = eq(&mut t, w, c);
        t.push_filter(f);
        let id = store.add_complex_predicate(lhs, t.clone()).unwrap();
        assert_eq!(store.rules()[id as usize], Rule::Complex { lhs, tmpl: t });
    }

    #[test]
    fn complex_templates_survive_dense_freeze() {
        use crate::pattern::CmpOp;

        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let y = var(&mut it, "y");
        let c = iri(&mut it, "http://c");
        let mut store = AlignmentStore::new();
        // Interleave flat, complex, and entity rules so the CSR pools carry
        // non-trivial offsets.
        for i in 0..12 {
            let p = iri(&mut it, &format!("http://src/p{i}"));
            let q = iri(&mut it, &format!("http://tgt/p{i}"));
            let lhs = TriplePattern::new(x, p, y);
            match i % 3 {
                0 => {
                    store
                        .add_predicate(lhs, vec![TriplePattern::new(x, q, y)])
                        .unwrap();
                }
                1 => {
                    let w = var(&mut it, "w");
                    let mut t = RuleTemplate::from_triples(vec![
                        TriplePattern::new(x, q, w),
                        TriplePattern::new(w, q, y),
                    ]);
                    let l = t.push_expr(ExprNode::Term(y));
                    let r = t.push_expr(ExprNode::Term(c));
                    let g = t.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r));
                    t.set_guard(g);
                    let fl = t.push_expr(ExprNode::Term(w));
                    let fr = t.push_expr(ExprNode::Term(c));
                    let f = t.push_expr(ExprNode::Cmp(CmpOp::Ne, fl, fr));
                    t.push_filter(f);
                    store.add_complex_predicate(lhs, t).unwrap();
                }
                _ => {
                    store.add_entity(p, q).unwrap();
                }
            }
        }
        // Every template read from the flat pools equals the rule it came
        // from; flat rules surface empty expression fields.
        store.build_dense_index(it.symbol_bound());
        for (id, rule) in store.rules().iter().enumerate() {
            let expected = match rule {
                Rule::Predicate { lhs, rhs } => (*lhs, &rhs[..], &[][..], NO_EXPR, &[][..]),
                Rule::Complex { lhs, tmpl } => (
                    *lhs,
                    &tmpl.triples[..],
                    &tmpl.exprs[..],
                    tmpl.guard,
                    &tmpl.filters[..],
                ),
                Rule::Entity { .. } => continue,
            };
            let t = store.template(id as u32);
            assert_eq!(
                (t.lhs, t.triples, t.exprs, t.guard, t.filters),
                expected,
                "rule {id}"
            );
        }
    }

    /// Reference entity lookup: the first entity rule for `t` in id order.
    fn scan_entity(store: &AlignmentStore, t: Term) -> Option<Term> {
        store.rules().iter().find_map(|r| match r {
            Rule::Entity { from, to } if *from == t => Some(*to),
            _ => None,
        })
    }

    /// Reference candidate lookup: every predicate/complex rule whose
    /// template predicate has `p`'s symbol, in id order (candidates are
    /// keyed by symbol; the rewriter's lhs match compares whole terms).
    fn scan_predicates(store: &AlignmentStore, p: Term) -> Vec<u32> {
        if p.is_var() || p.is_fresh() {
            return Vec::new();
        }
        (0..)
            .zip(store.rules())
            .filter_map(|(id, r)| match r {
                Rule::Predicate { lhs, .. } | Rule::Complex { lhs, .. }
                    if lhs.p.symbol() == p.symbol() =>
                {
                    Some(id)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn dense_lookups_agree_with_rule_scan() {
        let mut it = Interner::new();
        let v = var(&mut it, "x");
        let mut store = AlignmentStore::new();
        let mut preds = Vec::new();
        let mut probes = vec![v, Term::fresh(3)];
        for i in 0..40 {
            let p = iri(&mut it, &format!("http://src/p{i}"));
            let q = iri(&mut it, &format!("http://tgt/p{i}"));
            preds.push(p);
            // A literal spelled like an IRI key shares its symbol.
            probes.extend([p, q, Term::literal(p.symbol())]);
            if i % 3 == 0 {
                let lhs = TriplePattern::new(v, p, v);
                store
                    .add_predicate(lhs, vec![TriplePattern::new(v, q, v)])
                    .unwrap();
            }
            if i % 5 == 0 {
                // A later template on an earlier predicate: posting lists
                // longer than one entry, with non-adjacent ids.
                let lhs = TriplePattern::new(v, preds[i / 2], v);
                store
                    .add_predicate(lhs, vec![TriplePattern::new(v, q, v)])
                    .unwrap();
            }
            if i % 4 == 0 {
                let e = iri(&mut it, &format!("http://src/e{i}"));
                let t = iri(&mut it, &format!("http://tgt/e{i}"));
                probes.extend([e, Term::literal(e.symbol()), Term::blank(e.symbol())]);
                store.add_entity(e, t).unwrap();
                // A later rule for the same source never wins.
                store.add_entity(e, q).unwrap();
                if i % 8 == 0 {
                    // Term kinds do not alias: a literal spelled like `e`
                    // is its own source.
                    store.add_entity(Term::literal(e.symbol()), p).unwrap();
                }
            }
        }
        let check = |store: &AlignmentStore, probes: &[Term]| {
            for &t in probes {
                assert_eq!(store.entity_target(t), scan_entity(store, t), "{t:?}");
                assert_eq!(
                    store.predicate_candidates(t),
                    &scan_predicates(store, t)[..],
                    "{t:?}"
                );
            }
        };
        // Never frozen: the first lookup builds the tables.
        check(&store, &probes);
        assert!(probes
            .iter()
            .any(|&t| store.predicate_candidates(t).len() > 1));

        // A symbol past every rule key finds no rule.
        let late = iri(&mut it, "http://late/interned");
        assert_eq!(store.entity_target(late), None);
        assert_eq!(store.predicate_candidates(late), &[] as &[u32]);

        // An `add_*` after a lookup is seen without re-freezing.
        let lhs = TriplePattern::new(v, late, v);
        let id = store.add_predicate(lhs, vec![lhs]).unwrap();
        assert_eq!(store.predicate_candidates(late), &[id]);
        store.add_entity(late, preds[0]).unwrap();
        assert_eq!(store.entity_target(late), Some(preds[0]));
        probes.push(late);
        check(&store, &probes);

        // An explicit freeze serves the same answers.
        store.build_dense_index(it.symbol_bound());
        check(&store, &probes);
    }

    #[test]
    fn dense_table_sized_by_rule_keys() {
        let mut it = Interner::new();
        let a = iri(&mut it, "http://a");
        let b = iri(&mut it, "http://b");
        let mut store = AlignmentStore::new();
        store.add_entity(a, b).unwrap();
        // One rule over a pretend multi-million-symbol dictionary: the
        // table covers the rule's key, not the dictionary.
        store.build_dense_index(50_000_000);
        let dense = store.dense.get().expect("built eagerly");
        assert_eq!(dense.symbol_bound as usize, a.symbol().index() + 1);
        assert_eq!(dense.table.len(), 4 * (dense.symbol_bound as usize + 1));
        assert_eq!(store.entity_target(a), Some(b));
        assert_eq!(store.entity_target(b), None);
    }

    #[test]
    #[should_panic(expected = "symbol_bound smaller than a rule symbol")]
    fn build_dense_index_rejects_a_bound_below_a_rule_symbol() {
        let mut it = Interner::new();
        let a = iri(&mut it, "http://a");
        let b = iri(&mut it, "http://b");
        let mut store = AlignmentStore::new();
        store.add_entity(b, a).unwrap();
        store.build_dense_index(b.symbol().index());
    }

    #[test]
    fn dense_entity_kinds_do_not_alias() {
        // An IRI and a literal sharing one interner symbol must stay
        // distinct keys in the kind-major table.
        let mut it = Interner::new();
        let sym = it.intern("shared-spelling");
        let as_iri = Term::iri(sym);
        let as_lit = Term::literal(sym);
        let tgt = iri(&mut it, "http://tgt");
        let mut store = AlignmentStore::new();
        store.add_entity(as_iri, tgt).unwrap();
        store.build_dense_index(it.symbol_bound());
        assert_eq!(store.entity_target(as_iri), Some(tgt));
        assert_eq!(store.entity_target(as_lit), None);
    }

    #[test]
    fn revision_bumps_on_rule_loads_only() {
        let mut it = Interner::new();
        let v = var(&mut it, "x");
        let a = iri(&mut it, "http://a");
        let b = iri(&mut it, "http://b");
        let mut store = AlignmentStore::new();
        assert_eq!(store.revision(), 0);
        store.add_entity(a, b).unwrap();
        assert_eq!(store.revision(), 1);
        // A rejected rule changes nothing, so it must not invalidate.
        assert!(store.add_entity(v, b).is_err());
        assert_eq!(store.revision(), 1);
        // Freezing changes lookup machinery, not the rule set.
        store.build_dense_index(it.symbol_bound());
        assert_eq!(store.revision(), 1);
        let lhs = TriplePattern::new(v, a, v);
        store.add_predicate(lhs, vec![lhs]).unwrap();
        assert_eq!(store.revision(), 2);
    }

    #[test]
    fn predicate_candidates_in_id_order() {
        let mut it = Interner::new();
        let v = var(&mut it, "x");
        let p = iri(&mut it, "http://p");
        let q = iri(&mut it, "http://q");
        let mut store = AlignmentStore::new();
        let lhs = TriplePattern::new(v, p, v);
        let id0 = store.add_predicate(lhs, vec![lhs]).unwrap();
        store.add_entity(p, q).unwrap();
        let id2 = store.add_predicate(lhs, vec![lhs]).unwrap();
        assert_eq!(store.predicate_candidates(p), &[id0, id2]);
        assert_eq!(store.predicate_candidates(q), &[] as &[u32]);
        assert_eq!(store.predicate_candidates(v), &[] as &[u32]);
    }
}
