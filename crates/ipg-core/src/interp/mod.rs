//! The IPG parsing semantics (Fig. 8 and Fig. 15 of the paper) as a
//! memoizing recursive-descent interpreter.
//!
//! Each nonterminal invocation receives a *local input slice*, identified
//! by an absolute `(base, len)` pair into the original input — parsing is
//! zero-copy. Within a rule, `EOI` is `len` and all interval endpoints are
//! relative to `base`.
//!
//! Key properties implemented exactly as in the paper:
//!
//! * **Biased choice** — alternatives are tried in order; the first success
//!   wins (rules R-AltSucc/R-AltFail).
//! * **`start`/`end` bookkeeping** — `updStartEnd` widens the touched
//!   region of the enclosing environment; a callee's `start`/`end` are
//!   shifted by its interval's left endpoint on return (rule T-NTSucc).
//! * **Memoization** — results (including failures) of non-local
//!   nonterminals are cached per `(nonterminal, base, len)`, giving the
//!   O(n²) bound of §3.3. Local (`where`) rules close over their invoking
//!   environment and are never memoized.
//! * **Local rules** — evaluate with the invoking alternative's context as
//!   a fallback for attribute lookups (§3.4).

use crate::builtin::run_builtin;
use crate::check::{CAlt, CExpr, CInterval, CRuleBody, CSwitchCase, CTermKind, Grammar, NtId};
use crate::env::{wellknown, Env};
use crate::error::{Error, ParseError, Result};
use crate::syntax::BinOp;
use crate::tree::{ArrayNode, BlackboxNode, Leaf, Node, Tree};
use fxhash::FxHashMap;
use std::rc::Rc;

/// A configured IPG parser for one grammar.
///
/// ```
/// use ipg_core::frontend::parse_grammar;
/// use ipg_core::interp::Parser;
///
/// // Fig. 1 of the paper: accepts "aa…bb".
/// let g = parse_grammar(
///     r#"
///     S -> A[0, 2] B[EOI - 2, EOI];
///     A -> "aa"[0, 2];
///     B -> "bb"[0, 2];
///     "#,
/// )?;
/// let parser = Parser::new(&g);
/// assert!(parser.parse(b"aaxyzbb").is_ok());
/// assert!(parser.parse(b"aaxyzbc").is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Parser<'g> {
    grammar: &'g Grammar,
    memoize: bool,
    max_steps: Option<u64>,
}

impl<'g> Parser<'g> {
    /// Creates a parser with memoization enabled and no step limit.
    pub fn new(grammar: &'g Grammar) -> Self {
        Parser { grammar, memoize: true, max_steps: None }
    }

    /// Enables or disables memoization (the `ablation_memo` benchmark uses
    /// this; real parsers should leave it on).
    pub fn memoize(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Limits the number of term evaluations, as a defence-in-depth fuel
    /// bound for grammars that did not go through
    /// [`crate::termination::check_termination`].
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Parses `input` from the grammar's start nonterminal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] with the deepest failure observed when the
    /// input does not match.
    pub fn parse(&self, input: &[u8]) -> Result<Rc<Tree>> {
        self.parse_from(self.grammar.start_nt(), input)
    }

    /// Parses `input` from an explicit start nonterminal.
    ///
    /// # Errors
    ///
    /// As [`Parser::parse`]; additionally [`Error::Grammar`] if `name` is
    /// not a nonterminal of the grammar.
    pub fn parse_from_name(&self, name: &str, input: &[u8]) -> Result<Rc<Tree>> {
        let nt = self
            .grammar
            .nt_id(name)
            .ok_or_else(|| Error::Grammar(format!("unknown nonterminal `{name}`")))?;
        self.parse_from(nt, input)
    }

    /// Like [`Parser::parse`], but also reports interpreter statistics
    /// (steps, memo activity) — useful for the memoization ablation and
    /// for tuning grammars.
    ///
    /// # Errors
    ///
    /// As [`Parser::parse`].
    pub fn parse_with_stats(&self, input: &[u8]) -> (Result<Rc<Tree>>, ParseStats) {
        self.run(self.grammar.start_nt(), input)
    }

    /// Parses `input` from nonterminal `nt` and packages the result with
    /// the statistics.
    fn run(&self, nt: NtId, input: &[u8]) -> (Result<Rc<Tree>>, ParseStats) {
        let mut sess = self.session(input);
        let stop = sess.parse_nt(nt, 0, input.len(), None);
        let stats = ParseStats {
            steps: sess.steps,
            memo_hits: sess.memo_hits,
            memo_entries: sess.memo.len(),
        };
        let result = match stop {
            Ok(Some(tree)) => Ok(tree),
            Ok(None) => Err(Error::Parse(sess.deepest)),
            Err(Abort::FuelExhausted) => Err(Error::Parse(ParseError {
                offset: sess.deepest.offset,
                nonterminal: sess.deepest.nonterminal,
                msg: format!(
                    "step limit of {} exhausted (possible non-terminating grammar)",
                    self.max_steps.unwrap_or(u64::MAX)
                ),
            })),
        };
        (result, stats)
    }

    fn session<'i>(&self, input: &'i [u8]) -> Session<'g, 'i> {
        // Pre-size the memo from grammar size: each non-local nonterminal
        // tends to be invoked at a handful of distinct (base, len) slices,
        // so this avoids the rehash-and-move churn of growing from empty.
        // FxHash (vs the default SipHash) makes the short tuple keys cheap.
        // With memoization off the map is never written, so skip the
        // allocation entirely.
        let memo_capacity = if self.memoize { 8 * self.grammar.nt_count() } else { 0 };
        Session {
            g: self.grammar,
            input,
            memo: FxHashMap::with_capacity_and_hasher(memo_capacity, Default::default()),
            memoize: self.memoize,
            steps: 0,
            memo_hits: 0,
            max_steps: self.max_steps.unwrap_or(u64::MAX),
            deepest: ParseError { offset: 0, nonterminal: None, msg: "no progress".into() },
        }
    }

    /// Parses `input` from nonterminal `nt`.
    ///
    /// # Errors
    ///
    /// As [`Parser::parse`].
    pub fn parse_from(&self, nt: NtId, input: &[u8]) -> Result<Rc<Tree>> {
        self.run(nt, input).0
    }
}

/// Interpreter statistics from [`Parser::parse_with_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Term evaluations performed.
    pub steps: u64,
    /// Memo-table hits (results reused without re-parsing).
    pub memo_hits: u64,
    /// Distinct `(nonterminal, base, len)` entries cached.
    pub memo_entries: usize,
}

/// Hard abort of the whole parse (as opposed to an ordinary `Fail`, which
/// biased choice may recover from).
#[derive(Clone, Copy, Debug)]
enum Abort {
    FuelExhausted,
}

/// `Ok(Some(tree))` = success, `Ok(None)` = Fail, `Err` = abort.
type PResult<T> = std::result::Result<T, Abort>;

/// Per-alternative evaluation context: the environment `E` and the parse
/// trees of already-evaluated sibling terms, indexed by written term
/// position. `parent` links to the invoking alternative for local rules.
struct AltCtx<'p> {
    env: Env,
    results: Vec<Option<Rc<Tree>>>,
    parent: Option<&'p AltCtx<'p>>,
}

impl AltCtx<'_> {
    fn lookup_local(&self, sym: crate::intern::Sym) -> Option<i64> {
        if let Some(v) = self.env.get(sym) {
            return Some(v);
        }
        self.parent.and_then(|p| p.lookup_local(sym))
    }

    /// Most recently written completed occurrence of `nt` in this context
    /// chain (used by `OuterAttr` references inside local rules).
    fn lookup_outer_node(&self, nt: NtId) -> Option<&Rc<Tree>> {
        for res in self.results.iter().rev().flatten() {
            match res.as_ref() {
                Tree::Node(n) if n.nt == nt => return Some(res),
                Tree::Blackbox(b) if b.nt == nt => return Some(res),
                _ => {}
            }
        }
        self.parent.and_then(|p| p.lookup_outer_node(nt))
    }

    fn lookup_outer_array(&self, nt: NtId) -> Option<&ArrayNode> {
        for res in self.results.iter().rev().flatten() {
            if let Tree::Array(a) = res.as_ref() {
                if a.nt == nt {
                    return Some(a);
                }
            }
        }
        self.parent.and_then(|p| p.lookup_outer_array(nt))
    }
}

struct Session<'g, 'i> {
    g: &'g Grammar,
    input: &'i [u8],
    memo: FxHashMap<(NtId, usize, usize), Option<Rc<Tree>>>,
    memoize: bool,
    steps: u64,
    memo_hits: u64,
    max_steps: u64,
    deepest: ParseError,
}

impl Session<'_, '_> {
    fn tick(&mut self) -> PResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            Err(Abort::FuelExhausted)
        } else {
            Ok(())
        }
    }

    fn record_failure(&mut self, offset: usize, nt: NtId, msg: impl FnOnce(&Grammar) -> String) {
        if offset >= self.deepest.offset {
            let g = self.g;
            self.deepest =
                ParseError { offset, nonterminal: Some(g.nt_name(nt).to_owned()), msg: msg(g) };
        }
    }

    /// `s ⊢ A ⇓ R` for the local slice `input[base .. base+len]`.
    fn parse_nt(
        &mut self,
        nt: NtId,
        base: usize,
        len: usize,
        parent: Option<&AltCtx<'_>>,
    ) -> PResult<Option<Rc<Tree>>> {
        self.tick()?;
        let rule = self.g.rule(nt);
        let memo_key = (nt, base, len);
        let memoizable = self.memoize && !rule.is_local;
        if memoizable {
            if let Some(cached) = self.memo.get(&memo_key) {
                self.memo_hits += 1;
                return Ok(cached.clone());
            }
        }

        let result = match &rule.body {
            CRuleBody::Builtin(b) => self.parse_builtin(nt, *b, base, len),
            CRuleBody::Blackbox(idx) => self.parse_blackbox(nt, *idx, base, len)?,
            CRuleBody::Alts(alts) => self.parse_alts(nt, alts, base, len, parent)?,
        };

        if memoizable {
            self.memo.insert(memo_key, result.clone());
        }
        Ok(result)
    }

    fn parse_builtin(
        &mut self,
        nt: NtId,
        b: crate::syntax::Builtin,
        base: usize,
        len: usize,
    ) -> Option<Rc<Tree>> {
        let local = &self.input[base..base + len];
        match run_builtin(b, local) {
            Some((val, consumed)) => {
                let mut env = Env::initial(len);
                env.upd_start_end(0, consumed as i64, consumed > 0);
                env.set(wellknown::VAL, val);
                Some(Rc::new(Tree::Node(Node {
                    nt,
                    name: rc_name(self.g, nt),
                    env,
                    children: vec![Rc::new(Tree::Leaf(Leaf { start: base, end: base + consumed }))],
                    base,
                    input_len: len,
                    alt_index: 0,
                })))
            }
            None => {
                self.record_failure(base, nt, |_| format!("builtin `{b}` failed"));
                None
            }
        }
    }

    fn parse_blackbox(
        &mut self,
        nt: NtId,
        idx: usize,
        base: usize,
        len: usize,
    ) -> PResult<Option<Rc<Tree>>> {
        let bb = &self.g.blackboxes()[idx];
        let local = &self.input[base..base + len];
        match (bb.run)(local) {
            Ok(res) => {
                let mut env = Env::initial(len);
                let consumed = res.consumed.min(len);
                env.upd_start_end(0, consumed as i64, consumed > 0);
                for (name, value) in bb.attrs.iter().zip(&res.attr_values) {
                    if let Some(sym) = self.g.attr_sym(name) {
                        env.set(sym, *value);
                    }
                }
                Ok(Some(Rc::new(Tree::Blackbox(BlackboxNode {
                    nt,
                    name: rc_name(self.g, nt),
                    env,
                    data: res.data.into(),
                    base,
                    input_len: len,
                }))))
            }
            Err(msg) => {
                self.record_failure(base, nt, |_| format!("blackbox failed: {msg}"));
                Ok(None)
            }
        }
    }

    /// `s, A ⊢ alts ⇓ R` — biased choice.
    fn parse_alts(
        &mut self,
        nt: NtId,
        alts: &[CAlt],
        base: usize,
        len: usize,
        parent: Option<&AltCtx<'_>>,
    ) -> PResult<Option<Rc<Tree>>> {
        for (alt_index, alt) in alts.iter().enumerate() {
            if let Some(tree) = self.parse_alt(nt, alt, alt_index, base, len, parent)? {
                return Ok(Some(tree));
            }
        }
        Ok(None)
    }

    /// One alternative: evaluate terms in (reordered) sequence.
    fn parse_alt(
        &mut self,
        nt: NtId,
        alt: &CAlt,
        alt_index: usize,
        base: usize,
        len: usize,
        parent: Option<&AltCtx<'_>>,
    ) -> PResult<Option<Rc<Tree>>> {
        let mut ctx = AltCtx { env: Env::initial(len), results: vec![None; alt.n_terms], parent };
        for term in &alt.terms {
            self.tick()?;
            let ok = self.eval_term(nt, &term.kind, term.orig_index, base, len, &mut ctx)?;
            if !ok {
                return Ok(None);
            }
        }
        // Children in written order; attribute definitions and predicates
        // leave no child.
        let children: Vec<Rc<Tree>> = ctx.results.into_iter().flatten().collect();
        Ok(Some(Rc::new(Tree::Node(Node {
            nt,
            name: rc_name(self.g, nt),
            env: ctx.env,
            children,
            base,
            input_len: len,
            alt_index,
        }))))
    }

    /// Evaluates one term; `Ok(true)` = success, `Ok(false)` = Fail.
    fn eval_term(
        &mut self,
        nt: NtId,
        kind: &CTermKind,
        orig_index: usize,
        base: usize,
        len: usize,
        ctx: &mut AltCtx<'_>,
    ) -> PResult<bool> {
        match kind {
            CTermKind::Terminal { bytes, interval } => {
                let Some((l, r)) = self.eval_interval(interval, ctx, len) else {
                    self.record_failure(base, nt, |_| "invalid terminal interval".into());
                    return Ok(false);
                };
                // T-Ter: 0 ≤ l ≤ r ≤ |s|, r − l ≥ |s1|, s[l, l+|s1|] = s1.
                if r - l < bytes.len() as i64 {
                    self.record_failure(base + l as usize, nt, |_| {
                        format!("interval too short for terminal of length {}", bytes.len())
                    });
                    return Ok(false);
                }
                let al = base + l as usize;
                if self.input[al..al + bytes.len()] != bytes[..] {
                    self.record_failure(al, nt, |_| {
                        format!("terminal mismatch (expected {})", preview(bytes))
                    });
                    return Ok(false);
                }
                ctx.env.upd_start_end(l, r, !bytes.is_empty());
                ctx.results[orig_index] =
                    Some(Rc::new(Tree::Leaf(Leaf { start: al, end: al + bytes.len() })));
                Ok(true)
            }
            CTermKind::Symbol { nt: callee, interval } => {
                match self.call_nt_on_interval(nt, *callee, interval, base, len, ctx)? {
                    Some(tree) => {
                        ctx.results[orig_index] = Some(tree);
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
            CTermKind::AttrDef { attr, expr } => match self.eval(expr, ctx) {
                Some(v) => {
                    ctx.env.set(*attr, v);
                    Ok(true)
                }
                None => {
                    let attr = *attr;
                    self.record_failure(base, nt, |g| {
                        format!("attribute `{}` evaluation failed", g.attr_name(attr))
                    });
                    Ok(false)
                }
            },
            CTermKind::Predicate { expr } => match self.eval(expr, ctx) {
                Some(v) if v != 0 => Ok(true),
                Some(_) => {
                    self.record_failure(base, nt, |_| "predicate failed".into());
                    Ok(false)
                }
                None => {
                    self.record_failure(base, nt, |_| "predicate evaluation failed".into());
                    Ok(false)
                }
            },
            CTermKind::Array { var, from, to, nt: elem_nt, interval } => {
                let (Some(i), Some(j)) = (self.eval(from, ctx), self.eval(to, ctx)) else {
                    self.record_failure(base, nt, |_| "array bounds evaluation failed".into());
                    return Ok(false);
                };
                let mut elems = Vec::new();
                if j > i {
                    // `abs_diff`: the bounds may be more than `i64::MAX` apart.
                    elems.reserve(j.abs_diff(i).min(len as u64 + 1) as usize);
                }
                let mut k = i;
                ctx.env.push_scope(*var, k);
                let mut failed = false;
                while k < j {
                    self.tick()?;
                    ctx.env.set_top(*var, k);
                    match self.call_nt_on_interval(nt, *elem_nt, interval, base, len, ctx)? {
                        Some(tree) => elems.push(tree),
                        None => {
                            failed = true;
                            break;
                        }
                    }
                    k += 1;
                }
                ctx.env.pop_scope();
                if failed {
                    return Ok(false);
                }
                ctx.results[orig_index] = Some(Rc::new(Tree::Array(ArrayNode {
                    nt: *elem_nt,
                    name: rc_name(self.g, *elem_nt),
                    elems,
                })));
                Ok(true)
            }
            CTermKind::Star { nt: elem_nt, interval } => {
                let Some((l, r)) = self.eval_interval(interval, ctx, len) else {
                    self.record_failure(base, nt, |_| "invalid star interval".into());
                    return Ok(false);
                };
                // One-or-more repetitions of the element, iteratively: the
                // next repetition starts where the previous one ended.
                // Progress is required; a repetition that touches nothing
                // ends the loop (after it).
                let star_base = base + l as usize;
                let star_len = (r - l) as usize;
                let callee_rule = self.g.rule(*elem_nt);
                let mut elems: Vec<Rc<Tree>> = Vec::new();
                let mut pos: usize = 0;
                loop {
                    self.tick()?;
                    if pos > star_len {
                        break;
                    }
                    let parent: Option<&AltCtx<'_>> =
                        if callee_rule.is_local { Some(ctx) } else { None };
                    let sub = self.parse_nt(*elem_nt, star_base + pos, star_len - pos, parent)?;
                    let Some(sub) = sub else { break };
                    let (_, ce) = tree_start_end(&sub);
                    let adjusted = adjust_tree(&sub, (pos as i64) + l);
                    elems.push(adjusted);
                    if ce == 0 {
                        break; // no progress: stop after this repetition
                    }
                    pos += ce as usize;
                }
                if elems.is_empty() {
                    self.record_failure(star_base, nt, |g| {
                        format!("star needs at least one `{}`", g.nt_name(*elem_nt))
                    });
                    return Ok(false);
                }
                ctx.env.upd_start_end(l, l + pos as i64, pos > 0);
                ctx.results[orig_index] = Some(Rc::new(Tree::Array(ArrayNode {
                    nt: *elem_nt,
                    name: rc_name(self.g, *elem_nt),
                    elems,
                })));
                Ok(true)
            }
            CTermKind::Switch { cases } => {
                let Some(case) = self.select_switch_case(cases, ctx) else {
                    self.record_failure(base, nt, |_| "switch guard evaluation failed".into());
                    return Ok(false);
                };
                let (callee, interval) = case;
                match self.call_nt_on_interval(nt, callee, &interval, base, len, ctx)? {
                    Some(tree) => {
                        ctx.results[orig_index] = Some(tree);
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
        }
    }

    fn select_switch_case(
        &mut self,
        cases: &[CSwitchCase],
        ctx: &mut AltCtx<'_>,
    ) -> Option<(NtId, CInterval)> {
        for case in cases {
            match &case.cond {
                Some(cond) => match self.eval(cond, ctx) {
                    Some(0) => continue,
                    Some(_) => return Some((case.nt, case.interval.clone())),
                    None => return None,
                },
                None => return Some((case.nt, case.interval.clone())),
            }
        }
        None
    }

    /// T-NTSucc / T-NTFail: evaluate the interval, recurse, adjust
    /// `start`/`end`, and widen the enclosing environment.
    fn call_nt_on_interval(
        &mut self,
        caller: NtId,
        callee: NtId,
        interval: &CInterval,
        base: usize,
        len: usize,
        ctx: &mut AltCtx<'_>,
    ) -> PResult<Option<Rc<Tree>>> {
        let Some((l, r)) = self.eval_interval(interval, ctx, len) else {
            self.record_failure(base, caller, |g| {
                format!("invalid interval for `{}`", g.nt_name(callee))
            });
            return Ok(None);
        };
        let callee_rule = self.g.rule(callee);
        let parent: Option<&AltCtx<'_>> = if callee_rule.is_local { Some(ctx) } else { None };
        let sub = self.parse_nt(callee, base + l as usize, (r - l) as usize, parent)?;
        let Some(sub) = sub else { return Ok(None) };

        // Adjust the callee's start/end from callee-relative to
        // caller-relative offsets, and widen the caller's touched region.
        let adjusted = adjust_tree(&sub, l);
        let (cs, ce) = tree_start_end(&sub);
        ctx.env.upd_start_end(l + cs, l + ce, ce != 0);
        Ok(Some(adjusted))
    }

    /// Evaluates an interval, returning `Some((l, r))` only when
    /// `0 ≤ l ≤ r ≤ len`.
    fn eval_interval(
        &mut self,
        interval: &CInterval,
        ctx: &mut AltCtx<'_>,
        len: usize,
    ) -> Option<(i64, i64)> {
        let l = self.eval(&interval.lo, ctx)?;
        let r = self.eval(&interval.hi, ctx)?;
        if 0 <= l && l <= r && r <= len as i64 {
            Some((l, r))
        } else {
            None
        }
    }

    /// `σ(E, Tr, e)` — expression evaluation; `None` when undefined.
    fn eval(&mut self, e: &CExpr, ctx: &mut AltCtx<'_>) -> Option<i64> {
        match e {
            CExpr::Num(n) => Some(*n),
            CExpr::Eoi => ctx.env.get(wellknown::EOI),
            CExpr::Local(sym) => ctx.lookup_local(*sym),
            CExpr::Bin(op, a, b) => {
                let a = self.eval(a, ctx)?;
                let b = self.eval(b, ctx)?;
                eval_binop(*op, a, b)
            }
            CExpr::Cond(c, t, f) => {
                if self.eval(c, ctx)? != 0 {
                    self.eval(t, ctx)
                } else {
                    self.eval(f, ctx)
                }
            }
            CExpr::NtAttr { term, nt, attr } => {
                let tree = ctx.results[*term].as_ref()?;
                node_attr(tree, *nt, *attr)
            }
            CExpr::OuterAttr { nt, attr } => {
                let tree = ctx.lookup_outer_node(*nt)?;
                node_attr(tree, *nt, *attr)
            }
            CExpr::ElemAttr { term, nt, index, attr } => {
                let k = self.eval(index, ctx)?;
                let tree = ctx.results[*term].as_ref()?;
                let Tree::Array(arr) = tree.as_ref() else { return None };
                if arr.nt != *nt || k < 0 {
                    return None;
                }
                let elem = arr.elems.get(k as usize)?;
                node_attr(elem, *nt, *attr)
            }
            CExpr::OuterElem { nt, index, attr } => {
                let k = self.eval(index, ctx)?;
                if k < 0 {
                    return None;
                }
                let elem = {
                    let arr = ctx.lookup_outer_array(*nt)?;
                    arr.elems.get(k as usize)?.clone()
                };
                node_attr(&elem, *nt, *attr)
            }
            CExpr::Exists { var, term, nt, cond, then, els } => {
                // Only the element *count* is needed up front (the body
                // reaches elements through `ElemAttr`/`OuterElem`), so no
                // clone of the element vector is taken.
                let n = match term {
                    Some(t) => match ctx.results[*t].as_ref()?.as_ref() {
                        Tree::Array(a) if a.nt == *nt => a.elems.len(),
                        _ => return None,
                    },
                    None => ctx.lookup_outer_array(*nt)?.elems.len(),
                };
                let mut found: Option<i64> = None;
                ctx.env.push_scope(*var, 0);
                for k in 0..n {
                    ctx.env.set_top(*var, k as i64);
                    match self.eval(cond, ctx) {
                        Some(0) => continue,
                        Some(_) => {
                            found = Some(k as i64);
                            break;
                        }
                        None => {
                            ctx.env.pop_scope();
                            return None;
                        }
                    }
                }
                match found {
                    Some(k) => {
                        ctx.env.set_top(*var, k);
                        let v = self.eval(then, ctx);
                        ctx.env.pop_scope();
                        v
                    }
                    None => {
                        ctx.env.pop_scope();
                        self.eval(els, ctx)
                    }
                }
            }
        }
    }
}

/// Evaluates a binary operator on concrete values — the single source of
/// truth for IPG integer semantics (wrapping arithmetic, `None` on division
/// by zero or out-of-range shifts). Public so that tools running grammars
/// *backwards* (the `ipg-gen` input generator) compute byte-identical
/// results to both engines.
pub fn eval_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => (a != 0 && b != 0) as i64,
        BinOp::Or => (a != 0 || b != 0) as i64,
        BinOp::Shl => {
            if !(0..64).contains(&b) {
                return None;
            }
            a.wrapping_shl(b as u32)
        }
        BinOp::Shr => {
            if !(0..64).contains(&b) {
                return None;
            }
            a.wrapping_shr(b as u32)
        }
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
    })
}

/// Reads attribute `attr` from a node-like tree, checking the nonterminal
/// matches (relevant for switch results).
fn node_attr(tree: &Rc<Tree>, nt: NtId, attr: crate::intern::Sym) -> Option<i64> {
    match tree.as_ref() {
        Tree::Node(n) if n.nt == nt => n.env.get(attr),
        Tree::Blackbox(b) if b.nt == nt => b.env.get(attr),
        // On an array (star or `for` term), `B.attr` reads the *last*
        // element's attribute, so `star Item "trail"` sequences naturally
        // via Item.end.
        Tree::Array(a) if a.nt == nt => node_attr(a.elems.last()?, nt, attr),
        _ => None,
    }
}

/// The callee-relative `(start, end)` of a returned tree.
fn tree_start_end(tree: &Rc<Tree>) -> (i64, i64) {
    match tree.as_ref() {
        Tree::Node(n) => (n.env.start(), n.env.end()),
        Tree::Blackbox(b) => (b.env.start(), b.env.end()),
        _ => (0, 0),
    }
}

/// Returns a copy of the callee's tree with `start`/`end` shifted by `l`
/// into caller coordinates (rule T-NTSucc). Children are shared.
fn adjust_tree(tree: &Rc<Tree>, l: i64) -> Rc<Tree> {
    if l == 0 {
        return Rc::clone(tree);
    }
    match tree.as_ref() {
        Tree::Node(n) => {
            let mut node = n.clone();
            node.env.shift_start_end(l);
            Rc::new(Tree::Node(node))
        }
        Tree::Blackbox(b) => {
            let mut bb = b.clone();
            bb.env.shift_start_end(l);
            Rc::new(Tree::Blackbox(bb))
        }
        _ => Rc::clone(tree),
    }
}

fn rc_name(g: &Grammar, nt: NtId) -> std::sync::Arc<str> {
    g.rule(nt).name.clone()
}

pub(crate) fn preview(bytes: &[u8]) -> String {
    crate::syntax::format_bytes(bytes)
}

pub mod vm;

#[cfg(test)]
mod tests;
