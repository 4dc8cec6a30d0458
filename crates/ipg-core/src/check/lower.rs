//! The checking and lowering pass: surface grammar → checked grammar.
//!
//! Implements §3.2 of the paper:
//!
//! 1. compute `def(A)` for every nonterminal (attributes defined in *all*
//!    alternatives; `{val}` for builtins; the declared attributes for
//!    blackboxes);
//! 2. verify that every reference `B.id` / `B(e).id` satisfies
//!    `id ∈ def(B)` (plus the special attributes `start`/`end`), and that
//!    every plain reference `id` is defined in the same alternative or — in
//!    a local rule — may be inherited from the invoking alternative;
//! 3. build the per-alternative dependency graph, reject cycles, and
//!    reorder terms topologically.
//!
//! Lowering resolves each sibling reference to a concrete *term
//! occurrence* (nearest preceding occurrence in written order, falling back
//! to the nearest following occurrence for forward references), so repeated
//! nonterminals in one alternative — `Int[0,4] {o=Int.val} Int[4,8]
//! {l=Int.val}` — bind exactly as the paper's examples intend.

use super::depgraph::DepGraph;
use super::{
    CAlt, CExpr, CInterval, CRule, CRuleBody, CSwitchCase, CTerm, CTermKind, Grammar, NtId,
};
use crate::env::wellknown;
use crate::error::{Error, Result};
use crate::intern::Sym;
use crate::syntax::{self, Builtin, Expr, Reference, RuleBody, Term};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Checks and lowers a surface grammar. See the module docs.
///
/// # Errors
///
/// Returns [`Error::Grammar`] for structural problems (no rules, duplicate
/// or missing rules, unknown blackboxes, reserved attribute names) and
/// [`Error::Check`] for attribute-checking failures (undefined references,
/// cyclic dependencies).
pub fn check(surface: syntax::Grammar) -> Result<Grammar> {
    Checker::new(surface)?.run()
}

/// Kind of a nonterminal occurrence within an alternative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OccKind {
    /// A `B[..]` symbol term, or a switch term with a case for `B`.
    Symbol,
    /// A `for … do B[..]` array term.
    Array,
}

#[derive(Clone, Debug)]
struct Occurrence {
    term: usize,
    name: String,
    kind: OccKind,
}

struct Checker {
    surface: syntax::Grammar,
    nt_by_name: HashMap<String, NtId>,
    /// `def(A)` by rule name, computed before lowering.
    def_by_name: HashMap<String, HashSet<String>>,
    interner: crate::intern::Interner,
}

/// Per-alternative lowering state.
struct AltState {
    /// Terms of the alternative in written order (cloned from the surface).
    attr_defs: HashMap<String, usize>,
    occurrences: Vec<Occurrence>,
    deps: DepGraph,
    /// The written index of the term currently being lowered.
    current: usize,
    /// Loop/existential variables currently in scope.
    bound: Vec<String>,
    /// When lowering an attribute definition `{x = e}`, the name `x`: a
    /// reference to `x` inside `e` is *shadowing* — in a local rule it
    /// reads the inherited binding from the invoking alternative (this is
    /// how counted lists like DNS question sections decrement a counter
    /// down a recursive chain).
    defining: Option<String>,
}

impl Checker {
    fn new(surface: syntax::Grammar) -> Result<Self> {
        if surface.rules.is_empty() {
            return Err(Error::Grammar("grammar has no rules".into()));
        }
        let mut nt_by_name = HashMap::new();
        for (i, rule) in surface.rules.iter().enumerate() {
            if nt_by_name.insert(rule.name.clone(), NtId(i as u32)).is_some() {
                return Err(Error::Grammar(format!(
                    "duplicate rule for nonterminal `{}`",
                    rule.name
                )));
            }
        }
        Ok(Checker {
            nt_by_name,
            def_by_name: HashMap::new(),
            interner: wellknown::seeded_interner(),
            surface,
        })
    }

    fn run(mut self) -> Result<Grammar> {
        self.compute_def_sets()?;

        let start_name =
            self.surface.start_name().expect("non-empty grammar has a start").to_owned();
        let start = *self.nt_by_name.get(&start_name).ok_or_else(|| {
            Error::Grammar(format!("start nonterminal `{start_name}` has no rule"))
        })?;

        let surface_rules = self.surface.rules.clone();
        let mut rules = Vec::with_capacity(surface_rules.len());
        for rule in &surface_rules {
            rules.push(self.lower_rule(rule)?);
        }

        compute_consumes_terminal(&mut rules);

        Ok(Grammar {
            rules,
            nt_by_name: self.nt_by_name,
            interner: self.interner,
            start,
            blackboxes: self.surface.blackboxes.clone(),
            surface: self.surface,
        })
    }

    /// Step 1 of attribute checking: `def(A)` per rule.
    fn compute_def_sets(&mut self) -> Result<()> {
        for rule in &self.surface.rules {
            let defs: HashSet<String> = match &rule.body {
                RuleBody::Builtin(_) => ["val".to_owned()].into(),
                RuleBody::Blackbox(name) => {
                    let bb = self.surface.blackboxes.iter().find(|b| &b.name == name).ok_or_else(
                        || {
                            Error::Grammar(format!(
                                "rule `{}` references unregistered blackbox `{name}`",
                                rule.name
                            ))
                        },
                    )?;
                    bb.attrs.iter().cloned().collect()
                }
                RuleBody::Alts(alts) => {
                    if alts.is_empty() {
                        return Err(Error::Grammar(format!(
                            "rule `{}` has no alternatives",
                            rule.name
                        )));
                    }
                    let mut iter = alts.iter().map(alt_defined_attrs);
                    let first = iter.next().expect("non-empty alternatives");
                    iter.fold(first, |acc, set| &acc & &set)
                }
            };
            for reserved in ["start", "end", "EOI"] {
                if defs.contains(reserved) {
                    return Err(Error::Grammar(format!(
                        "rule `{}` defines reserved attribute `{reserved}`",
                        rule.name
                    )));
                }
            }
            self.def_by_name.insert(rule.name.clone(), defs);
        }
        Ok(())
    }

    fn lower_rule(&mut self, rule: &syntax::Rule) -> Result<CRule> {
        let def_attrs: Vec<Sym> = {
            let mut names: Vec<&String> = self.def_by_name[&rule.name].iter().collect();
            names.sort();
            names.iter().map(|n| self.interner.intern(n)).collect()
        };
        let body = match &rule.body {
            RuleBody::Builtin(b) => CRuleBody::Builtin(*b),
            RuleBody::Blackbox(name) => {
                let idx = self
                    .surface
                    .blackboxes
                    .iter()
                    .position(|b| &b.name == name)
                    .expect("validated in compute_def_sets");
                CRuleBody::Blackbox(idx)
            }
            RuleBody::Alts(alts) => {
                let mut lowered = Vec::with_capacity(alts.len());
                for alt in alts {
                    lowered.push(self.lower_alt(rule, alt)?);
                }
                CRuleBody::Alts(lowered)
            }
        };
        Ok(CRule {
            name: Arc::from(rule.name.as_str()),
            body,
            is_local: rule.is_local,
            def_attrs,
            consumes_terminal: false, // filled by compute_consumes_terminal
        })
    }

    fn lower_alt(&mut self, rule: &syntax::Rule, alt: &syntax::Alternative) -> Result<CAlt> {
        let n = alt.terms.len();
        let mut state = AltState {
            attr_defs: HashMap::new(),
            occurrences: Vec::new(),
            deps: DepGraph::new(n),
            current: 0,
            bound: Vec::new(),
            defining: None,
        };
        // Pass 1: collect attribute definitions and nonterminal occurrences.
        for (i, term) in alt.terms.iter().enumerate() {
            match term {
                Term::AttrDef { name, .. } => {
                    if state.attr_defs.insert(name.clone(), i).is_some() {
                        return Err(Error::Check(format!(
                            "rule `{}`: attribute `{name}` defined twice in one alternative",
                            rule.name
                        )));
                    }
                    if ["start", "end", "EOI"].contains(&name.as_str()) {
                        return Err(Error::Grammar(format!(
                            "rule `{}` defines reserved attribute `{name}`",
                            rule.name
                        )));
                    }
                }
                Term::Symbol { name, .. } => state.occurrences.push(Occurrence {
                    term: i,
                    name: name.clone(),
                    kind: OccKind::Symbol,
                }),
                Term::Array { name, .. } | Term::Star { name, .. } => state
                    .occurrences
                    .push(Occurrence { term: i, name: name.clone(), kind: OccKind::Array }),
                Term::Switch { cases, default } => {
                    for case in cases.iter().chain(std::iter::once(default.as_ref())) {
                        state.occurrences.push(Occurrence {
                            term: i,
                            name: case.name.clone(),
                            kind: OccKind::Symbol,
                        });
                    }
                }
                Term::Terminal { .. } | Term::Predicate { .. } => {}
            }
        }

        // Pass 2: lower every term, resolving references and recording
        // dependency edges.
        let mut kinds = Vec::with_capacity(n);
        for (i, term) in alt.terms.iter().enumerate() {
            state.current = i;
            kinds.push(self.lower_term(rule, term, &mut state)?);
        }

        // Pass 3: the dependency graph must be a DAG; reorder terms.
        let order = state.deps.topo_order().map_err(|cycle| {
            let members: Vec<String> =
                cycle.iter().map(|&i| format!("term #{i} ({})", alt.terms[i])).collect();
            Error::Check(format!(
                "rule `{}`: cyclic attribute dependencies among {}",
                rule.name,
                members.join(", ")
            ))
        })?;

        let mut terms: Vec<CTerm> = Vec::with_capacity(n);
        let mut by_index: Vec<Option<CTermKind>> = kinds.into_iter().map(Some).collect();
        for &i in &order {
            terms.push(CTerm {
                orig_index: i,
                kind: by_index[i].take().expect("each term placed once"),
            });
        }
        Ok(CAlt { terms, n_terms: n })
    }

    fn lower_term(
        &mut self,
        rule: &syntax::Rule,
        term: &Term,
        state: &mut AltState,
    ) -> Result<CTermKind> {
        match term {
            Term::Symbol { name, interval } => {
                let nt = self.resolve_nt(rule, name)?;
                let interval = self.lower_interval(rule, interval, state)?;
                Ok(CTermKind::Symbol { nt, interval })
            }
            Term::Terminal { bytes, interval } => {
                let interval = self.lower_interval(rule, interval, state)?;
                Ok(CTermKind::Terminal { bytes: Arc::from(bytes.as_slice()), interval })
            }
            Term::AttrDef { name, expr } => {
                let attr = self.interner.intern(name);
                state.defining = Some(name.clone());
                let expr = self.lower_expr(rule, expr, state);
                state.defining = None;
                Ok(CTermKind::AttrDef { attr, expr: expr? })
            }
            Term::Predicate { expr } => {
                let expr = self.lower_expr(rule, expr, state)?;
                Ok(CTermKind::Predicate { expr })
            }
            Term::Array { var, from, to, name, interval } => {
                check_var_not_reserved(rule, var)?;
                let nt = self.resolve_nt(rule, name)?;
                let from = self.lower_expr(rule, from, state)?;
                let to = self.lower_expr(rule, to, state)?;
                let var_sym = self.interner.intern(var);
                state.bound.push(var.clone());
                let interval = self.lower_interval(rule, interval, state);
                state.bound.pop();
                Ok(CTermKind::Array { var: var_sym, from, to, nt, interval: interval? })
            }
            Term::Star { name, interval } => {
                let nt = self.resolve_nt(rule, name)?;
                let interval = self.lower_interval(rule, interval, state)?;
                Ok(CTermKind::Star { nt, interval })
            }
            Term::Switch { cases, default } => {
                let mut lowered = Vec::with_capacity(cases.len() + 1);
                for case in cases {
                    let cond = case.cond.as_ref().expect("non-default case has a guard");
                    lowered.push(CSwitchCase {
                        cond: Some(self.lower_expr(rule, cond, state)?),
                        nt: self.resolve_nt(rule, &case.name)?,
                        interval: self.lower_interval(rule, &case.interval, state)?,
                    });
                }
                if default.cond.is_some() {
                    return Err(Error::Grammar(format!(
                        "rule `{}`: switch default case must not have a guard",
                        rule.name
                    )));
                }
                lowered.push(CSwitchCase {
                    cond: None,
                    nt: self.resolve_nt(rule, &default.name)?,
                    interval: self.lower_interval(rule, &default.interval, state)?,
                });
                Ok(CTermKind::Switch { cases: lowered })
            }
        }
    }

    fn lower_interval(
        &mut self,
        rule: &syntax::Rule,
        interval: &syntax::Interval,
        state: &mut AltState,
    ) -> Result<CInterval> {
        Ok(CInterval {
            lo: self.lower_expr(rule, &interval.lo, state)?,
            hi: self.lower_expr(rule, &interval.hi, state)?,
        })
    }

    fn resolve_nt(&self, rule: &syntax::Rule, name: &str) -> Result<NtId> {
        self.nt_by_name.get(name).copied().ok_or_else(|| {
            Error::Grammar(format!(
                "rule `{}` references undefined nonterminal `{name}`",
                rule.name
            ))
        })
    }

    /// Nearest occurrence of `name` with the given kind: the closest one
    /// strictly before the current term, else the closest one after it. A
    /// term's own occurrence is never a candidate — `U8[U8.end, EOI]`
    /// refers to the *previous* `U8`, which is what implicit-interval
    /// completion relies on.
    fn resolve_occurrence(
        &self,
        state: &AltState,
        name: &str,
        kind: OccKind,
    ) -> Option<(usize, OccKind)> {
        let mut best_before: Option<usize> = None;
        let mut best_after: Option<usize> = None;
        for occ in &state.occurrences {
            if occ.name != name || occ.kind != kind || occ.term == state.current {
                continue;
            }
            if occ.term < state.current {
                best_before = Some(occ.term); // occurrences are in order
            } else if best_after.is_none() {
                best_after = Some(occ.term);
            }
        }
        best_before.or(best_after).map(|t| (t, kind))
    }

    /// Verifies `attr ∈ def(B) ∪ {start, end}`.
    fn check_attr_defined(&self, rule: &syntax::Rule, nt_name: &str, attr: &str) -> Result<()> {
        if attr == "start" || attr == "end" {
            return Ok(());
        }
        let defs = self.def_by_name.get(nt_name).ok_or_else(|| {
            Error::Grammar(format!(
                "rule `{}` references undefined nonterminal `{nt_name}`",
                rule.name
            ))
        })?;
        if defs.contains(attr) {
            Ok(())
        } else {
            Err(Error::Check(format!(
                "rule `{}`: reference to `{nt_name}.{attr}` but `{attr}` ∉ def({nt_name})",
                rule.name
            )))
        }
    }

    fn lower_expr(
        &mut self,
        rule: &syntax::Rule,
        expr: &Expr,
        state: &mut AltState,
    ) -> Result<CExpr> {
        Ok(match expr {
            Expr::Num(n) => CExpr::Num(*n),
            Expr::Bin(op, a, b) => CExpr::Bin(
                *op,
                Box::new(self.lower_expr(rule, a, state)?),
                Box::new(self.lower_expr(rule, b, state)?),
            ),
            Expr::Cond(c, t, e) => CExpr::Cond(
                Box::new(self.lower_expr(rule, c, state)?),
                Box::new(self.lower_expr(rule, t, state)?),
                Box::new(self.lower_expr(rule, e, state)?),
            ),
            Expr::Ref(Reference::Eoi) => CExpr::Eoi,
            Expr::Ref(Reference::Local(id)) => {
                let sym = self.interner.intern(id);
                if state.bound.iter().any(|b| b == id) {
                    CExpr::Local(sym)
                } else if state.defining.as_deref() == Some(id.as_str()) {
                    // `{x = … x …}` — shadowing. In a local rule this reads
                    // the invoking alternative's `x` at parse time (the own
                    // binding does not exist yet when the definition is
                    // evaluated); elsewhere there is nothing to inherit.
                    if rule.is_local {
                        CExpr::Local(sym)
                    } else {
                        return Err(Error::Check(format!(
                            "rule `{}`: attribute `{id}` is defined in terms of itself \
                             (only local rules may shadow an inherited attribute)",
                            rule.name
                        )));
                    }
                } else if let Some(&def_term) = state.attr_defs.get(id) {
                    state.deps.add_dep(state.current, def_term);
                    CExpr::Local(sym)
                } else if rule.is_local {
                    // May be inherited from the invoking alternative;
                    // resolved through the context chain at parse time.
                    CExpr::Local(sym)
                } else {
                    return Err(Error::Check(format!(
                        "rule `{}`: reference to undefined attribute `{id}`",
                        rule.name
                    )));
                }
            }
            Expr::Ref(Reference::Attr { nt, attr }) => {
                self.check_attr_defined(rule, nt, attr)?;
                let nt_id = self.resolve_nt(rule, nt)?;
                let attr_sym = self.interner.intern(attr);
                // Prefer a plain symbol occurrence; fall back to an
                // array/star occurrence, where `B.attr` means the *last*
                // element's attribute (so `star Item "trail"` sequences
                // naturally via Item.end).
                if let Some((term, _)) = self
                    .resolve_occurrence(state, nt, OccKind::Symbol)
                    .or_else(|| self.resolve_occurrence(state, nt, OccKind::Array))
                {
                    state.deps.add_dep(state.current, term);
                    CExpr::NtAttr { term, nt: nt_id, attr: attr_sym }
                } else if rule.is_local {
                    CExpr::OuterAttr { nt: nt_id, attr: attr_sym }
                } else {
                    return Err(Error::Check(format!(
                        "rule `{}`: reference to `{nt}.{attr}` but `{nt}` does not occur \
                         in the same alternative",
                        rule.name
                    )));
                }
            }
            Expr::Ref(Reference::Elem { nt, index, attr }) => {
                self.check_attr_defined(rule, nt, attr)?;
                let nt_id = self.resolve_nt(rule, nt)?;
                let attr_sym = self.interner.intern(attr);
                let index = Box::new(self.lower_expr(rule, index, state)?);
                if let Some((term, _)) = self.resolve_occurrence(state, nt, OccKind::Array) {
                    state.deps.add_dep(state.current, term);
                    CExpr::ElemAttr { term, nt: nt_id, index, attr: attr_sym }
                } else if rule.is_local {
                    CExpr::OuterElem { nt: nt_id, index, attr: attr_sym }
                } else {
                    return Err(Error::Check(format!(
                        "rule `{}`: reference to `{nt}({}).{attr}` but no array of `{nt}` \
                         occurs in the same alternative",
                        rule.name,
                        index_display(&index),
                    )));
                }
            }
            Expr::Exists { var, array, cond, then, els } => {
                check_var_not_reserved(rule, var)?;
                let nt_id = self.resolve_nt(rule, array)?;
                let var_sym = self.interner.intern(var);
                let term = match self.resolve_occurrence(state, array, OccKind::Array) {
                    Some((term, _)) => {
                        state.deps.add_dep(state.current, term);
                        Some(term)
                    }
                    None if rule.is_local => None,
                    None => {
                        return Err(Error::Check(format!(
                            "rule `{}`: existential over `{array}` but no array of \
                             `{array}` occurs in the same alternative",
                            rule.name
                        )));
                    }
                };
                state.bound.push(var.clone());
                let cond = self.lower_expr(rule, cond, state);
                let then = self.lower_expr(rule, then, state);
                state.bound.pop();
                let els = self.lower_expr(rule, els, state)?;
                CExpr::Exists {
                    var: var_sym,
                    term,
                    nt: nt_id,
                    cond: Box::new(cond?),
                    then: Box::new(then?),
                    els: Box::new(els),
                }
            }
        })
    }
}

/// Loop and existential variables may not shadow the special attributes:
/// the shadowing would interact inconsistently with `updStartEnd` (reads
/// see the innermost binding, widening writes the outermost), and the VM's
/// O(1) environment layout relies on the first three slots staying
/// `EOI`/`start`/`end`.
fn check_var_not_reserved(rule: &syntax::Rule, var: &str) -> Result<()> {
    if ["start", "end", "EOI"].contains(&var) {
        return Err(Error::Grammar(format!(
            "rule `{}` binds reserved attribute `{var}` as a loop variable",
            rule.name
        )));
    }
    Ok(())
}

fn index_display(e: &CExpr) -> String {
    match e {
        CExpr::Num(n) => n.to_string(),
        _ => "…".to_owned(),
    }
}

/// Attribute names defined by one alternative.
fn alt_defined_attrs(alt: &syntax::Alternative) -> HashSet<String> {
    alt.terms
        .iter()
        .filter_map(|t| match t {
            Term::AttrDef { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// Least-fixpoint computation of [`CRule::consumes_terminal`]: a rule
/// consumes at least one byte when every alternative contains a non-empty
/// terminal, a builtin of width ≥ 1, or a nonterminal that itself consumes.
fn compute_consumes_terminal(rules: &mut [CRule]) {
    let mut consumes = vec![false; rules.len()];
    loop {
        let mut changed = false;
        for (i, rule) in rules.iter().enumerate() {
            if consumes[i] {
                continue;
            }
            let now = match &rule.body {
                CRuleBody::Builtin(b) => !matches!(b, Builtin::Bytes),
                CRuleBody::Blackbox(_) => false, // conservative
                CRuleBody::Alts(alts) => alts.iter().all(|alt| {
                    alt.terms.iter().any(|t| match &t.kind {
                        CTermKind::Terminal { bytes, .. } => !bytes.is_empty(),
                        CTermKind::Symbol { nt, .. } => consumes[nt.0 as usize],
                        CTermKind::Switch { cases } => {
                            cases.iter().all(|c| consumes[c.nt.0 as usize])
                        }
                        // One-or-more: consumes iff the element does.
                        CTermKind::Star { nt, .. } => consumes[nt.0 as usize],
                        _ => false,
                    })
                }),
            };
            if now {
                consumes[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (rule, c) in rules.iter_mut().zip(consumes) {
        rule.consumes_terminal = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{AltBuilder, Expr, GrammarBuilder};

    fn fig2_grammar() -> syntax::Grammar {
        GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .symbol("H", Expr::num(0), Expr::num(8))
                    .symbol(
                        "Data",
                        Expr::attr("H", "offset"),
                        Expr::attr("H", "offset") + Expr::attr("H", "length"),
                    )
                    .build()],
            )
            .rule(
                "H",
                vec![AltBuilder::new()
                    .symbol("Int", Expr::num(0), Expr::num(4))
                    .attr("offset", Expr::attr("Int", "val"))
                    .symbol("Int", Expr::num(4), Expr::num(8))
                    .attr("length", Expr::attr("Int", "val"))
                    .build()],
            )
            .builtin("Int", Builtin::U32Le)
            .builtin("Data", Builtin::Bytes)
            .build_unchecked()
    }

    #[test]
    fn fig2_checks_and_lowers() {
        let g = check(fig2_grammar()).unwrap();
        assert_eq!(g.nt_count(), 4);
        assert_eq!(g.start_nt_name(), "S");
        let h = g.rule(g.nt_id("H").unwrap());
        let offset = g.attr_sym("offset").unwrap();
        let length = g.attr_sym("length").unwrap();
        assert!(h.def_attrs.contains(&offset));
        assert!(h.def_attrs.contains(&length));
    }

    #[test]
    fn duplicate_nonterminal_references_bind_to_nearest_preceding() {
        let g = check(fig2_grammar()).unwrap();
        let h = g.rule(g.nt_id("H").unwrap());
        let CRuleBody::Alts(alts) = &h.body else { panic!("alts") };
        // Written order preserved (no forward refs): Int, {offset}, Int, {length}.
        let orig: Vec<usize> = alts[0].terms.iter().map(|t| t.orig_index).collect();
        assert_eq!(orig, vec![0, 1, 2, 3]);
        // {offset} refers to term 0, {length} to term 2.
        let get_term_ref = |i: usize| match &alts[0].terms[i].kind {
            CTermKind::AttrDef { expr: CExpr::NtAttr { term, .. }, .. } => *term,
            other => panic!("expected attr def with NtAttr, got {other:?}"),
        };
        assert_eq!(get_term_ref(1), 0);
        assert_eq!(get_term_ref(3), 2);
    }

    #[test]
    fn forward_reference_is_reordered() {
        // The paper's §3.2 example: B1[0, B2.a] B2[a1, EOI] {a1 = 2}.
        let g = GrammarBuilder::new()
            .rule(
                "A",
                vec![AltBuilder::new()
                    .symbol("B1", Expr::num(0), Expr::attr("B2", "a"))
                    .symbol("B2", Expr::local("a1"), Expr::eoi())
                    .attr("a1", Expr::num(2))
                    .build()],
            )
            .rule("B2", vec![AltBuilder::new().attr("a", Expr::num(1)).build()])
            .rule("B1", vec![AltBuilder::new().build()])
            .build_unchecked();
        let g = check(g).unwrap();
        let a = g.rule(g.nt_id("A").unwrap());
        let CRuleBody::Alts(alts) = &a.body else { panic!("alts") };
        let orig: Vec<usize> = alts[0].terms.iter().map(|t| t.orig_index).collect();
        assert_eq!(orig, vec![2, 1, 0], "reordered to {{a1=2}} B2 B1");
    }

    #[test]
    fn circular_dependency_is_rejected() {
        let g = GrammarBuilder::new()
            .rule(
                "A",
                vec![AltBuilder::new()
                    .symbol("B1", Expr::num(0), Expr::attr("B2", "a"))
                    .symbol("B2", Expr::attr("B1", "a"), Expr::eoi())
                    .build()],
            )
            .rule("B1", vec![AltBuilder::new().attr("a", Expr::num(1)).build()])
            .rule("B2", vec![AltBuilder::new().attr("a", Expr::num(1)).build()])
            .build_unchecked();
        let err = check(g).unwrap_err();
        assert!(matches!(err, Error::Check(_)), "got {err:?}");
        assert!(err.to_string().contains("cyclic"));
    }

    #[test]
    fn reference_to_undefined_attribute_is_rejected() {
        let g = GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .symbol("H", Expr::num(0), Expr::num(4))
                    .symbol("D", Expr::attr("H", "nope"), Expr::eoi())
                    .build()],
            )
            .rule("H", vec![AltBuilder::new().attr("ofs", Expr::num(1)).build()])
            .rule("D", vec![AltBuilder::new().build()])
            .build_unchecked();
        let err = check(g).unwrap_err();
        assert!(err.to_string().contains("nope"), "got: {err}");
    }

    #[test]
    fn def_set_is_intersection_over_alternatives() {
        let g = GrammarBuilder::new()
            .rule(
                "A",
                vec![
                    AltBuilder::new().attr("x", Expr::num(1)).attr("y", Expr::num(2)).build(),
                    AltBuilder::new().attr("x", Expr::num(3)).build(),
                ],
            )
            .rule(
                "S",
                vec![AltBuilder::new()
                    .symbol("A", Expr::num(0), Expr::eoi())
                    .symbol("B", Expr::attr("A", "x"), Expr::eoi())
                    .build()],
            )
            .start("S")
            .rule("B", vec![AltBuilder::new().build()])
            .build_unchecked();
        // `x` is in def(A) — ok.
        check(g.clone()).unwrap();

        // `y` is not in def(A) (missing from the second alternative).
        let bad = GrammarBuilder::new()
            .rule(
                "A",
                vec![
                    AltBuilder::new().attr("x", Expr::num(1)).attr("y", Expr::num(2)).build(),
                    AltBuilder::new().attr("x", Expr::num(3)).build(),
                ],
            )
            .rule(
                "S",
                vec![AltBuilder::new()
                    .symbol("A", Expr::num(0), Expr::eoi())
                    .symbol("B", Expr::attr("A", "y"), Expr::eoi())
                    .build()],
            )
            .start("S")
            .rule("B", vec![AltBuilder::new().build()])
            .build_unchecked();
        assert!(check(bad).is_err());
    }

    #[test]
    fn start_end_references_always_allowed() {
        let g = GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .symbol("O", Expr::num(1), Expr::eoi())
                    .terminal(b"stop", Expr::attr("O", "end"), Expr::eoi())
                    .build()],
            )
            .rule("O", vec![AltBuilder::new().terminal(b"0", Expr::num(0), Expr::num(1)).build()])
            .build_unchecked();
        check(g).unwrap();
    }

    #[test]
    fn reserved_loop_variable_rejected() {
        // `for end = …` would shadow the special attribute: reads would
        // see the loop binding while `updStartEnd` writes the outer slot.
        let g = GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .array("end", Expr::num(0), Expr::num(2), "A", Expr::num(0), Expr::eoi())
                    .build()],
            )
            .rule("A", vec![AltBuilder::new().build()])
            .build_unchecked();
        let err = check(g).unwrap_err();
        assert!(err.to_string().contains("reserved"), "got: {err}");
    }

    #[test]
    fn reserved_attribute_names_rejected() {
        let g = GrammarBuilder::new()
            .rule("S", vec![AltBuilder::new().attr("end", Expr::num(1)).build()])
            .build_unchecked();
        let err = check(g).unwrap_err();
        assert!(err.to_string().contains("reserved"));
    }

    #[test]
    fn unknown_nonterminal_rejected() {
        let g = GrammarBuilder::new()
            .rule("S", vec![AltBuilder::new().symbol("Ghost", Expr::num(0), Expr::eoi()).build()])
            .build_unchecked();
        let err = check(g).unwrap_err();
        assert!(err.to_string().contains("Ghost"));
    }

    #[test]
    fn duplicate_rule_rejected() {
        let g = GrammarBuilder::new()
            .rule("S", vec![AltBuilder::new().build()])
            .rule("S", vec![AltBuilder::new().build()])
            .build_unchecked();
        assert!(check(g).is_err());
    }

    #[test]
    fn consumes_terminal_fixpoint() {
        let g = GrammarBuilder::new()
            .rule(
                "Blocks",
                vec![
                    AltBuilder::new()
                        .symbol("Block", Expr::num(0), Expr::eoi())
                        .symbol("Blocks", Expr::attr("Block", "end"), Expr::eoi())
                        .build(),
                    AltBuilder::new().symbol("Block", Expr::num(0), Expr::eoi()).build(),
                ],
            )
            .rule(
                "Block",
                vec![AltBuilder::new().terminal(b"B", Expr::num(0), Expr::num(1)).build()],
            )
            .rule("Eps", vec![AltBuilder::new().build()])
            .build_unchecked();
        let g = check(g).unwrap();
        assert!(g.rule(g.nt_id("Block").unwrap()).consumes_terminal);
        assert!(g.rule(g.nt_id("Blocks").unwrap()).consumes_terminal);
        assert!(!g.rule(g.nt_id("Eps").unwrap()).consumes_terminal);
    }

    #[test]
    fn loop_variable_scoping() {
        let g = GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .symbol("H", Expr::num(0), Expr::num(4))
                    .array(
                        "i",
                        Expr::num(0),
                        Expr::attr("H", "num"),
                        "A",
                        Expr::num(4) + Expr::local("i") * Expr::num(4),
                        Expr::num(8) + Expr::local("i") * Expr::num(4),
                    )
                    .build()],
            )
            .rule(
                "H",
                vec![AltBuilder::new()
                    .symbol("Int", Expr::num(0), Expr::num(4))
                    .attr("num", Expr::attr("Int", "val"))
                    .build()],
            )
            .rule("A", vec![AltBuilder::new().symbol("Int", Expr::num(0), Expr::num(4)).build()])
            .builtin("Int", Builtin::U32Le)
            .build_unchecked();
        check(g).unwrap();

        // Using the loop variable outside the array term is an error.
        let bad = GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .array("i", Expr::num(0), Expr::num(2), "A", Expr::local("i"), Expr::eoi())
                    .attr("x", Expr::local("i"))
                    .build()],
            )
            .rule("A", vec![AltBuilder::new().build()])
            .build_unchecked();
        assert!(check(bad).is_err());
    }
}
