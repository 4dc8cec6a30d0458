//! Attribute checking and lowering (§3.2 of the paper).
//!
//! [`check`] takes a surface [`crate::syntax::Grammar`] and produces a
//! [`Grammar`]: a *checked*, parse-ready representation in which
//!
//! * nonterminal names are resolved to dense [`NtId`]s and attribute names
//!   to interned [`Sym`]s;
//! * every attribute reference has been verified to refer to a defined
//!   attribute (`id ∈ def(B)` for `B.id` and `B(e).id`);
//! * every alternative's term dependency graph has been verified to be a
//!   DAG and its terms topologically reordered, so the interpreter can
//!   evaluate terms left to right;
//! * references `B.id` are bound to the *specific occurrence* of `B` they
//!   refer to (the nearest preceding occurrence in written order, or the
//!   nearest following one for forward references such as backward
//!   parsing), which makes rules with repeated nonterminals — like the
//!   ELF header's two `Int` fields — unambiguous even after reordering.

mod depgraph;
mod lower;

pub use depgraph::{build_dep_graph, DepGraph};
pub use lower::check;

use crate::blackbox::Blackbox;
use crate::env::wellknown;
use crate::intern::{Interner, Sym};
use crate::syntax::{BinOp, Builtin};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A nonterminal id, dense within one grammar.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NtId(pub u32);

impl fmt::Debug for NtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NtId({})", self.0)
    }
}

/// A checked, parse-ready grammar. Produced by [`check`] (or the
/// conveniences [`crate::frontend::parse_grammar`] and
/// [`crate::syntax::GrammarBuilder::build`]).
#[derive(Clone, Debug)]
pub struct Grammar {
    pub(crate) rules: Vec<CRule>,
    pub(crate) nt_by_name: HashMap<String, NtId>,
    pub(crate) interner: Interner,
    pub(crate) start: NtId,
    pub(crate) blackboxes: Vec<Blackbox>,
    /// The surface grammar this was lowered from (kept for pretty-printing
    /// and the Table 2 interval statistics).
    pub(crate) surface: crate::syntax::Grammar,
}

/// A checked rule.
#[derive(Clone, Debug)]
pub struct CRule {
    /// Nonterminal name.
    pub name: Arc<str>,
    /// Right-hand side.
    pub body: CRuleBody,
    /// Whether this is a local (`where`) rule that inherits the invoking
    /// alternative's environment.
    pub is_local: bool,
    /// `def(A)`: attributes defined in *all* alternatives.
    pub def_attrs: Vec<Sym>,
    /// Whether every successful parse of this rule consumes at least one
    /// terminal byte (the syntactic check behind the `A.end > 0`
    /// termination extension, §5).
    pub consumes_terminal: bool,
}

/// Right-hand side of a checked rule.
#[derive(Clone, Debug)]
pub enum CRuleBody {
    /// Biased-choice alternatives, each with topologically ordered terms.
    Alts(Vec<CAlt>),
    /// A builtin leaf parser.
    Builtin(Builtin),
    /// Index into [`Grammar::blackboxes`].
    Blackbox(usize),
}

/// A checked alternative.
#[derive(Clone, Debug)]
pub struct CAlt {
    /// Terms in *evaluation* order (topologically sorted). Each term
    /// remembers its index in the written order via [`CTerm::orig_index`],
    /// which is also the index used by [`CExpr::NtAttr`] references and the
    /// slot in the interpreter's per-alternative result vector.
    pub terms: Vec<CTerm>,
    /// Number of terms (== `terms.len()`, cached for result-vector sizing).
    pub n_terms: usize,
}

/// A checked term.
#[derive(Clone, Debug)]
pub struct CTerm {
    /// Index of this term in the alternative's written order.
    pub orig_index: usize,
    /// The term proper.
    pub kind: CTermKind,
}

/// The checked term variants (Fig. 5 plus the switch term of §3.4).
#[derive(Clone, Debug)]
pub enum CTermKind {
    /// `B[el, er]`.
    Symbol {
        /// Callee nonterminal.
        nt: NtId,
        /// Interval expressions.
        interval: CInterval,
    },
    /// `"s"[el, er]`.
    Terminal {
        /// Literal bytes.
        bytes: Arc<[u8]>,
        /// Interval expressions.
        interval: CInterval,
    },
    /// `{id = e}`.
    AttrDef {
        /// Attribute symbol.
        attr: Sym,
        /// Defining expression.
        expr: CExpr,
    },
    /// `⟨e⟩`.
    Predicate {
        /// Condition.
        expr: CExpr,
    },
    /// `for var = from to to do B[el, er]`.
    Array {
        /// Loop variable symbol.
        var: Sym,
        /// Inclusive lower bound.
        from: CExpr,
        /// Exclusive upper bound.
        to: CExpr,
        /// Element nonterminal.
        nt: NtId,
        /// Per-element interval (may mention `var`).
        interval: CInterval,
    },
    /// `switch(c1 : B1[..] / … / D[..])`; the final case has `cond: None`.
    Switch {
        /// All cases including the default (last, `cond == None`).
        cases: Vec<CSwitchCase>,
    },
    /// `star B[el, er]` — iterative one-or-more repetition of `B`, each
    /// repetition starting where the previous one ended.
    Star {
        /// Element nonterminal.
        nt: NtId,
        /// Interval the repetition is confined to.
        interval: CInterval,
    },
}

/// One case of a checked switch term.
#[derive(Clone, Debug)]
pub struct CSwitchCase {
    /// Guard (`None` for the default case).
    pub cond: Option<CExpr>,
    /// Nonterminal of this case.
    pub nt: NtId,
    /// Its interval.
    pub interval: CInterval,
}

/// A checked interval.
#[derive(Clone, Debug)]
pub struct CInterval {
    /// Left endpoint.
    pub lo: CExpr,
    /// Right endpoint.
    pub hi: CExpr,
}

/// A checked expression. Name references have been resolved to interned
/// symbols and, where possible, to specific sibling term occurrences.
#[derive(Clone, Debug)]
pub enum CExpr {
    /// Integer literal.
    Num(i64),
    /// Binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Ternary conditional.
    Cond(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// `EOI` of the current rule's input.
    Eoi,
    /// A local attribute or loop variable; looked up in the current
    /// environment, falling through to the invoking alternative's
    /// environment for local (`where`) rules.
    Local(Sym),
    /// `B.id` resolved to the sibling term at written index `term`. The
    /// expected `nt` is rechecked at runtime for switch terms (where the
    /// parsed nonterminal depends on the selected case).
    NtAttr {
        /// Written index of the sibling term parsed as `B`.
        term: usize,
        /// Expected nonterminal.
        nt: NtId,
        /// Attribute symbol (may be `start`/`end`).
        attr: Sym,
    },
    /// `B(e).id` resolved to the sibling array term at written index
    /// `term`.
    ElemAttr {
        /// Written index of the sibling array term.
        term: usize,
        /// Expected element nonterminal.
        nt: NtId,
        /// Element index expression.
        index: Box<CExpr>,
        /// Attribute symbol.
        attr: Sym,
    },
    /// `B.id` inside a local rule where `B` is a sibling of the *invoking*
    /// alternative: resolved dynamically by scanning the parent context
    /// chain for the most recently completed occurrence of `B`.
    OuterAttr {
        /// Nonterminal to search for.
        nt: NtId,
        /// Attribute symbol.
        attr: Sym,
    },
    /// `B(e).id` resolved through the parent context chain, analogously to
    /// [`CExpr::OuterAttr`].
    OuterElem {
        /// Element nonterminal of the array to search for.
        nt: NtId,
        /// Element index expression (evaluated in the *current* context).
        index: Box<CExpr>,
        /// Attribute symbol.
        attr: Sym,
    },
    /// Existential scan (§3.4) over the sibling array at written index
    /// `term` (or over the parent chain when `term` is `None`).
    Exists {
        /// Bound variable.
        var: Sym,
        /// Written index of the array term, if it is a sibling.
        term: Option<usize>,
        /// Element nonterminal of the scanned array.
        nt: NtId,
        /// Per-element condition.
        cond: Box<CExpr>,
        /// Result when an element matches.
        then: Box<CExpr>,
        /// Result when none matches.
        els: Box<CExpr>,
    },
}

impl Grammar {
    /// Resolves a nonterminal name.
    pub fn nt_id(&self, name: &str) -> Option<NtId> {
        self.nt_by_name.get(name).copied()
    }

    /// The name of nonterminal `nt`.
    pub fn nt_name(&self, nt: NtId) -> &str {
        &self.rules[nt.0 as usize].name
    }

    /// The checked rule of nonterminal `nt`.
    pub fn rule(&self, nt: NtId) -> &CRule {
        &self.rules[nt.0 as usize]
    }

    /// All checked rules, indexed by [`NtId`].
    pub fn rules(&self) -> &[CRule] {
        &self.rules
    }

    /// The start nonterminal.
    pub fn start_nt(&self) -> NtId {
        self.start
    }

    /// The start nonterminal's name.
    pub fn start_nt_name(&self) -> &str {
        self.nt_name(self.start)
    }

    /// Resolves an attribute name to its symbol, if it occurs anywhere in
    /// the grammar.
    pub fn attr_sym(&self, name: &str) -> Option<Sym> {
        self.interner.get(name)
    }

    /// The name of an attribute symbol.
    pub fn attr_name(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// The registered blackbox parsers.
    pub fn blackboxes(&self) -> &[Blackbox] {
        &self.blackboxes
    }

    /// The surface grammar this checked grammar was lowered from.
    pub fn surface(&self) -> &crate::syntax::Grammar {
        &self.surface
    }

    /// Number of nonterminals.
    pub fn nt_count(&self) -> usize {
        self.rules.len()
    }

    /// `def(A)` — the attributes defined in every alternative of `A`'s
    /// rule.
    pub fn def_attrs(&self, nt: NtId) -> &[Sym] {
        &self.rules[nt.0 as usize].def_attrs
    }

    /// Convenience: the well-known `val` symbol.
    pub fn sym_val(&self) -> Sym {
        wellknown::VAL
    }
}
