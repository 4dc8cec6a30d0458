//! Abstract syntax of Interval Parsing Grammars.
//!
//! This module defines the *surface* AST: names are plain strings, terms
//! appear in their written order, and intervals remember whether they were
//! written explicitly or inferred by the frontend's auto-completion (the
//! paper's §3.4; the distinction feeds Table 2 of the evaluation).
//!
//! Surface grammars are constructed either programmatically through
//! [`GrammarBuilder`] or textually through [`crate::frontend::parse_grammar`].
//! Before parsing they are *checked and lowered* by [`crate::check::check`]
//! into a [`crate::check::Grammar`], which resolves names to dense ids and
//! topologically reorders terms.

mod builder;
mod display;
mod expr;

pub use builder::{AltBuilder, GrammarBuilder};
pub use expr::{BinOp, Expr, Reference};

pub(crate) use display::{format_bytes, format_bytes_len, push_bytes};

use crate::blackbox::Blackbox;
use std::fmt;

/// A complete surface grammar: an ordered list of rules, the first of which
/// is the start nonterminal (unless overridden).
#[derive(Clone, Debug, Default)]
pub struct Grammar {
    /// Rules in declaration order. Exactly one rule per nonterminal.
    pub rules: Vec<Rule>,
    /// Name of the start nonterminal. Defaults to the first rule's name.
    pub start: Option<String>,
    /// Opaque legacy parsers referenced by [`RuleBody::Blackbox`] rules,
    /// keyed by [`Blackbox::name`].
    pub blackboxes: Vec<Blackbox>,
}

/// A single grammar rule: `A -> alt1 / … / altn`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The nonterminal this rule defines.
    pub name: String,
    /// The right-hand side.
    pub body: RuleBody,
    /// Local (`where`) rules inherit the attribute environment of the
    /// alternative that invokes them (§3.4, "Local Rules").
    pub is_local: bool,
}

/// The right-hand side of a rule.
#[derive(Clone, Debug)]
pub enum RuleBody {
    /// An ordered list of biased-choice alternatives.
    Alts(Vec<Alternative>),
    /// A specialized leaf parser (the paper's `btoi`, §7).
    Builtin(Builtin),
    /// An opaque external parser invoked on the local input slice (§3.4,
    /// "Blackbox Parsers"). The string names an entry of
    /// [`Grammar::blackboxes`].
    Blackbox(String),
}

/// One alternative: a sequence of terms, all of which must succeed.
#[derive(Clone, Debug, Default)]
pub struct Alternative {
    /// Terms in written order.
    pub terms: Vec<Term>,
}

/// A term of an alternative (Fig. 5 of the paper, plus the full-language
/// switch term of §3.4).
#[derive(Clone, Debug)]
pub enum Term {
    /// `A[el, er]` — parse nonterminal `A` on the given slice.
    Symbol {
        /// Nonterminal name.
        name: String,
        /// Input slice assigned to the nonterminal.
        interval: Interval,
    },
    /// `"s"[el, er]` — match the literal bytes `s` at the start of the slice.
    Terminal {
        /// The literal bytes (may be empty: ε).
        bytes: Vec<u8>,
        /// Input slice assigned to the literal.
        interval: Interval,
    },
    /// `{id = e}` — define attribute `id` of the enclosing nonterminal.
    AttrDef {
        /// Attribute name.
        name: String,
        /// Defining expression.
        expr: Expr,
    },
    /// `⟨e⟩` (written `assert(e)` in the textual notation) — fail unless `e`
    /// evaluates to a non-zero value.
    Predicate {
        /// The boolean formula.
        expr: Expr,
    },
    /// `for id = e1 to e2 do A[el, er]` — an array of `e2 - e1` elements.
    /// The loop variable `id` is in scope inside `el` and `er` only.
    Array {
        /// Loop variable name.
        var: String,
        /// Inclusive start of the loop range.
        from: Expr,
        /// Exclusive end of the loop range.
        to: Expr,
        /// Element nonterminal.
        name: String,
        /// Per-element interval (may mention `var`).
        interval: Interval,
    },
    /// `switch(e1 : A1[..] / … / en : An[..] / D[..])` — the first choice
    /// whose condition is non-zero parses; if none holds, the default does.
    Switch {
        /// Guarded choices, tried left to right.
        cases: Vec<SwitchCase>,
        /// The unguarded default choice.
        default: Box<SwitchCase>,
    },
    /// `star A[el, er]` — the Kleene-star extension the paper proposes as
    /// future work (§7, the Fig. 13d discussion): within the interval,
    /// parse `A` one or more times, each repetition starting where the
    /// previous one ended, *iteratively* — equivalent to the recursive
    /// `As -> A As[A.end, EOI] / A` chunk idiom but without the recursion
    /// depth. Each repetition must make progress; a repetition that
    /// touches nothing ends the loop.
    Star {
        /// Element nonterminal.
        name: String,
        /// Interval the whole repetition is confined to.
        interval: Interval,
    },
}

/// One guarded choice of a switch term. For the default choice the guard is
/// `None`.
#[derive(Clone, Debug)]
pub struct SwitchCase {
    /// The guard; `None` for the default branch.
    pub cond: Option<Expr>,
    /// Nonterminal parsed when this choice is selected.
    pub name: String,
    /// Its interval.
    pub interval: Interval,
}

/// An interval `[el, er)` attached to a symbol occurrence.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Left endpoint (inclusive), relative to the enclosing rule's input.
    pub lo: Expr,
    /// Right endpoint (exclusive), relative to the enclosing rule's input.
    pub hi: Expr,
    /// How this interval came to be (written by the user, or inferred).
    pub origin: IntervalOrigin,
}

impl Interval {
    /// An explicitly written interval.
    pub fn new(lo: Expr, hi: Expr) -> Self {
        Interval { lo, hi, origin: IntervalOrigin::Explicit }
    }
}

/// Provenance of an interval, recorded so the implicit-interval statistics
/// of Table 2 can be regenerated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalOrigin {
    /// Both endpoints written by the user.
    Explicit,
    /// Both endpoints inferred by auto-completion.
    InferredFull,
    /// The user wrote only a length; the left endpoint was inferred.
    InferredLength,
}

/// Specialized leaf parsers (the paper specializes `Int` into an efficient
/// `btoi` function; these are its Rust analogues).
///
/// Every builtin defines the attribute `val`:
///
/// * integer builtins set `val` to the decoded integer and consume exactly
///   their width (they fail if the local input is shorter);
/// * [`Builtin::AsciiInt`] consumes a non-empty prefix of ASCII digits and
///   sets `val` to the decimal value;
/// * [`Builtin::Bytes`] consumes the entire local input and sets `val` to
///   its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit little-endian integer.
    U16Le,
    /// Unsigned 16-bit big-endian integer.
    U16Be,
    /// Unsigned 32-bit little-endian integer.
    U32Le,
    /// Unsigned 32-bit big-endian integer.
    U32Be,
    /// Unsigned 64-bit little-endian integer (decoded as `i64`, wrapping).
    U64Le,
    /// Unsigned 64-bit big-endian integer (decoded as `i64`, wrapping).
    U64Be,
    /// A non-empty run of ASCII digits, decoded as a decimal integer.
    AsciiInt,
    /// The entire local input, accepted verbatim; `val` is its length.
    Bytes,
}

impl Builtin {
    /// The number of bytes a fixed-width builtin consumes, if fixed.
    pub fn fixed_width(self) -> Option<usize> {
        match self {
            Builtin::U8 => Some(1),
            Builtin::U16Le | Builtin::U16Be => Some(2),
            Builtin::U32Le | Builtin::U32Be => Some(4),
            Builtin::U64Le | Builtin::U64Be => Some(8),
            Builtin::AsciiInt | Builtin::Bytes => None,
        }
    }

    /// The name used in the textual notation (`Int := u32le;`).
    pub fn name(self) -> &'static str {
        match self {
            Builtin::U8 => "u8",
            Builtin::U16Le => "u16le",
            Builtin::U16Be => "u16be",
            Builtin::U32Le => "u32le",
            Builtin::U32Be => "u32be",
            Builtin::U64Le => "u64le",
            Builtin::U64Be => "u64be",
            Builtin::AsciiInt => "ascii_int",
            Builtin::Bytes => "bytes",
        }
    }

    /// Parses the textual notation name back into a builtin.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "u8" => Builtin::U8,
            "u16le" => Builtin::U16Le,
            "u16be" => Builtin::U16Be,
            "u32le" => Builtin::U32Le,
            "u32be" => Builtin::U32Be,
            "u64le" => Builtin::U64Le,
            "u64be" => Builtin::U64Be,
            "ascii_int" => Builtin::AsciiInt,
            "bytes" => Builtin::Bytes,
            _ => return None,
        })
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Grammar {
    /// Looks up the rule for `name`.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// The start nonterminal: [`Grammar::start`] if set, otherwise the first
    /// rule's name.
    pub fn start_name(&self) -> Option<&str> {
        self.start.as_deref().or_else(|| self.rules.first().map(|r| r.name.as_str()))
    }

    /// Registers a blackbox parser so that `A := blackbox name;` rules can
    /// reference it by [`Blackbox::name`].
    pub fn register_blackbox(&mut self, bb: Blackbox) {
        self.blackboxes.push(bb);
    }

    /// Iterates over every interval occurring in the grammar (for the
    /// implicit-interval statistics of Table 2).
    pub fn intervals(&self) -> Vec<&Interval> {
        let mut out = Vec::new();
        for rule in &self.rules {
            if let RuleBody::Alts(alts) = &rule.body {
                for alt in alts {
                    for term in &alt.terms {
                        match term {
                            Term::Symbol { interval, .. }
                            | Term::Terminal { interval, .. }
                            | Term::Array { interval, .. }
                            | Term::Star { interval, .. } => out.push(interval),
                            Term::Switch { cases, default } => {
                                out.extend(cases.iter().map(|c| &c.interval));
                                out.push(&default.interval);
                            }
                            Term::AttrDef { .. } | Term::Predicate { .. } => {}
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_roundtrip_names() {
        for b in [
            Builtin::U8,
            Builtin::U16Le,
            Builtin::U16Be,
            Builtin::U32Le,
            Builtin::U32Be,
            Builtin::U64Le,
            Builtin::U64Be,
            Builtin::AsciiInt,
            Builtin::Bytes,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("i128"), None);
    }

    #[test]
    fn builtin_widths() {
        assert_eq!(Builtin::U8.fixed_width(), Some(1));
        assert_eq!(Builtin::U32Be.fixed_width(), Some(4));
        assert_eq!(Builtin::U64Le.fixed_width(), Some(8));
        assert_eq!(Builtin::Bytes.fixed_width(), None);
    }

    #[test]
    fn start_name_defaults_to_first_rule() {
        let g = Grammar {
            rules: vec![Rule {
                name: "S".into(),
                body: RuleBody::Builtin(Builtin::U8),
                is_local: false,
            }],
            start: None,
            blackboxes: vec![],
        };
        assert_eq!(g.start_name(), Some("S"));
    }
}
