//! Pretty-printing of surface grammars in the textual notation understood
//! by [`crate::frontend::parse_grammar`], so that grammars round-trip:
//! `parse(g.to_string())` is structurally equal to `g` (modulo interval
//! provenance, which prints explicitly).

use super::{Alternative, Grammar, Interval, Rule, RuleBody, SwitchCase, Term};
use std::fmt;

/// Renders literal bytes either as a quoted string (when all printable
/// ASCII) or as a hex string `x"…"`, in one allocation.
pub(crate) fn format_bytes(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(format_bytes_len(bytes));
    push_bytes(&mut out, bytes);
    out
}

/// Whether [`format_bytes`] renders `bytes` as a quoted string.
fn printable(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\')
}

/// The length of [`format_bytes`]'s rendering of `bytes`.
pub(crate) fn format_bytes_len(bytes: &[u8]) -> usize {
    if printable(bytes) {
        bytes.len() + 2
    } else {
        2 * bytes.len() + 3
    }
}

/// Appends [`format_bytes`]'s rendering of `bytes` to `out`.
pub(crate) fn push_bytes(out: &mut String, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    if printable(bytes) {
        out.push('"');
        out.push_str(std::str::from_utf8(bytes).expect("checked printable ASCII"));
    } else {
        out.push_str("x\"");
        for &b in bytes {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
    out.push('"');
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl fmt::Display for SwitchCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(cond) = &self.cond {
            write!(f, "{cond} : ")?;
        }
        write!(f, "{}{}", self.name, self.interval)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Symbol { name, interval } => write!(f, "{name}{interval}"),
            Term::Terminal { bytes, interval } => {
                write!(f, "{}{interval}", format_bytes(bytes))
            }
            Term::AttrDef { name, expr } => write!(f, "{{{name} = {expr}}}"),
            Term::Predicate { expr } => write!(f, "assert({expr})"),
            Term::Array { var, from, to, name, interval } => {
                write!(f, "for {var} = {from} to {to} do {name}{interval}")
            }
            Term::Star { name, interval } => write!(f, "star {name}{interval}"),
            Term::Switch { cases, default } => {
                f.write_str("switch(")?;
                for case in cases {
                    write!(f, "{case} / ")?;
                }
                write!(f, "{default})")
            }
        }
    }
}

impl fmt::Display for Alternative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("\"\"[0, 0]");
        }
        for (i, term) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{term}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            RuleBody::Alts(alts) => {
                write!(f, "{} -> ", self.name)?;
                for (i, alt) in alts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" / ")?;
                    }
                    write!(f, "{alt}")?;
                }
                f.write_str(";")
            }
            RuleBody::Builtin(b) => write!(f, "{} := {b};", self.name),
            RuleBody::Blackbox(name) => write!(f, "{} := blackbox {name};", self.name),
        }
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(start) = &self.start {
            writeln!(f, "start {start};")?;
        }
        for rule in &self.rules {
            if rule.is_local {
                writeln!(f, "local {rule}")?;
            } else {
                writeln!(f, "{rule}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::syntax::{AltBuilder, Builtin, Expr, GrammarBuilder};

    #[test]
    fn bytes_render_as_string_or_hex_in_one_exact_allocation() {
        let cases: [(&[u8], &str); 9] = [
            (b"PK", "\"PK\""),
            (&[0x50, 0x4b, 0x05, 0x06], "x\"504b0506\""),
            (b"%%EOF", "\"%%EOF\""),
            (b"", "\"\""),
            (b"say \"hi\"", "x\"7361792022686922\""),
            (b"a\\b", "x\"615c62\""),
            (&[0x7f, 0x45, 0x4c, 0x46], "x\"7f454c46\""),
            (&[0x80, 0xff, 0x00, 0x1f], "x\"80ff001f\""),
            (b" ~", "\" ~\""),
        ];
        for (bytes, rendered) in cases {
            let out = super::format_bytes(bytes);
            assert_eq!(out, rendered, "rendering of {bytes:?}");
            assert_eq!(out.capacity(), rendered.len(), "pre-sized capacity for {bytes:?}");
            assert_eq!(super::format_bytes_len(bytes), rendered.len());
        }
    }

    #[test]
    fn rule_display_matches_frontend_notation() {
        let g = GrammarBuilder::new()
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
            .builtin("Int", Builtin::U32Le)
            .build_unchecked();
        let text = g.to_string();
        assert!(text.contains("S -> H[0, 8] Data[H.offset, H.offset + H.length];"));
        assert!(text.contains("Int := u32le;"));
    }

    #[test]
    fn empty_alternative_prints_epsilon() {
        let g = GrammarBuilder::new().rule("E", vec![AltBuilder::new().build()]).build_unchecked();
        assert!(g.to_string().contains("E -> \"\"[0, 0];"));
    }

    #[test]
    fn attr_def_and_predicate_display() {
        let g = GrammarBuilder::new()
            .rule(
                "S",
                vec![AltBuilder::new()
                    .attr("n", Expr::eoi() / Expr::num(3))
                    .pred(Expr::local("n").gt(Expr::num(0)))
                    .build()],
            )
            .build_unchecked();
        let text = g.to_string();
        assert!(text.contains("{n = EOI / 3}"), "got: {text}");
        assert!(text.contains("assert(n > 0)"), "got: {text}");
    }
}
