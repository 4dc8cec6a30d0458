//! Textual frontend for IPGs: the `.ipg` notation.
//!
//! The notation mirrors the paper's mathematical syntax in ASCII:
//!
//! ```text
//! // Fig. 2 — the random access pattern.
//! S -> H[0, 8] Data[H.offset, H.offset + H.length];
//! H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
//! Int := u32le;
//! Data := bytes;
//! ```
//!
//! * rules end with `;`, alternatives are separated by `/` (biased choice);
//! * predicates `⟨e⟩` are written `assert(e)`;
//! * intervals may be omitted (`A`), given as a length (`A[10]`), or given
//!   in full (`A[lo, hi]`); missing parts are auto-completed (§3.4);
//! * `Name := u32le;` declares a specialized builtin leaf parser, and
//!   `Name := blackbox dec;` delegates to a registered [`Blackbox`];
//! * `where { … }` after a rule's alternatives declares local rules that
//!   inherit the invoking alternative's attributes;
//! * `start Name;` overrides the start nonterminal (default: first rule).

mod completion;
mod lexer;
mod parser;

pub use completion::{interval_stats, IntervalStats};
pub use lexer::{lex, Spanned, Tok};

use crate::blackbox::Blackbox;
use crate::error::Result;
use crate::syntax;

/// Parses the textual notation into a *surface* grammar with all implicit
/// intervals completed.
///
/// # Errors
///
/// Returns [`crate::Error::Syntax`] on notation errors and
/// [`crate::Error::Grammar`] when an implicit interval cannot be inferred.
pub fn parse_surface(src: &str) -> Result<syntax::Grammar> {
    let (mut grammar, pending) = parser::parse_items(src)?;
    completion::complete_intervals(&mut grammar, &pending)?;
    Ok(grammar)
}

/// Parses, completes, checks and lowers a grammar in one step.
///
/// # Errors
///
/// As [`parse_surface`], plus [`crate::Error::Check`] from attribute
/// checking.
pub fn parse_grammar(src: &str) -> Result<crate::check::Grammar> {
    crate::check::check(parse_surface(src)?)
}

/// Like [`parse_grammar`], but first registers blackbox parsers the
/// grammar's `:= blackbox name;` rules refer to.
///
/// # Errors
///
/// As [`parse_grammar`].
pub fn parse_grammar_with(src: &str, blackboxes: Vec<Blackbox>) -> Result<crate::check::Grammar> {
    let mut surface = parse_surface(src)?;
    for bb in blackboxes {
        surface.register_blackbox(bb);
    }
    crate::check::check(surface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Parser;

    #[test]
    fn end_to_end_fig2() {
        let g = parse_grammar(
            r#"
            S -> H[0, 8] Data[H.offset, H.offset + H.length];
            H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
            Int := u32le;
            Data := bytes;
            "#,
        )
        .unwrap();
        let mut input = Vec::new();
        input.extend_from_slice(&8u32.to_le_bytes());
        input.extend_from_slice(&4u32.to_le_bytes());
        input.extend_from_slice(b"DATA");
        let tree = Parser::new(&g).parse(&input).unwrap();
        assert_eq!(tree.child_node_nt(g.nt_id("Data").unwrap()).unwrap().span(), (8, 12));
    }

    #[test]
    fn roundtrip_display_then_reparse() {
        let src = r#"
            start S;
            S -> H[0, 8] Data[H.offset, H.offset + H.length] assert(H.offset > 0);
            H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
            Int := u32le;
            Data := bytes;
        "#;
        let g1 = parse_surface(src).unwrap();
        let printed = g1.to_string();
        let g2 = parse_surface(&printed).unwrap();
        assert_eq!(printed, g2.to_string(), "pretty-printing is a fixpoint");
    }

    #[test]
    fn where_clause_end_to_end() {
        let g = parse_grammar(
            r#"
            S -> A[0, 1] D[0, EOI] where { D -> B[A.val, EOI] C[B.end, EOI]; };
            A := u8;
            B -> "b"[0, 1];
            C -> "c"[0, 1];
            "#,
        )
        .unwrap();
        let p = Parser::new(&g);
        // A.val = 2 → B at 2, C right after.
        assert!(p.parse(b"\x02.bc").is_ok());
        assert!(p.parse(b"\x02b.c").is_err());
    }

    #[test]
    fn hex_terminals_parse() {
        let g = parse_grammar(r#"S -> x"7f454c46"[0, 4] Rest[4, EOI]; Rest := bytes;"#).unwrap();
        assert!(Parser::new(&g).parse(b"\x7fELFxxxx").is_ok());
        assert!(Parser::new(&g).parse(b"\x7fELG").is_err());
    }

    #[test]
    fn blackbox_by_name() {
        let bb = Blackbox::new("upper", |input| {
            Ok(crate::blackbox::BlackboxResult {
                consumed: input.len(),
                data: input.to_ascii_uppercase(),
                attr_values: vec![],
            })
        });
        let g = parse_grammar_with(
            r#"S -> "h:"[0, 2] Body[2, EOI]; Body := blackbox upper;"#,
            vec![bb],
        )
        .unwrap();
        let tree = Parser::new(&g).parse(b"h:abc").unwrap();
        assert_eq!(&tree.child_blackbox_nt(g.nt_id("Body").unwrap()).unwrap().data[..], b"ABC");
    }

    #[test]
    fn missing_blackbox_is_an_error() {
        let err = parse_grammar(r#"S -> Body[0, EOI]; Body := blackbox nope;"#).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn binary_number_grammar_from_text() {
        let g = parse_grammar(
            r#"
            start Int;
            Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
                 / Digit[0, 1] {val = Digit.val};
            Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1};
            "#,
        )
        .unwrap();
        let p = Parser::new(&g);
        let tree = p.parse(b"1101").unwrap();
        assert_eq!(tree.as_node().unwrap().attr(&g, "val"), Some(13));
    }
}
