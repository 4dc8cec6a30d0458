//! The deepest failure of a parse, kept unrendered while the parse runs,
//! and the [`ParseError`] it becomes when a parse returns it.

use crate::bytecode::{LitSpan, Program};
use crate::check::{Grammar, NtId};
use crate::error::ParseError;
use crate::intern::Sym;
use crate::syntax::{format_bytes_len, push_bytes, Builtin};

/// `pieces` joined in one exactly-sized `String`.
fn joined(pieces: &[&str]) -> String {
    let mut out = String::with_capacity(pieces.iter().map(|p| p.len()).sum());
    for piece in pieces {
        out.push_str(piece);
    }
    out
}

/// `n` in decimal, written into the tail of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII")
}

/// Why the deepest failure so far failed, kept unrendered: its message
/// (the interpreter's wording, byte for byte) is only built by
/// [`Deepest::render`] when a parse returns the error.
#[derive(Debug)]
pub(super) enum Reason {
    NoProgress,
    Builtin(Builtin),
    Blackbox(String),
    TerminalInterval,
    /// The interval is shorter than the terminal of this length.
    TerminalTooShort(u32),
    TerminalMismatch(LitSpan),
    /// Evaluating this attribute was undefined.
    Attr(Sym),
    Predicate,
    PredicateEval,
    /// The interval of a call of this nonterminal is invalid.
    Interval(NtId),
    ArrayBounds,
    StarInterval,
    /// A star matched no repetition of this nonterminal.
    StarEmpty(NtId),
    SwitchGuard,
}

/// The deepest failure observed so far (mirror of the interpreter's
/// `deepest: ParseError`).
#[derive(Debug)]
pub(super) struct Deepest {
    offset: usize,
    /// The rule being parsed (`None` only before the first failure).
    nt: Option<NtId>,
    reason: Reason,
}

impl Deepest {
    /// No failure yet: a parse that fails before recording one reports no
    /// progress at offset 0.
    pub(super) fn new() -> Deepest {
        Deepest { offset: 0, nt: None, reason: Reason::NoProgress }
    }

    /// Records a failure at `offset`, unless one was recorded deeper.
    pub(super) fn record(&mut self, offset: usize, nt: NtId, reason: Reason) {
        if offset >= self.offset {
            *self = Deepest { offset, nt: Some(nt), reason };
        }
    }

    /// The [`ParseError`] this failure reports. Its message is the
    /// interpreter's wording, written into one exactly-sized `String`.
    pub(super) fn render(&self, g: &Grammar, p: &Program) -> ParseError {
        let mut digits = [0; 20];
        let msg = match &self.reason {
            Reason::NoProgress => "no progress".into(),
            Reason::Builtin(b) => joined(&["builtin `", b.name(), "` failed"]),
            Reason::Blackbox(msg) => joined(&["blackbox failed: ", msg]),
            Reason::TerminalInterval => "invalid terminal interval".into(),
            Reason::TerminalTooShort(blen) => joined(&[
                "interval too short for terminal of length ",
                decimal(u64::from(*blen), &mut digits),
            ]),
            Reason::TerminalMismatch(lit) => {
                const EXPECTED: &str = "terminal mismatch (expected ";
                let bytes = p.lit(*lit);
                let mut msg = String::with_capacity(EXPECTED.len() + format_bytes_len(bytes) + 1);
                msg.push_str(EXPECTED);
                push_bytes(&mut msg, bytes);
                msg.push(')');
                msg
            }
            Reason::Attr(attr) => {
                joined(&["attribute `", g.attr_name(*attr), "` evaluation failed"])
            }
            Reason::Predicate => "predicate failed".into(),
            Reason::PredicateEval => "predicate evaluation failed".into(),
            Reason::Interval(callee) => {
                joined(&["invalid interval for `", g.nt_name(*callee), "`"])
            }
            Reason::ArrayBounds => "array bounds evaluation failed".into(),
            Reason::StarInterval => "invalid star interval".into(),
            Reason::StarEmpty(nt) => joined(&["star needs at least one `", g.nt_name(*nt), "`"]),
            Reason::SwitchGuard => "switch guard evaluation failed".into(),
        };
        self.render_with(g, msg)
    }

    /// The error of a parse that ran out of its `max_steps` steps: the
    /// step limit, at this failure's position (where the parse had got
    /// to, not why it failed there).
    pub(super) fn exhausted(&self, g: &Grammar, max_steps: u64) -> ParseError {
        let mut digits = [0; 20];
        let limit = decimal(max_steps, &mut digits);
        self.render_with(
            g,
            joined(&["step limit of ", limit, " exhausted (possible non-terminating grammar)"]),
        )
    }

    /// This failure's position with message `msg`.
    fn render_with(&self, g: &Grammar, msg: String) -> ParseError {
        ParseError {
            offset: self.offset,
            nonterminal: self.nt.map(|nt| g.nt_name(nt).to_owned()),
            msg,
        }
    }
}
