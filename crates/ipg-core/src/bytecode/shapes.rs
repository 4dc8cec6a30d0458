//! The shapes the bulk instructions run — records, byte scans and chains
//! — and their matchers: [`compile`](super::compile) finds each shape on
//! the compiled instructions and folds its endpoints, guards and sets to
//! affine [`Form`]s, built inline as [`Lin`]s.

use super::{BExpr, Compiler, ExprId, Instr, LitSpan, PAlt, PRuleKind, NO_SLOT};
use crate::check::{CAlt, CRuleBody, CTermKind, NtId};
use crate::env::wellknown;
use crate::intern::Sym;
use crate::interp::eval_binop;
use crate::layout::{END_SLOT, EOI_SLOT, START_SLOT};
use crate::syntax::{BinOp, Builtin};

/// In a [`ByteScan`]'s stop table: the first guard a byte fails is
/// undefined on it, rather than zero.
pub(crate) const GUARD_UNDEFINED: u8 = 0x80;

/// The most attribute slots (`EOI`, `start`, `end` and the attributes set)
/// a byte-scan rule has: the VM builds each level's values on the stack.
pub(crate) const SCAN_WIDTH: usize = 8;

/// A self-recursive byte rule that one [`Instr::Scan`] runs:
///
/// ```text
/// R -> B[0, 1] guard… R[1, EOI] set…
///    / "t"[lo, hi] set…;
/// ```
///
/// `B` is a one-byte builtin, the self-call may also start at `B.end`,
/// and the literal lies at constant offsets. Each level reads one byte and
/// recurses on the rest, until a byte fails a guard: that level, the
/// terminator, matches the literal instead. The guards read `B` only; the
/// first alternative's sets are [`Form`]s of `B`'s value, the nested `R`'s
/// attributes and constants, the second's of constants only, and both
/// alternatives set the same attributes, once each. A rule with a set of
/// any other shape is not a scan: it runs the general instructions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ByteScan {
    /// The general instruction the scan's head replaced: `B[0, 1]`.
    pub(crate) head: Instr,
    pub(crate) byte: NtId,
    /// Result slots of `B` and of the self-call, in that order.
    pub(crate) byte_slot: u16,
    pub(crate) self_slot: u16,
    /// Guards after the head, and sets after the self-call.
    pub(crate) guards: u8,
    pub(crate) sets: u8,
    /// Per byte value: the index of the first guard the byte fails, with
    /// [`GUARD_UNDEFINED`] set when that guard is undefined on it, or
    /// `guards` when it passes them all.
    pub(crate) stop: [u8; 256],
    /// The terminator's literal and its constant endpoints, at its pc,
    /// and the sets after it.
    pub(crate) lit: LitSpan,
    pub(crate) lit_lo: i64,
    pub(crate) lit_hi: i64,
    pub(crate) lit_pc: u32,
    pub(crate) lit_sets: u8,
    /// The first alternative's sets, then the terminator's:
    /// `Program::scan_sets[first_set..first_set + sets + lit_sets]`.
    pub(crate) first_set: u32,
}

impl ByteScan {
    /// The steps a level above the terminator charges: its byte's call
    /// and the builtin's, its guards, the self-call and the nested rule's
    /// call, and its sets.
    pub(crate) fn level_steps(&self) -> u64 {
        4 + u64::from(self.guards) + u64::from(self.sets)
    }

    /// The steps the terminator level charges when its byte fails guard
    /// `failed`: the byte's call and the builtin's, the guards up to that
    /// one, the literal and its sets.
    pub(crate) fn terminator_steps(&self, failed: u8) -> u64 {
        4 + u64::from(failed) + u64::from(self.lit_sets)
    }
}

/// A right-recursive list rule that one [`Instr::Chain`] runs:
///
/// ```text
/// X -> A[0, EOI] X[A.end, EOI]
///    / T;
/// ```
///
/// `A` is a non-local rule other than `X`, and neither alternative sets
/// an attribute, so a level's node holds `EOI`, `start` and `end` only.
/// Level `i + 1` lies at `A.end` of level `i`; the level whose element
/// fails, or whose list call fails, runs `T` (the second alternative) in
/// a frame of its own.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ListChain {
    /// The general instruction the chain's head replaced: `A[0, EOI]`.
    pub(crate) head: Instr,
    /// `X` and `A`.
    pub(crate) list: NtId,
    pub(crate) elem: NtId,
    /// Result slots of the element and of the self-call.
    pub(crate) elem_slot: u16,
    pub(crate) next_slot: u16,
    /// The element's [`Record`], if it has one.
    pub(crate) record: Option<u32>,
}

/// The most result slots and registers a chain's [`Record`] element
/// has, which the VM keeps on the stack while it decodes one, and the
/// most registers any record has.
pub(crate) const REC_SLOTS: usize = 16;
pub(crate) const REC_REGS: usize = 48;

/// A run of an alternative that one [`Instr::Record`] decodes: literals,
/// calls of fixed-width or `bytes` builtins, guards and sets, one
/// [`RecOp`] per instruction, whose endpoints, guards and sets are
/// [`Form`]s of constants, the frame's own attributes, the run's fields'
/// attributes and the attributes of siblings before the run. Decoded in
/// full it has the effect of the instructions it covers, and it charges
/// their steps.
///
/// Registers `0..width` are the frame's attribute slots; field `k`'s
/// `EOI`, `start`, `end` and `val` follow at `width + 4k` to `width + 4k +
/// 3`, and the siblings' attributes (its [`Load`]s) after the fields.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    pub(crate) nt: NtId,
    /// The general instruction the record's head replaced.
    pub(crate) head: Instr,
    /// The head's pc: op `i` stands for the instruction at `pc + i`.
    pub(crate) pc: u32,
    /// The ops: `Program::rec_ops[first..first + count]`.
    pub(crate) first: u32,
    pub(crate) count: u32,
    /// Builtin calls among the ops.
    pub(crate) calls: u32,
    /// The alternative's children's result slots
    /// ([`PAlt::first_child`]).
    pub(crate) first_child: u32,
    pub(crate) n_children: u16,
    /// Attribute slots of the rule's nodes.
    pub(crate) width: u16,
    /// The siblings' attributes it reads: `Program::loads[first_load..
    /// first_load + loads]`.
    pub(crate) first_load: u32,
    pub(crate) loads: u16,
}

/// A sibling's attribute a [`Record`] reads, loaded into register `reg`
/// on entry: `nt`'s attribute `attr`, at slot `attr_slot` of its nodes
/// (filled in by `layout`), of the result at slot `slot`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Load {
    pub(crate) slot: u16,
    pub(crate) nt: NtId,
    pub(crate) attr: Sym,
    pub(crate) attr_slot: u16,
    pub(crate) reg: u16,
}

impl Record {
    /// The steps the covered instructions charge: one per instruction,
    /// and one more per builtin call.
    pub(crate) fn steps(&self) -> u64 {
        u64::from(self.count) + u64::from(self.calls)
    }

    /// The registers it uses: the frame's slots, four per field and one
    /// per load.
    pub(crate) fn regs(&self) -> u16 {
        self.width + 4 * self.calls as u16 + self.loads
    }
}

/// One instruction of a [`Record`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum RecOp {
    /// `"s"[lo, hi]`.
    Lit { lit: LitSpan, lo: Aff, hi: Aff, slot: u16 },
    /// `B[lo, hi]`, `B` a builtin of fixed `width` or, with none, `bytes`;
    /// its attributes go to registers `reg` to `reg + 3`.
    Field { nt: NtId, builtin: Builtin, width: Option<u32>, lo: Aff, hi: Aff, slot: u16, reg: u16 },
    /// `{attr = form}` into register `reg`, the frame's slot of `attr`
    /// (resolved by `layout`).
    Set { attr: Sym, reg: u16, form: Form },
    /// `⟨form⟩`.
    Guard { form: Form },
}

/// An affine form `c + Σ coef·reg` over `Program::terms[first..first +
/// len]`, evaluated in wrapping `i64` arithmetic: that is the ring
/// attribute arithmetic computes in (`interp::eval_binop`), so it equals
/// the expression it was folded from for every value of its registers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Aff {
    pub(crate) c: i64,
    pub(crate) first: u32,
    pub(crate) len: u32,
}

impl Aff {
    #[inline]
    pub(crate) fn eval(&self, terms: &[Term], regs: &[i64]) -> i64 {
        terms[self.first as usize..(self.first + self.len) as usize]
            .iter()
            .fold(self.c, |v, t| v.wrapping_add(t.coef.wrapping_mul(regs[usize::from(t.reg)])))
    }
}

/// An expression a [`Record`] or a [`ByteScan`] evaluates without the
/// expression pool: an affine form, a comparison of two, or a conditional
/// choosing between two on one. None of them can be undefined.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Form {
    Aff(Aff),
    /// `a op b`: 1 or 0.
    Cmp(BinOp, Aff, Aff),
    /// `a op b ? t : f`.
    Cond(BinOp, Aff, Aff, Aff, Aff),
}

impl Form {
    /// The affine forms it is made of.
    pub(crate) fn affs(&self) -> Vec<Aff> {
        match *self {
            Form::Aff(a) => vec![a],
            Form::Cmp(_, a, b) => vec![a, b],
            Form::Cond(_, a, b, t, f) => vec![a, b, t, f],
        }
    }

    #[inline]
    pub(crate) fn eval(&self, terms: &[Term], regs: &[i64]) -> i64 {
        let test = |op, a: &Aff, b: &Aff| compare(op, a.eval(terms, regs), b.eval(terms, regs));
        match self {
            Form::Aff(a) => a.eval(terms, regs),
            Form::Cmp(op, a, b) => i64::from(test(*op, a, b)),
            Form::Cond(op, a, b, t, f) => if test(*op, a, b) { t } else { f }.eval(terms, regs),
        }
    }
}

/// `a op b` for a comparison operator, as `interp::eval_binop` has it.
#[inline]
fn compare(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        _ => a >= b,
    }
}

/// One term `coef·reg` of an [`Aff`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Term {
    pub(crate) coef: i64,
    /// The register it reads: set by [`compile`](super::compile) for a
    /// field, a sibling or a scan's byte, by `layout` for an attribute.
    pub(crate) reg: u16,
    pub(crate) src: Src,
}

/// What a [`Term`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// An attribute of the record's own frame (`EOI`, `start`, `end`, or
    /// one the alternative set earlier).
    Attr(Sym),
    /// Attribute `attr` of the record's builtin field at result slot
    /// `slot`.
    Field { slot: u16, nt: NtId, attr: Sym },
    /// Attribute `attr` of the sibling before the record at result slot
    /// `slot`.
    Sibling { slot: u16, nt: NtId, attr: Sym },
    /// A byte scan's byte's `val`.
    Byte,
    /// An attribute of a byte scan's nested level, as stored.
    Inner(Sym),
}

/// Register of a byte scan's byte in the registers its sets read: the
/// nested level's values come first.
pub(crate) const SCAN_BYTE_REG: u16 = SCAN_WIDTH as u16;

/// A set of a [`ByteScan`]: `{attr = form}` into frame slot `slot`
/// (resolved by `layout`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScanSet {
    pub(crate) attr: Sym,
    pub(crate) slot: u16,
    pub(crate) form: Form,
}

/// Whether `e` reads the frame's `EOI`.
fn is_eoi(e: BExpr) -> bool {
    matches!(e, BExpr::Eoi | BExpr::Local { sym: wellknown::EOI, .. })
}

/// The attribute slots of a node of a rule with alternatives `alts`:
/// `EOI`, `start`, `end`, then every other attribute they set (the
/// `layout` module numbers them alike).
pub(super) fn node_width(alts: &[CAlt]) -> usize {
    let mut attrs = vec![wellknown::EOI, wellknown::START, wellknown::END];
    for term in alts.iter().flat_map(|alt| &alt.terms) {
        if let CTermKind::AttrDef { attr, .. } = term.kind {
            if !attrs.contains(&attr) {
                attrs.push(attr);
            }
        }
    }
    attrs.len()
}

/// Most distinct reads an affine form under construction holds; an
/// expression that needs more is not folded.
const LIN_TERMS: usize = 8;

/// An affine form under construction: `c + Σ coef·src`, like terms merged,
/// held inline so that folding an expression allocates nothing.
#[derive(Clone, Copy)]
struct Lin {
    c: i64,
    len: usize,
    terms: [(i64, Src, u16); LIN_TERMS],
}

impl Lin {
    fn constant(c: i64) -> Lin {
        Lin { c, len: 0, terms: [(0, Src::Byte, NO_SLOT); LIN_TERMS] }
    }

    fn term(src: Src, reg: u16) -> Lin {
        let mut lin = Lin::constant(0);
        lin.terms[0] = (1, src, reg);
        lin.len = 1;
        lin
    }

    fn terms(&self) -> &[(i64, Src, u16)] {
        &self.terms[..self.len]
    }

    /// `self + k·other`, wrapping; `None` if it has more than
    /// [`LIN_TERMS`] terms.
    fn add(mut self, k: i64, other: Lin) -> Option<Lin> {
        self.c = self.c.wrapping_add(k.wrapping_mul(other.c));
        for &(coef, src, reg) in other.terms() {
            let coef = k.wrapping_mul(coef);
            match self.terms[..self.len].iter_mut().find(|t| t.1 == src) {
                Some(t) => t.0 = t.0.wrapping_add(coef),
                None => {
                    *self.terms.get_mut(self.len)? = (coef, src, reg);
                    self.len += 1;
                }
            }
        }
        let mut kept = 0;
        for i in 0..self.len {
            if self.terms[i].0 != 0 {
                self.terms[kept] = self.terms[i];
                kept += 1;
            }
        }
        self.len = kept;
        Some(self)
    }
}

/// What the expressions of a [`Record`] or of a [`ByteScan`]'s sets may
/// read (see `Compiler::lin`).
#[derive(Clone, Copy)]
enum Reads<'a> {
    /// A record: its frame's `EOI`, `start` and `end` and the attributes
    /// in `attrs` (set earlier in the alternative), the attributes of the
    /// builtin fields `(result slot, nonterminal)` in `fields`, field `k`
    /// at registers `at + 4k..at + 4k + 4`, and those of any other
    /// sibling: a read of a term is compiled after the term, so that
    /// sibling lies before the run.
    Record { attrs: &'a [Sym], fields: &'a [(u16, NtId)], at: u16 },
    /// A scan's sets: the byte's attributes (at result slot `byte`) and,
    /// at result slot `inner`, the nested level's `EOI`, `start`, `end`
    /// and `attrs`.
    Scan { byte: u16, inner: Option<(u16, &'a [Sym])> },
}

/// The attributes `sets` bind, sorted, if each is a `Set` of an attribute
/// other than `EOI`, `start` and `end`, and no two bind the same one.
fn set_attrs(sets: &[Instr]) -> Option<Vec<Sym>> {
    let mut attrs = Vec::with_capacity(sets.len());
    for instr in sets {
        let Instr::Set { attr, .. } = *instr else { return None };
        if matches!(attr, wellknown::EOI | wellknown::START | wellknown::END)
            || attrs.contains(&attr)
        {
            return None;
        }
        attrs.push(attr);
    }
    attrs.sort_by_key(|s| s.0);
    Some(attrs)
}

impl Compiler<'_> {
    /// The [`ByteScan`] that rule `nt`, with alternatives `first..first +
    /// count` compiled, is an instance of, if it is one.
    pub(super) fn byte_scan(&mut self, nt: NtId, first: u32, count: u32) -> Option<ByteScan> {
        if count != 2 || self.g.rule(nt).is_local {
            return None;
        }
        let [body, term] = [first, first + 1].map(|a| {
            let alt = self.out.alts[a as usize];
            (alt.first, self.out.alt_code(alt))
        });
        let Some(&head @ Instr::Call { nt: byte, lo, hi, slot: byte_slot }) = body.1.first() else {
            return None;
        };
        let CRuleBody::Builtin(builtin) = self.g.rule(byte).body else { return None };
        if builtin.fixed_width() != Some(1)
            || (self.constant(lo), self.constant(hi)) != (Some(0), Some(1))
        {
            return None;
        }
        let guards: Vec<ExprId> = body.1[1..]
            .iter()
            .map_while(|i| match *i {
                Instr::Guard { expr } => Some(expr),
                _ => None,
            })
            .collect();
        let Some(&Instr::Call { nt: callee, lo, hi, slot: self_slot }) =
            body.1.get(1 + guards.len())
        else {
            return None;
        };
        // The nested level starts after the byte: at `1` or `B.end`.
        let after_byte = match self.out.exprs[lo.0 as usize] {
            BExpr::Num(n) => n == 1,
            BExpr::NtAttr { slot, attr, .. } => (slot, attr) == (byte_slot, wellknown::END),
            _ => false,
        };
        if callee != nt
            || !after_byte
            || !matches!(self.out.exprs[hi.0 as usize], BExpr::Eoi)
            || byte_slot >= self_slot
            || guards.is_empty()
            || guards.len() >= usize::from(GUARD_UNDEFINED)
        {
            return None;
        }
        let Some(&Instr::Match { lit, lo, hi, .. }) = term.1.first() else { return None };
        let (lo, hi) = (self.constant(lo)?, self.constant(hi)?);
        if lo < 0 || hi.checked_sub(lo)? < i64::from(lit.len) {
            return None;
        }
        let sets = &body.1[2 + guards.len()..];
        let attrs = set_attrs(sets)?;
        if set_attrs(&term.1[1..])? != attrs || attrs.len() > SCAN_WIDTH - 3 {
            return None;
        }
        if !guards.iter().all(|&g| self.guard_expr(g, byte_slot)) {
            return None;
        }
        let (n_sets, n_lit_sets, lit_pc) = (sets.len() as u8, (term.1.len() - 1) as u8, term.0);
        let set_exprs: Vec<(Sym, ExprId)> = (sets.iter().chain(&term.1[1..]))
            .map(|i| match *i {
                Instr::Set { attr, expr, .. } => (attr, expr),
                _ => unreachable!("`set_attrs` checked they are sets"),
            })
            .collect();
        // A set that is not a form leaves the pools as they were.
        let (terms, first_set) = (self.out.terms.len(), self.out.scan_sets.len());
        for (k, (attr, expr)) in set_exprs.into_iter().enumerate() {
            let reads = if k < usize::from(n_sets) {
                Reads::Scan { byte: byte_slot, inner: Some((self_slot, &attrs[..])) }
            } else {
                Reads::Scan { byte: NO_SLOT, inner: None }
            };
            let Some(form) = self.form(expr, reads) else {
                self.out.terms.truncate(terms);
                self.out.scan_sets.truncate(first_set);
                return None;
            };
            self.out.scan_sets.push(ScanSet { attr, slot: NO_SLOT, form });
        }
        let mut stop = [guards.len() as u8; 256];
        for (value, stop) in stop.iter_mut().enumerate() {
            for (q, &g) in guards.iter().enumerate() {
                match self.guard_value(g, byte_slot, value as i64) {
                    Some(0) => *stop = q as u8,
                    None => *stop = q as u8 | GUARD_UNDEFINED,
                    Some(_) => continue,
                }
                break;
            }
        }
        Some(ByteScan {
            head,
            byte,
            byte_slot,
            self_slot,
            guards: guards.len() as u8,
            sets: n_sets,
            stop,
            lit,
            lit_lo: lo,
            lit_hi: hi,
            lit_pc,
            lit_sets: n_lit_sets,
            first_set: first_set as u32,
        })
    }

    /// Whether `e` is a guard a [`ByteScan`] can tabulate: numbers,
    /// operators and conditionals over attributes of `B` (at result slot
    /// `byte`).
    fn guard_expr(&self, e: ExprId, byte: u16) -> bool {
        let ok = |e| self.guard_expr(e, byte);
        match self.out.exprs[e.0 as usize] {
            BExpr::Num(_) => true,
            BExpr::Bin(_, a, b) => ok(a) && ok(b),
            BExpr::Cond(c, t, f) => ok(c) && ok(t) && ok(f),
            BExpr::NtAttr { slot, attr, .. } => {
                slot == byte
                    && matches!(
                        attr,
                        wellknown::VAL | wellknown::START | wellknown::END | wellknown::EOI
                    )
            }
            _ => false,
        }
    }

    /// The value of guard `e` of a byte scan whose byte, at result slot
    /// `byte`, is `value`, or `None` when undefined. `B` read one byte at
    /// offset 0 of the level.
    fn guard_value(&self, e: ExprId, byte: u16, value: i64) -> Option<i64> {
        let eval = |e| self.guard_value(e, byte, value);
        Some(match self.out.exprs[e.0 as usize] {
            BExpr::Num(n) => n,
            BExpr::Bin(op, a, b) => eval_binop(op, eval(a)?, eval(b)?)?,
            BExpr::Cond(c, t, f) => eval(if eval(c)? != 0 { t } else { f })?,
            BExpr::NtAttr { slot, attr, .. } if slot == byte => match attr {
                wellknown::VAL => value,
                wellknown::START => 0,
                _ => 1,
            },
            _ => return None,
        })
    }

    /// `e` as an affine form over what `reads` allows, if it is one:
    /// constants, sums, differences and products with a constant of those
    /// reads, folded in wrapping arithmetic (see [`Aff`]).
    fn lin(&self, e: ExprId, reads: Reads) -> Option<Lin> {
        let lin = |e| self.lin(e, reads);
        Some(match self.out.exprs[e.0 as usize] {
            BExpr::Num(n) => Lin::constant(n),
            BExpr::Bin(BinOp::Add, a, b) => lin(a)?.add(1, lin(b)?)?,
            BExpr::Bin(BinOp::Sub, a, b) => lin(a)?.add(-1, lin(b)?)?,
            BExpr::Bin(BinOp::Mul, a, b) => match (lin(a)?, lin(b)?) {
                (k, x) | (x, k) if k.len == 0 => Lin::constant(0).add(k.c, x)?,
                _ => return None,
            },
            e @ (BExpr::Eoi | BExpr::Local { .. }) => {
                let Reads::Record { attrs, .. } = reads else { return None };
                let sym = if let BExpr::Local { sym, .. } = e { sym } else { wellknown::EOI };
                let own = matches!(sym, wellknown::EOI | wellknown::START | wellknown::END);
                if !own && !attrs.contains(&sym) {
                    return None;
                }
                Lin::term(Src::Attr(sym), NO_SLOT)
            }
            BExpr::NtAttr { slot, nt, attr, .. } => match reads {
                Reads::Record { fields, at, .. } => {
                    match fields.iter().position(|&f| f == (slot, nt)) {
                        Some(k) => {
                            let reg = match attr {
                                wellknown::EOI => EOI_SLOT,
                                wellknown::START => START_SLOT,
                                wellknown::END => END_SLOT,
                                wellknown::VAL => END_SLOT + 1,
                                _ => return None,
                            };
                            Lin::term(Src::Field { slot, nt, attr }, at + 4 * k as u16 + reg)
                        }
                        // Its register follows the fields' (see `record`).
                        None => Lin::term(Src::Sibling { slot, nt, attr }, NO_SLOT),
                    }
                }
                Reads::Scan { byte, .. } if slot == byte => match attr {
                    wellknown::VAL => Lin::term(Src::Byte, SCAN_BYTE_REG),
                    wellknown::START => Lin::constant(0),
                    wellknown::END | wellknown::EOI => Lin::constant(1),
                    _ => return None,
                },
                // The nested level lies at offset 1: its `start` and `end`
                // read one higher (rule T-NTSucc).
                Reads::Scan { inner: Some((inner, attrs)), .. } if slot == inner => {
                    let shifted = matches!(attr, wellknown::START | wellknown::END);
                    if !shifted && attr != wellknown::EOI && !attrs.contains(&attr) {
                        return None;
                    }
                    Lin::constant(i64::from(shifted))
                        .add(1, Lin::term(Src::Inner(attr), NO_SLOT))?
                }
                Reads::Scan { .. } => return None,
            },
            _ => return None,
        })
    }

    /// `e` as a [`Form`] over what `reads` allows, if it is one, its
    /// terms pushed to the term pool.
    fn form(&mut self, e: ExprId, reads: Reads) -> Option<Form> {
        let lin = |e| self.lin(e, reads);
        let cmp = |op| {
            matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge)
        };
        Some(match self.out.exprs[e.0 as usize] {
            BExpr::Bin(op, a, b) if cmp(op) => {
                let (a, b) = (lin(a)?, lin(b)?);
                Form::Cmp(op, self.push_aff(a), self.push_aff(b))
            }
            BExpr::Cond(c, t, f) => {
                let (op, a, b) = match self.out.exprs[c.0 as usize] {
                    BExpr::Bin(op, a, b) if cmp(op) => (op, lin(a)?, lin(b)?),
                    _ => (BinOp::Ne, lin(c)?, Lin::constant(0)),
                };
                let (t, f) = (lin(t)?, lin(f)?);
                let (a, b) = (self.push_aff(a), self.push_aff(b));
                Form::Cond(op, a, b, self.push_aff(t), self.push_aff(f))
            }
            _ => {
                let a = lin(e)?;
                Form::Aff(self.push_aff(a))
            }
        })
    }

    /// `e`'s value, if it folds to a constant.
    fn constant(&self, e: ExprId) -> Option<i64> {
        let lin = self.lin(e, Reads::Scan { byte: NO_SLOT, inner: None })?;
        (lin.len == 0).then_some(lin.c)
    }

    fn push_aff(&mut self, lin: Lin) -> Aff {
        let first = self.out.terms.len() as u32;
        let terms = lin.terms().iter().map(|&(coef, src, reg)| Term { coef, reg, src });
        self.out.terms.extend(terms);
        Aff { c: lin.c, first, len: lin.len as u32 }
    }

    /// The [`ListChain`] that rule `nt` is an instance of, if it is one
    /// (its record left to the caller).
    pub(super) fn list_chain(&self, nt: NtId) -> Option<ListChain> {
        let rule = &self.out.rules[nt.0 as usize];
        let PRuleKind::Alts { first, count: 2 } = rule.kind else { return None };
        let [body, tail] = [first, first + 1].map(|a| self.out.alt_code(self.out.alts[a as usize]));
        let &[head @ Instr::Call { nt: elem, lo, hi, slot: elem_slot }, Instr::Call { nt: callee, lo: next_lo, hi: next_hi, slot: next_slot }] =
            body
        else {
            return None;
        };
        let expr = |e: ExprId| self.out.exprs[e.0 as usize];
        let from_end = matches!(
            expr(next_lo),
            BExpr::NtAttr { slot, nt, attr: wellknown::END, .. } if (slot, nt) == (elem_slot, elem)
        );
        let shaped = matches!(expr(lo), BExpr::Num(0))
            && is_eoi(expr(hi))
            && from_end
            && is_eoi(expr(next_hi))
            && elem_slot < next_slot;
        if !shaped
            || rule.is_local
            || callee != nt
            || elem == nt
            || self.out.rules[elem.0 as usize].is_local
            || tail.iter().any(|&i| matches!(self.out.unfused(i), Instr::Set { .. }))
        {
            return None;
        }
        Some(ListChain { head, list: nt, elem, elem_slot, next_slot, record: None })
    }

    /// The record that decodes rule `nt`'s one alternative whole, if it
    /// has one that reads no sibling and whose result slots fit a chain's
    /// stack.
    pub(super) fn elem_record(&self, nt: NtId) -> Option<u32> {
        let PRuleKind::Alts { first, count: 1 } = self.out.rules[nt.0 as usize].kind else {
            return None;
        };
        let alt = self.out.alts[first as usize];
        let Instr::Record { rec } = self.out.code[alt.first as usize] else { return None };
        let r = &self.out.records[rec as usize];
        (r.count == alt.count && r.loads == 0 && usize::from(alt.n_slots) <= REC_SLOTS)
            .then_some(rec)
    }

    /// Compiles the records of alternative `alt` of rule `nt`, whose
    /// nodes have `width` attribute slots, each in place of its head.
    pub(super) fn records(&mut self, nt: NtId, alt: PAlt, width: u16) {
        let mut pc = alt.first;
        while pc < alt.first + alt.count {
            pc = match self.record(nt, alt, pc, width) {
                Ok(rec) => {
                    self.out.records.push(rec);
                    let id = self.out.records.len() as u32 - 1;
                    self.out.code[pc as usize] = Instr::Record { rec: id };
                    pc + rec.count
                }
                Err(end) => end.max(pc + 1),
            };
        }
    }

    /// The [`Record`] of the longest run of `alt` from `pc` (see
    /// [`compile`](super::compile)), its ops, loads and terms pushed to
    /// the pools, if the run is one. A run that is not leaves the pools as
    /// they were and gives where it ends: no run starting inside it is one
    /// either.
    fn record(&mut self, nt: NtId, alt: PAlt, pc: u32, width: u16) -> Result<Record, u32> {
        let (terms, first) = (self.out.terms.len(), self.out.rec_ops.len());
        let mut attrs: Vec<Sym> = Vec::new();
        let mut fields: Vec<(u16, NtId)> = Vec::new();
        let mut sibs: Vec<Src> = Vec::new();
        let set = |attrs: &mut Vec<Sym>, instr| {
            let Instr::Set { attr, .. } = instr else { return };
            let own = matches!(attr, wellknown::EOI | wellknown::START | wellknown::END);
            if !own && !attrs.contains(&attr) {
                attrs.push(attr);
            }
        };
        for &instr in &self.out.code[alt.first as usize..pc as usize] {
            set(&mut attrs, self.out.unfused(instr));
        }
        for at in pc..alt.first + alt.count {
            let (instr, t) = (self.out.code[at as usize], self.out.terms.len());
            let reads = Reads::Record { attrs: &attrs, fields: &fields, at: width };
            let Some(op) = self.rec_op(instr, reads) else {
                self.out.terms.truncate(t);
                break;
            };
            let known = sibs.len();
            for term in &self.out.terms[t..] {
                if matches!(term.src, Src::Sibling { .. }) && !sibs.contains(&term.src) {
                    sibs.push(term.src);
                }
            }
            let field = matches!(op, RecOp::Field { .. });
            if usize::from(width) + 4 * (fields.len() + usize::from(field)) + sibs.len() > REC_REGS
            {
                self.out.terms.truncate(t);
                sibs.truncate(known);
                break;
            }
            if let RecOp::Field { nt, slot, .. } = op {
                fields.push((slot, nt));
            }
            set(&mut attrs, instr);
            self.out.rec_ops.push(op);
        }
        let count = self.out.rec_ops.len() - first;
        if fields.is_empty() || count < 2 {
            self.out.terms.truncate(terms);
            self.out.rec_ops.truncate(first);
            return Err(pc + count as u32);
        }
        // The siblings' registers follow the fields'.
        let loads = width + 4 * fields.len() as u16;
        for term in &mut self.out.terms[terms..] {
            if let Some(j) = sibs.iter().position(|&s| s == term.src) {
                term.reg = loads + j as u16;
            }
        }
        let first_load = self.out.loads.len() as u32;
        for (j, &src) in sibs.iter().enumerate() {
            let Src::Sibling { slot, nt, attr } = src else { unreachable!("only siblings") };
            let reg = loads + j as u16;
            self.out.loads.push(Load { slot, nt, attr, attr_slot: NO_SLOT, reg });
        }
        Ok(Record {
            nt,
            head: self.out.code[pc as usize],
            pc,
            first: first as u32,
            count: count as u32,
            calls: fields.len() as u32,
            first_child: alt.first_child,
            n_children: alt.n_children,
            width,
            first_load,
            loads: sibs.len() as u16,
        })
    }

    /// `instr` as a [`RecOp`] over what `reads` allows, if it is one, its
    /// terms pushed to the term pool.
    fn rec_op(&mut self, instr: Instr, reads: Reads) -> Option<RecOp> {
        Some(match instr {
            Instr::Match { lit, lo, hi, slot } => {
                let (lo, hi) = (self.lin(lo, reads)?, self.lin(hi, reads)?);
                RecOp::Lit { lit, lo: self.push_aff(lo), hi: self.push_aff(hi), slot }
            }
            Instr::Call { nt, lo, hi, slot } => {
                let CRuleBody::Builtin(builtin) = self.g.rule(nt).body else { return None };
                let width = match builtin.fixed_width() {
                    Some(w) => Some(w as u32),
                    None if builtin == Builtin::Bytes => None,
                    None => return None,
                };
                let Reads::Record { fields, at, .. } = reads else { return None };
                let (lo, hi) = (self.lin(lo, reads)?, self.lin(hi, reads)?);
                let (lo, hi) = (self.push_aff(lo), self.push_aff(hi));
                let reg = at + 4 * fields.len() as u16;
                RecOp::Field { nt, builtin, width, lo, hi, slot, reg }
            }
            Instr::Set { attr, expr, .. } => {
                RecOp::Set { attr, reg: NO_SLOT, form: self.form(expr, reads)? }
            }
            Instr::Guard { expr } => RecOp::Guard { form: self.form(expr, reads)? },
            _ => return None,
        })
    }
}
