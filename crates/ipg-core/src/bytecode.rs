//! Lowering a checked grammar to a flat bytecode program.
//!
//! The checked IR ([`crate::check`]) is a tree of `Box`ed expressions and
//! `Vec`s of terms — fine for checking, but the interpreter chases
//! pointers and hashes names for every step it takes. [`compile`] flattens
//! that IR into a [`Program`]:
//!
//! * one [`PRule`] per nonterminal, indexed directly by [`NtId`];
//! * all alternatives in one dense [`PAlt`] array, each owning a
//!   contiguous span of the shared instruction array;
//! * one fixed-size [`Instr`] per term, in evaluation (topologically
//!   sorted) order, with the result slot (`written index`) pre-resolved to
//!   a `u16`;
//! * expressions flattened into one shared [`BExpr`] pool addressed by
//!   [`ExprId`] — operands are `u32` ids, not `Box` pointers;
//! * terminal literals concatenated into one byte pool addressed by
//!   `(offset, len)` spans;
//! * switch cases in one shared case pool;
//! * field runs: each maximal run of fixed-width builtin fields
//!   (`B[lo, hi] {x = B.val}` pairs, optionally after a literal) whose
//!   endpoints fold to constants, or to offsets from the run's first
//!   endpoint, is also compiled to one [`Instr::Fields`] at its head's pc
//!   (see [`compile`]);
//! * byte scans: a self-recursive byte rule (`R -> B[0, 1] guard… R[1,
//!   EOI] set… / "t"[lo, hi] set…`, `B` a one-byte builtin) has its
//!   first instruction compiled to one [`Instr::Scan`] besides, which runs
//!   every level of the recursion down to the terminator in one pass (see
//!   [`compile`]).
//!
//! Attribute operands keep their [`Sym`] and carry a frame or node slot
//! besides, which [`compile`] leaves at [`NO_SLOT`]: the slots are filled
//! in by the `layout` module when a [`crate::interp::vm::VmParser`] is built
//! from the program, so the listing does not depend on them.
//!
//! The program is executed by [`crate::interp::vm`]. Its shape is pinned
//! by snapshot tests over [`Program::disassemble`] so that compiler changes
//! show up as reviewable listing diffs.

use crate::arena::NtTable;
use crate::check::{CAlt, CExpr, CInterval, CRuleBody, CSwitchCase, CTermKind, Grammar, NtId};
use crate::env::wellknown;
use crate::intern::Sym;
use crate::interp::eval_binop;
use crate::layout::{END_SLOT, START_SLOT};
use crate::syntax::{BinOp, Builtin};
use std::fmt::Write as _;
use std::sync::Arc;

/// An attribute slot that is not resolved: what [`compile`] emits before
/// layout resolution, and what resolution leaves for a local read the
/// frame does not hold (it is read from the invoking alternative) or an
/// attribute the nonterminal does not store.
pub const NO_SLOT: u16 = u16::MAX;

/// Index of an expression in [`Program`]'s flat expression pool.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ExprId(pub u32);

impl std::fmt::Debug for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExprId({})", self.0)
    }
}

/// A span of bytes in the program's terminal-literal pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LitSpan {
    /// Offset of the first byte.
    pub start: u32,
    /// Number of bytes.
    pub len: u32,
}

/// One rule of the compiled program.
#[derive(Clone, Debug)]
pub struct PRule {
    /// How the rule parses.
    pub kind: PRuleKind,
    /// Whether this is a local (`where`) rule: it inherits the invoking
    /// alternative's environment and is never memoized.
    pub is_local: bool,
}

/// The rule dispatch variants.
#[derive(Clone, Copy, Debug)]
pub enum PRuleKind {
    /// Biased choice over `count` alternatives starting at
    /// [`Program::alts`]`[first]`.
    Alts {
        /// Index of the first alternative.
        first: u32,
        /// Number of alternatives.
        count: u32,
    },
    /// A builtin leaf parser.
    Builtin(Builtin),
    /// Index into the grammar's blackbox registry.
    Blackbox(u32),
}

/// One alternative: a contiguous instruction span plus the size of its
/// result-slot vector.
#[derive(Clone, Copy, Debug)]
pub struct PAlt {
    /// Index of the first instruction in [`Program::code`].
    pub first: u32,
    /// Number of instructions.
    pub count: u32,
    /// Number of result slots (`== n_terms` of the checked alternative).
    pub n_slots: u16,
}

/// One bytecode instruction — a checked term with pre-resolved operands.
/// `slot` is the term's written index: the result-vector slot it fills and
/// the index sibling [`BExpr::NtAttr`] references use.
#[derive(Clone, Copy, Debug)]
pub enum Instr {
    /// `"s"[lo, hi]` — match literal bytes inside the interval.
    Match {
        /// Literal bytes (span into [`Program::lits`]).
        lit: LitSpan,
        /// Left interval endpoint.
        lo: ExprId,
        /// Right interval endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `B[lo, hi]` — invoke nonterminal `nt` on the interval.
    Call {
        /// Callee.
        nt: NtId,
        /// Left interval endpoint.
        lo: ExprId,
        /// Right interval endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `{attr = expr}` — bind an attribute.
    Set {
        /// Attribute symbol.
        attr: Sym,
        /// Frame slot the attribute is stored in.
        attr_slot: u16,
        /// Defining expression.
        expr: ExprId,
    },
    /// `⟨expr⟩` — fail the alternative unless `expr` is non-zero.
    Guard {
        /// Condition.
        expr: ExprId,
    },
    /// `for var = from to to do B[lo, hi]`.
    Loop {
        /// Loop variable symbol.
        var: Sym,
        /// Frame slot of the loop variable.
        var_slot: u16,
        /// Inclusive lower bound.
        from: ExprId,
        /// Exclusive upper bound.
        to: ExprId,
        /// Element nonterminal.
        nt: NtId,
        /// Per-element left endpoint (may mention `var`).
        lo: ExprId,
        /// Per-element right endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `star B[lo, hi]` — one-or-more repetition.
    Star {
        /// Element nonterminal.
        nt: NtId,
        /// Left interval endpoint.
        lo: ExprId,
        /// Right interval endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `switch(c1 : B1[..] / … / D[..])` — dispatch over
    /// [`Program::cases`]`[first..first+count]` (default last).
    Switch {
        /// Index of the first case.
        first: u32,
        /// Number of cases including the default.
        count: u16,
        /// Result slot.
        slot: u16,
    },
    /// A field run (`FieldRun`) in place of its head, the run's first
    /// instruction: decodes every field of the run at once when the whole
    /// run is in bounds, else runs the head it replaced. The instructions
    /// the run covers follow it unchanged, for that case.
    Fields {
        /// Index of the run in the program's run pool.
        run: u32,
    },
    /// A byte scan (`ByteScan`) in place of its head, the first
    /// instruction of its rule: runs every level of the rule's recursion
    /// down to the terminator at once when that is found in the frame's
    /// interval, else runs the head it replaced. The rest of the first
    /// alternative follows it unchanged, for that case.
    Scan {
        /// Index of the scan in the program's scan pool.
        scan: u32,
    },
}

/// A run of builtin fields that one [`Instr::Fields`] decodes: an optional
/// literal, then fields in program order, each a call of a fixed-width
/// builtin over a statically known interval and the `Set` that binds its
/// `val`. Executed in full it has the effect of the instructions it
/// covers, and it charges their steps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FieldRun {
    /// The general instruction the run's head replaced.
    pub(crate) head: Instr,
    /// `None` when every endpoint is a constant; else endpoints are
    /// offsets from this expression (the first field's left endpoint),
    /// evaluated once.
    pub(crate) base: Option<ExprId>,
    /// A leading literal match.
    pub(crate) lit: Option<RunLit>,
    /// The run's fields: `Program::fields[first..first + count]`.
    pub(crate) first: u32,
    pub(crate) count: u32,
    /// The largest right endpoint: the run is in bounds when `base + reach`
    /// is at most the frame's length.
    pub(crate) reach: i64,
    /// Instructions the run covers, its head included.
    pub(crate) instrs: u32,
}

impl FieldRun {
    /// The steps the covered instructions charge: one per instruction,
    /// and one more per field for the builtin's call.
    pub(crate) fn steps(&self) -> u64 {
        u64::from(self.instrs) + u64::from(self.count)
    }
}

/// The literal at the head of a [`FieldRun`], at constant offsets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunLit {
    pub(crate) lit: LitSpan,
    pub(crate) lo: i64,
    pub(crate) hi: i64,
    /// Result slot.
    pub(crate) slot: u16,
}

/// One field of a [`FieldRun`]: `nt[lo, hi] {attr = nt.val}`, the
/// endpoints relative to the run's base.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Field {
    pub(crate) nt: NtId,
    pub(crate) builtin: Builtin,
    /// Bytes the builtin reads: its fixed width.
    pub(crate) width: u32,
    pub(crate) lo: i64,
    pub(crate) hi: i64,
    /// Result slot of the call.
    pub(crate) slot: u16,
    /// The attribute the `Set` binds, and its frame slot (filled in by
    /// the `layout` module, like the `Set`'s own).
    pub(crate) attr: Sym,
    pub(crate) attr_slot: u16,
}

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
/// first alternative's sets read `B`, the nested `R` and constants, the
/// second's constants only, with no operator that can be undefined, and
/// both alternatives set the same attributes, once each.
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
    /// The terminator's literal, at its pc, and the sets after it.
    pub(crate) lit: RunLit,
    pub(crate) lit_pc: u32,
    pub(crate) lit_sets: u8,
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

/// One case of a compiled switch.
#[derive(Clone, Copy, Debug)]
pub struct PCase {
    /// Guard (`None` for the default case).
    pub cond: Option<ExprId>,
    /// Case nonterminal.
    pub nt: NtId,
    /// Left interval endpoint.
    pub lo: ExprId,
    /// Right interval endpoint.
    pub hi: ExprId,
}

/// A compiled expression. The structural mirror of [`CExpr`] with all
/// `Box`es replaced by pool ids and term references narrowed to `u16`
/// slots; every variant is `Copy`.
#[derive(Clone, Copy, Debug)]
pub enum BExpr {
    /// Integer literal.
    Num(i64),
    /// Binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// Ternary conditional.
    Cond(ExprId, ExprId, ExprId),
    /// `EOI` of the current rule's input.
    Eoi,
    /// A local attribute or loop variable.
    Local {
        /// Its symbol.
        sym: Sym,
        /// The frame slot holding it at this read, or [`NO_SLOT`] when the
        /// frame does not bind it yet and it is inherited from the
        /// invoking alternative.
        slot: u16,
    },
    /// `B.id` resolved to a sibling slot.
    NtAttr {
        /// Sibling result slot.
        slot: u16,
        /// Expected nonterminal.
        nt: NtId,
        /// Attribute symbol.
        attr: Sym,
        /// The attribute's slot in `nt`'s nodes.
        attr_slot: u16,
    },
    /// `B(e).id` resolved to a sibling array slot.
    ElemAttr {
        /// Sibling array slot.
        slot: u16,
        /// Expected element nonterminal.
        nt: NtId,
        /// Element index expression.
        index: ExprId,
        /// Attribute symbol.
        attr: Sym,
        /// The attribute's slot in `nt`'s nodes.
        attr_slot: u16,
    },
    /// `B.id` resolved through the invoking-alternative chain.
    OuterAttr {
        /// Nonterminal to search for.
        nt: NtId,
        /// Attribute symbol.
        attr: Sym,
        /// The attribute's slot in `nt`'s nodes.
        attr_slot: u16,
    },
    /// `B(e).id` resolved through the invoking-alternative chain.
    OuterElem {
        /// Element nonterminal to search for.
        nt: NtId,
        /// Element index expression.
        index: ExprId,
        /// Attribute symbol.
        attr: Sym,
        /// The attribute's slot in `nt`'s nodes.
        attr_slot: u16,
    },
    /// Existential scan over a sibling array slot (or the parent chain
    /// when `slot` is `None`).
    Exists {
        /// Bound variable.
        var: Sym,
        /// Frame slot of the bound variable.
        var_slot: u16,
        /// Sibling array slot, if the array is a sibling.
        slot: Option<u16>,
        /// Element nonterminal.
        nt: NtId,
        /// Per-element condition.
        cond: ExprId,
        /// Result when an element matches.
        then: ExprId,
        /// Result when none matches.
        els: ExprId,
    },
}

/// Pre-sizing hints for the VM's per-parse allocations (see
/// [`Program::size_hints`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeHints {
    /// Frame-stack capacity (static call-graph nesting plus slack).
    pub frames: usize,
    /// Arena node-pool capacity.
    pub nodes: usize,
    /// Arena builtin-record capacity.
    pub builtins: usize,
    /// Arena leaf-pool capacity.
    pub leaves: usize,
    /// Arena child-id pool capacity.
    pub children: usize,
    /// Arena shift-record capacity.
    pub shifts: usize,
}

/// A checked grammar lowered to flat bytecode. Build one with [`compile`];
/// execute it with [`crate::interp::vm::VmParser`].
#[derive(Debug)]
pub struct Program {
    pub(crate) rules: Vec<PRule>,
    pub(crate) alts: Vec<PAlt>,
    pub(crate) code: Vec<Instr>,
    pub(crate) exprs: Vec<BExpr>,
    pub(crate) cases: Vec<PCase>,
    pub(crate) lits: Vec<u8>,
    pub(crate) runs: Vec<FieldRun>,
    pub(crate) fields: Vec<Field>,
    pub(crate) scans: Vec<ByteScan>,
    pub(crate) nt_table: Arc<NtTable>,
    pub(crate) start: NtId,
}

/// Lowers a checked grammar into a flat bytecode [`Program`].
///
/// Every term becomes one instruction. Then each maximal run of builtin
/// fields in an alternative becomes an [`Instr::Fields`] as well: a run
/// is an optional literal at constant offsets followed by at least one
/// `B[lo, hi] {x = B.val}` pair, where `B` is a fixed-width builtin and
/// each endpoint folds to a constant `c` or to `base + c`. `base` is the
/// first field's left endpoint; `B.end` of an earlier field of the run
/// folds too, which covers the `B[n]` sequential sugar. Each field's
/// interval must hold the builtin's width, so once the run is in bounds
/// every field decodes.
///
/// Last, the first instruction of a rule of the [`ByteScan`] shape becomes
/// an [`Instr::Scan`]. The shape is matched on the compiled instructions,
/// whatever the rule is named.
pub fn compile(g: &Grammar) -> Program {
    let mut c = Compiler {
        g,
        out: Program {
            rules: Vec::with_capacity(g.nt_count()),
            alts: Vec::new(),
            code: Vec::new(),
            exprs: Vec::new(),
            cases: Vec::new(),
            lits: Vec::new(),
            runs: Vec::new(),
            fields: Vec::new(),
            scans: Vec::new(),
            nt_table: Arc::new(NtTable {
                names: g.rules().iter().map(|r| r.name.clone()).collect(),
                syms: g.rules().iter().map(|r| r.name_sym).collect(),
            }),
            start: g.start_nt(),
        },
    };
    for (nt, rule) in g.rules().iter().enumerate() {
        let kind = match &rule.body {
            CRuleBody::Builtin(b) => PRuleKind::Builtin(*b),
            CRuleBody::Blackbox(idx) => PRuleKind::Blackbox(*idx as u32),
            CRuleBody::Alts(alts) => {
                let first = c.out.alts.len() as u32;
                for alt in alts {
                    c.compile_alt(alt);
                }
                let count = alts.len() as u32;
                if let Some(scan) = c.byte_scan(NtId(nt as u32), first, count) {
                    let id = c.out.scans.len() as u32;
                    c.out.scans.push(scan);
                    c.out.code[c.out.alts[first as usize].first as usize] =
                        Instr::Scan { scan: id };
                }
                PRuleKind::Alts { first, count }
            }
        };
        c.out.rules.push(PRule { kind, is_local: rule.is_local });
    }
    c.out
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

struct Compiler<'g> {
    g: &'g Grammar,
    out: Program,
}

/// An interval endpoint folded at compile time: `(based, c)` is
/// `base + c` when `based`, else the constant `c`.
type Folded = (bool, i64);

impl Compiler<'_> {
    fn compile_alt(&mut self, alt: &CAlt) {
        // Lower the terms into a scratch vector first: expression lowering
        // appends to the shared pools, so instruction emission must not be
        // interleaved with reading `self.out.code`.
        let mut instrs = Vec::with_capacity(alt.terms.len());
        for term in &alt.terms {
            let slot = term.orig_index as u16;
            let instr = match &term.kind {
                CTermKind::Terminal { bytes, interval } => {
                    let lit = self.lit(bytes);
                    let (lo, hi) = self.interval(interval);
                    Instr::Match { lit, lo, hi, slot }
                }
                CTermKind::Symbol { nt, interval } => {
                    let (lo, hi) = self.interval(interval);
                    Instr::Call { nt: *nt, lo, hi, slot }
                }
                CTermKind::AttrDef { attr, expr } => {
                    Instr::Set { attr: *attr, attr_slot: NO_SLOT, expr: self.expr(expr) }
                }
                CTermKind::Predicate { expr } => Instr::Guard { expr: self.expr(expr) },
                CTermKind::Array { var, from, to, nt, interval } => {
                    let from = self.expr(from);
                    let to = self.expr(to);
                    let (lo, hi) = self.interval(interval);
                    Instr::Loop { var: *var, var_slot: NO_SLOT, from, to, nt: *nt, lo, hi, slot }
                }
                CTermKind::Star { nt, interval } => {
                    let (lo, hi) = self.interval(interval);
                    Instr::Star { nt: *nt, lo, hi, slot }
                }
                CTermKind::Switch { cases } => {
                    let first = self.out.cases.len() as u32;
                    // Reserve the span, then fill it: case lowering appends
                    // to the expression pool only.
                    let lowered: Vec<PCase> = cases.iter().map(|case| self.case(case)).collect();
                    self.out.cases.extend(lowered);
                    Instr::Switch { first, count: cases.len() as u16, slot }
                }
            };
            instrs.push(instr);
        }
        let mut i = 0;
        while i < instrs.len() {
            match self.field_run(&instrs[i..]) {
                Some(run) => {
                    let id = self.out.runs.len() as u32;
                    self.out.runs.push(run);
                    instrs[i] = Instr::Fields { run: id };
                    i += run.instrs as usize;
                }
                None => i += 1,
            }
        }
        let first = self.out.code.len() as u32;
        let count = instrs.len() as u32;
        self.out.code.extend(instrs);
        self.out.alts.push(PAlt { first, count, n_slots: alt.n_terms as u16 });
    }

    /// The longest field run at the start of `code`, if there is one (see
    /// [`compile`]); its fields are appended to the field pool.
    fn field_run(&mut self, code: &[Instr]) -> Option<FieldRun> {
        let mut at = 0;
        let mut lit = None;
        if let Instr::Match { lit: span, lo, hi, slot } = code[0] {
            let ((false, lo), (false, hi)) = (self.fold(lo, None, &[])?, self.fold(hi, None, &[])?)
            else {
                return None;
            };
            if lo < 0 || hi.checked_sub(lo)? < i64::from(span.len) {
                return None;
            }
            lit = Some(RunLit { lit: span, lo, hi, slot });
            at = 1;
        }
        let mut base = None;
        let mut fields: Vec<Field> = Vec::new();
        while let Some(field) = self.field(code, at, lit.is_some(), &mut base, &fields) {
            fields.push(field);
            at += 2;
        }
        if fields.is_empty() {
            return None;
        }
        let reach = fields.iter().map(|f| f.hi).chain(lit.map(|l| l.hi)).max()?;
        let first = self.out.fields.len() as u32;
        self.out.fields.extend_from_slice(&fields);
        Some(FieldRun {
            head: code[0],
            base,
            lit,
            first,
            count: fields.len() as u32,
            reach,
            instrs: at as u32,
        })
    }

    /// The field at `code[at..]` that extends a run of `fields`, if the
    /// instructions there are one. The first field of a run without a
    /// literal fixes its `base`: none if its left endpoint is a constant,
    /// else that endpoint.
    fn field(
        &self,
        code: &[Instr],
        at: usize,
        has_lit: bool,
        base: &mut Option<ExprId>,
        fields: &[Field],
    ) -> Option<Field> {
        let Instr::Call { nt, lo, hi, slot } = *code.get(at)? else { return None };
        let CRuleBody::Builtin(builtin) = self.g.rule(nt).body else { return None };
        let width = builtin.fixed_width()? as i64;
        let Instr::Set { attr, expr, .. } = *code.get(at + 1)? else { return None };
        let BExpr::NtAttr { slot: read, nt: of, attr: wellknown::VAL, .. } =
            self.out.exprs[expr.0 as usize]
        else {
            return None;
        };
        if (read, of) != (slot, nt) {
            return None;
        }
        if fields.is_empty() && !has_lit && self.fold(lo, None, fields).is_none() {
            *base = Some(lo);
        }
        let based = base.is_some();
        let (lo, hi) = match (self.fold(lo, *base, fields)?, self.fold(hi, *base, fields)?) {
            ((lb, lo), (hb, hi)) if lb == based && hb == based => (lo, hi),
            _ => return None,
        };
        if lo < 0 || hi.checked_sub(lo)? < width {
            return None;
        }
        let width = width as u32;
        Some(Field { nt, builtin, width, lo, hi, slot, attr, attr_slot: NO_SLOT })
    }

    /// Folds endpoint `e` of a field run with `base` that extends
    /// `fields` (see [`Folded`]): constants, sums, differences with a
    /// constant, `B.end` of one of `fields` (its left endpoint plus its
    /// width), and, in the first field, the base expression itself. Later
    /// fields may not read the base again: a `Set` of the run may have
    /// changed what it reads.
    fn fold(&self, e: ExprId, base: Option<ExprId>, fields: &[Field]) -> Option<Folded> {
        if fields.is_empty() && base.is_some_and(|b| self.same_expr(e, b)) {
            return Some((true, 0));
        }
        match self.out.exprs[e.0 as usize] {
            BExpr::Num(n) => Some((false, n)),
            BExpr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
                let ((ab, a), (bb, b)) = (self.fold(a, base, fields)?, self.fold(b, base, fields)?);
                match op {
                    BinOp::Add if !(ab && bb) => Some((ab || bb, a.checked_add(b)?)),
                    BinOp::Sub if !bb => Some((ab, a.checked_sub(b)?)),
                    _ => None,
                }
            }
            BExpr::NtAttr { slot, nt, attr: wellknown::END, .. } => {
                let f = fields.iter().find(|f| (f.slot, f.nt) == (slot, nt))?;
                Some((base.is_some(), f.lo + i64::from(f.width)))
            }
            _ => None,
        }
    }

    /// Whether `a` and `b` are the same expression (structurally; only the
    /// forms an endpoint repeats are compared).
    fn same_expr(&self, a: ExprId, b: ExprId) -> bool {
        match (self.out.exprs[a.0 as usize], self.out.exprs[b.0 as usize]) {
            (BExpr::Num(x), BExpr::Num(y)) => x == y,
            (BExpr::Eoi, BExpr::Eoi) => true,
            (BExpr::Local { sym: x, .. }, BExpr::Local { sym: y, .. }) => x == y,
            (BExpr::Bin(o1, a1, b1), BExpr::Bin(o2, a2, b2)) => {
                o1 == o2 && self.same_expr(a1, a2) && self.same_expr(b1, b2)
            }
            (
                BExpr::NtAttr { slot: s1, nt: n1, attr: a1, .. },
                BExpr::NtAttr { slot: s2, nt: n2, attr: a2, .. },
            ) => (s1, n1, a1) == (s2, n2, a2),
            _ => false,
        }
    }

    /// The [`ByteScan`] that rule `nt`, with alternatives `first..first +
    /// count` compiled, is an instance of, if it is one.
    fn byte_scan(&self, nt: NtId, first: u32, count: u32) -> Option<ByteScan> {
        if count != 2 || self.g.rule(nt).is_local {
            return None;
        }
        let [body, term] = [first, first + 1].map(|a| {
            let alt = self.out.alts[a as usize];
            (alt.first, &self.out.code[alt.first as usize..(alt.first + alt.count) as usize])
        });
        let Some(&head @ Instr::Call { nt: byte, lo, hi, slot: byte_slot }) = body.1.first() else {
            return None;
        };
        let CRuleBody::Builtin(builtin) = self.g.rule(byte).body else { return None };
        let unit = ((false, 0), (false, 1));
        if builtin.fixed_width() != Some(1)
            || (self.fold(lo, None, &[])?, self.fold(hi, None, &[])?) != unit
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
        let Some(&Instr::Match { lit, lo, hi, slot }) = term.1.first() else { return None };
        let ((false, lo), (false, hi)) = (self.fold(lo, None, &[])?, self.fold(hi, None, &[])?)
        else {
            return None;
        };
        if lo < 0 || hi.checked_sub(lo)? < i64::from(lit.len) {
            return None;
        }
        let sets = &body.1[2 + guards.len()..];
        let attrs = set_attrs(sets)?;
        if set_attrs(&term.1[1..])? != attrs || attrs.len() > SCAN_WIDTH - 3 {
            return None;
        }
        let reads_ok = |instrs: &[Instr], byte, inner| {
            instrs.iter().all(|i| match *i {
                Instr::Set { expr, .. } => self.scan_expr(expr, byte, inner, true),
                _ => false,
            })
        };
        if !guards.iter().all(|&g| self.scan_expr(g, Some(byte_slot), None, false))
            || !reads_ok(sets, Some(byte_slot), Some((self_slot, &attrs[..])))
            || !reads_ok(&term.1[1..], None, None)
        {
            return None;
        }
        let mut scan = ByteScan {
            head,
            byte,
            byte_slot,
            self_slot,
            guards: guards.len() as u8,
            sets: sets.len() as u8,
            stop: [0; 256],
            lit: RunLit { lit, lo, hi, slot },
            lit_pc: term.0,
            lit_sets: (term.1.len() - 1) as u8,
        };
        let mut stop = [scan.guards; 256];
        for (value, stop) in stop.iter_mut().enumerate() {
            for (q, &g) in guards.iter().enumerate() {
                match self.out.scan_value(&scan, g, value as i64, &[]) {
                    Some(0) => *stop = q as u8,
                    None => *stop = q as u8 | GUARD_UNDEFINED,
                    Some(_) => continue,
                }
                break;
            }
        }
        scan.stop = stop;
        Some(scan)
    }

    /// Whether `e` is an expression a [`ByteScan`] can evaluate: numbers,
    /// operators and conditionals over attributes of `B` (at result slot
    /// `byte`) and of the nested rule (at the slot in `inner`, reading its
    /// `EOI`, `start`, `end` or one of the listed attributes); `total`
    /// rules out the operators that can be undefined (`/`, `%`, `<<`,
    /// `>>`).
    fn scan_expr(
        &self,
        e: ExprId,
        byte: Option<u16>,
        inner: Option<(u16, &[Sym])>,
        total: bool,
    ) -> bool {
        let ok = |e| self.scan_expr(e, byte, inner, total);
        match self.out.exprs[e.0 as usize] {
            BExpr::Num(_) => true,
            BExpr::Bin(op, a, b) => {
                !(total && matches!(op, BinOp::Div | BinOp::Mod | BinOp::Shl | BinOp::Shr))
                    && ok(a)
                    && ok(b)
            }
            BExpr::Cond(c, t, f) => ok(c) && ok(t) && ok(f),
            BExpr::NtAttr { slot, attr, .. } if Some(slot) == byte => {
                matches!(attr, wellknown::VAL | wellknown::START | wellknown::END | wellknown::EOI)
            }
            BExpr::NtAttr { slot, attr, .. } => inner.is_some_and(|(s, attrs)| {
                s == slot
                    && (attrs.contains(&attr)
                        || matches!(attr, wellknown::START | wellknown::END | wellknown::EOI))
            }),
            _ => false,
        }
    }

    fn case(&mut self, case: &CSwitchCase) -> PCase {
        let cond = case.cond.as_ref().map(|c| self.expr(c));
        let (lo, hi) = self.interval(&case.interval);
        PCase { cond, nt: case.nt, lo, hi }
    }

    fn lit(&mut self, bytes: &[u8]) -> LitSpan {
        let start = self.out.lits.len() as u32;
        self.out.lits.extend_from_slice(bytes);
        LitSpan { start, len: bytes.len() as u32 }
    }

    fn interval(&mut self, iv: &CInterval) -> (ExprId, ExprId) {
        (self.expr(&iv.lo), self.expr(&iv.hi))
    }

    fn push_expr(&mut self, e: BExpr) -> ExprId {
        let id = ExprId(self.out.exprs.len() as u32);
        self.out.exprs.push(e);
        id
    }

    fn expr(&mut self, e: &CExpr) -> ExprId {
        let lowered = match e {
            CExpr::Num(n) => BExpr::Num(*n),
            CExpr::Eoi => BExpr::Eoi,
            CExpr::Local(sym) => BExpr::Local { sym: *sym, slot: NO_SLOT },
            CExpr::Bin(op, a, b) => {
                let a = self.expr(a);
                let b = self.expr(b);
                BExpr::Bin(*op, a, b)
            }
            CExpr::Cond(c, t, f) => {
                let c = self.expr(c);
                let t = self.expr(t);
                let f = self.expr(f);
                BExpr::Cond(c, t, f)
            }
            CExpr::NtAttr { term, nt, attr } => {
                BExpr::NtAttr { slot: *term as u16, nt: *nt, attr: *attr, attr_slot: NO_SLOT }
            }
            CExpr::ElemAttr { term, nt, index, attr } => {
                let index = self.expr(index);
                BExpr::ElemAttr {
                    slot: *term as u16,
                    nt: *nt,
                    index,
                    attr: *attr,
                    attr_slot: NO_SLOT,
                }
            }
            CExpr::OuterAttr { nt, attr } => {
                BExpr::OuterAttr { nt: *nt, attr: *attr, attr_slot: NO_SLOT }
            }
            CExpr::OuterElem { nt, index, attr } => {
                let index = self.expr(index);
                BExpr::OuterElem { nt: *nt, index, attr: *attr, attr_slot: NO_SLOT }
            }
            CExpr::Exists { var, term, nt, cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.expr(then);
                let els = self.expr(els);
                BExpr::Exists {
                    var: *var,
                    var_slot: NO_SLOT,
                    slot: term.map(|t| t as u16),
                    nt: *nt,
                    cond,
                    then,
                    els,
                }
            }
        };
        self.push_expr(lowered)
    }
}

impl Program {
    /// The start nonterminal the program was compiled for.
    pub fn start_nt(&self) -> NtId {
        self.start
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of instructions across all alternatives.
    pub fn instr_count(&self) -> usize {
        self.code.len()
    }

    /// Pre-sizing hints for the VM's per-parse allocations, derived from
    /// compile-time program statistics: the frame stack from the static
    /// call-graph nesting, the arena pools from the instruction count.
    /// Hints are capacities, not limits — deep recursion and large inputs
    /// still grow the vectors; the clamps keep small grammars from
    /// over-allocating per parse.
    pub fn size_hints(&self) -> SizeHints {
        let nesting = self.static_nesting();
        let instrs = self.code.len();
        SizeHints {
            frames: (nesting + 8).min(128),
            nodes: instrs.clamp(32, 512),
            builtins: instrs.clamp(32, 512),
            leaves: instrs.clamp(32, 512),
            children: (2 * instrs).clamp(64, 1024),
            shifts: instrs.clamp(32, 512),
        }
    }

    /// Longest acyclic call chain from the start rule (recursive cycles
    /// contribute one traversal; their true depth is input-dependent).
    fn static_nesting(&self) -> usize {
        fn depth_of(p: &Program, nt: usize, memo: &mut [u32], on_path: &mut [bool]) -> u32 {
            if memo[nt] != u32::MAX {
                return memo[nt];
            }
            if on_path[nt] {
                return 0;
            }
            on_path[nt] = true;
            let mut best = 0;
            if let PRuleKind::Alts { first, count } = p.rules[nt].kind {
                for alt in &p.alts[first as usize..(first + count) as usize] {
                    for instr in &p.code[alt.first as usize..(alt.first + alt.count) as usize] {
                        match p.unfused(*instr) {
                            Instr::Call { nt: c, .. }
                            | Instr::Loop { nt: c, .. }
                            | Instr::Star { nt: c, .. } => {
                                best = best.max(1 + depth_of(p, c.0 as usize, memo, on_path));
                            }
                            Instr::Switch { first, count, .. } => {
                                for case in
                                    &p.cases[first as usize..(first + count as u32) as usize]
                                {
                                    best = best
                                        .max(1 + depth_of(p, case.nt.0 as usize, memo, on_path));
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            on_path[nt] = false;
            memo[nt] = best;
            best
        }
        let mut memo = vec![u32::MAX; self.rules.len()];
        let mut on_path = vec![false; self.rules.len()];
        1 + depth_of(self, self.start.0 as usize, &mut memo, &mut on_path) as usize
    }

    /// `instr` with a field run's or byte scan's head in place of it: the
    /// term the instruction at its pc was compiled from.
    pub(crate) fn unfused(&self, instr: Instr) -> Instr {
        match instr {
            Instr::Fields { run } => self.runs[run as usize].head,
            Instr::Scan { scan } => self.scans[scan as usize].head,
            other => other,
        }
    }

    /// The value of expression `e` of byte scan `scan` at a level whose
    /// byte is `byte` and whose nested rule's node holds `inner` (its
    /// values as stored; empty on the terminator level), or `None` when
    /// undefined. `B` read one byte at offset 0 of the level, and the
    /// nested node lies at offset 1, so its `start` and `end` read one
    /// higher (rule T-NTSucc).
    pub(crate) fn scan_value(
        &self,
        scan: &ByteScan,
        e: ExprId,
        byte: i64,
        inner: &[i64],
    ) -> Option<i64> {
        let value = |e| self.scan_value(scan, e, byte, inner);
        Some(match self.exprs[e.0 as usize] {
            BExpr::Num(n) => n,
            BExpr::Bin(op, a, b) => eval_binop(op, value(a)?, value(b)?)?,
            BExpr::Cond(c, t, f) => value(if value(c)? != 0 { t } else { f })?,
            BExpr::NtAttr { slot, attr, .. } if slot == scan.byte_slot => match attr {
                wellknown::VAL => byte,
                wellknown::START => 0,
                _ => 1,
            },
            BExpr::NtAttr { attr_slot, .. } => {
                let v = *inner.get(attr_slot as usize)?;
                if matches!(attr_slot, START_SLOT | END_SLOT) {
                    v + 1
                } else {
                    v
                }
            }
            _ => return None,
        })
    }

    /// The shared nonterminal name table (also carried by every
    /// [`crate::arena::TreeArena`] this program produces).
    pub(crate) fn nt_table(&self) -> Arc<NtTable> {
        self.nt_table.clone()
    }

    fn nt_name(&self, nt: NtId) -> &str {
        &self.nt_table.names[nt.0 as usize]
    }

    /// Renders a human-readable listing of the whole program.
    ///
    /// The output is deterministic for a given grammar; the snapshot tests
    /// pin it so that lowering changes show up as reviewable diffs.
    pub fn disassemble(&self, g: &Grammar) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "; program `{}`: {} rules, {} alts, {} instrs, {} exprs, {} cases, {} lit bytes",
            g.nt_name(self.start),
            self.rules.len(),
            self.alts.len(),
            self.code.len(),
            self.exprs.len(),
            self.cases.len(),
            self.lits.len()
        );
        for (i, rule) in self.rules.iter().enumerate() {
            let nt = NtId(i as u32);
            let local = if rule.is_local { " (local)" } else { "" };
            match rule.kind {
                PRuleKind::Builtin(b) => {
                    let _ = writeln!(s, "rule {i} {}{local} := builtin {b}", self.nt_name(nt));
                }
                PRuleKind::Blackbox(idx) => {
                    let name =
                        g.blackboxes().get(idx as usize).map(|bb| bb.name.as_str()).unwrap_or("?");
                    let _ = writeln!(
                        s,
                        "rule {i} {}{local} := blackbox #{idx} ({name})",
                        self.nt_name(nt)
                    );
                }
                PRuleKind::Alts { first, count } => {
                    let _ = writeln!(s, "rule {i} {}{local}:", self.nt_name(nt));
                    for a in first..first + count {
                        let alt = self.alts[a as usize];
                        let _ = writeln!(s, "  alt {} [slots={}]:", a - first, alt.n_slots);
                        for pc in alt.first..alt.first + alt.count {
                            let _ = writeln!(
                                s,
                                "    {pc:04}  {}",
                                self.render_instr(g, self.code[pc as usize])
                            );
                        }
                    }
                }
            }
        }
        s
    }

    fn render_instr(&self, g: &Grammar, instr: Instr) -> String {
        match instr {
            Instr::Match { lit, lo, hi, slot } => {
                let bytes = &self.lits[lit.start as usize..(lit.start + lit.len) as usize];
                format!(
                    "match {}[{}, {}] -> s{slot}",
                    crate::interp::preview(bytes),
                    self.render_expr(g, lo),
                    self.render_expr(g, hi)
                )
            }
            Instr::Call { nt, lo, hi, slot } => format!(
                "call {}[{}, {}] -> s{slot}",
                self.nt_name(nt),
                self.render_expr(g, lo),
                self.render_expr(g, hi)
            ),
            Instr::Set { attr, expr, .. } => {
                format!("set {} = {}", g.attr_name(attr), self.render_expr(g, expr))
            }
            Instr::Guard { expr } => format!("guard {}", self.render_expr(g, expr)),
            Instr::Loop { var, from, to, nt, lo, hi, slot, .. } => format!(
                "loop {} = {} to {} do {}[{}, {}] -> s{slot}",
                g.attr_name(var),
                self.render_expr(g, from),
                self.render_expr(g, to),
                self.nt_name(nt),
                self.render_expr(g, lo),
                self.render_expr(g, hi)
            ),
            Instr::Star { nt, lo, hi, slot } => format!(
                "star {}[{}, {}] -> s{slot}",
                self.nt_name(nt),
                self.render_expr(g, lo),
                self.render_expr(g, hi)
            ),
            Instr::Switch { first, count, slot } => {
                let mut s = format!("switch -> s{slot}");
                for case in &self.cases[first as usize..(first + count as u32) as usize] {
                    let target = format!(
                        "{}[{}, {}]",
                        self.nt_name(case.nt),
                        self.render_expr(g, case.lo),
                        self.render_expr(g, case.hi)
                    );
                    match case.cond {
                        Some(c) => {
                            let _ = write!(
                                s,
                                "\n            case {} => {target}",
                                self.render_expr(g, c)
                            );
                        }
                        None => {
                            let _ = write!(s, "\n            default => {target}");
                        }
                    }
                }
                s
            }
            Instr::Fields { run } => {
                let r = self.runs[run as usize];
                let mut s = String::from("fields");
                if let Some(base) = r.base {
                    let _ = write!(s, " from {}:", self.render_expr(g, base));
                }
                let mut sep = " ";
                if let Some(l) = r.lit {
                    let bytes =
                        &self.lits[l.lit.start as usize..(l.lit.start + l.lit.len) as usize];
                    let lit = crate::interp::preview(bytes);
                    let _ = write!(s, " {lit}[{}, {}] -> s{}", l.lo, l.hi, l.slot);
                    sep = ", ";
                }
                for f in &self.fields[r.first as usize..(r.first + r.count) as usize] {
                    let (nt, attr) = (self.nt_name(f.nt), g.attr_name(f.attr));
                    let _ = write!(s, "{sep}{nt}[{}, {}]->{attr}", f.lo, f.hi);
                    sep = ", ";
                }
                s
            }
            Instr::Scan { scan } => {
                let sc = &self.scans[scan as usize];
                let l = sc.lit;
                let lit = &self.lits[l.lit.start as usize..(l.lit.start + l.lit.len) as usize];
                let (byte, lit) = (self.nt_name(sc.byte), crate::interp::preview(lit));
                format!("scan {byte}[0, 1] until {lit}[{}, {}]", l.lo, l.hi)
            }
        }
    }

    fn render_expr(&self, g: &Grammar, e: ExprId) -> String {
        match self.exprs[e.0 as usize] {
            BExpr::Num(n) => n.to_string(),
            BExpr::Eoi => "EOI".into(),
            BExpr::Local { sym, .. } => g.attr_name(sym).to_owned(),
            BExpr::Bin(op, a, b) => {
                format!("({} {op} {})", self.render_expr(g, a), self.render_expr(g, b))
            }
            BExpr::Cond(c, t, f) => format!(
                "({} ? {} : {})",
                self.render_expr(g, c),
                self.render_expr(g, t),
                self.render_expr(g, f)
            ),
            BExpr::NtAttr { slot, nt, attr, .. } => {
                format!("s{slot}:{}.{}", self.nt_name(nt), g.attr_name(attr))
            }
            BExpr::ElemAttr { slot, nt, index, attr, .. } => format!(
                "s{slot}:{}({}).{}",
                self.nt_name(nt),
                self.render_expr(g, index),
                g.attr_name(attr)
            ),
            BExpr::OuterAttr { nt, attr, .. } => {
                format!("outer:{}.{}", self.nt_name(nt), g.attr_name(attr))
            }
            BExpr::OuterElem { nt, index, attr, .. } => format!(
                "outer:{}({}).{}",
                self.nt_name(nt),
                self.render_expr(g, index),
                g.attr_name(attr)
            ),
            BExpr::Exists { var, slot, nt, cond, then, els, .. } => {
                let arr = match slot {
                    Some(sl) => format!("s{sl}:{}", self.nt_name(nt)),
                    None => format!("outer:{}", self.nt_name(nt)),
                };
                format!(
                    "(exists {} in {arr}. {} ? {} : {})",
                    g.attr_name(var),
                    self.render_expr(g, cond),
                    self.render_expr(g, then),
                    self.render_expr(g, els)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_grammar;

    fn fig2() -> Grammar {
        parse_grammar(
            r#"
            S -> H[0, 8] Data[H.offset, H.offset + H.length];
            H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
            Int := u32le;
            Data := bytes;
            "#,
        )
        .unwrap()
    }

    #[test]
    fn compiles_fig2_to_flat_program() {
        let g = fig2();
        let p = compile(&g);
        assert_eq!(p.rule_count(), 4);
        // S has one alternative with two calls; H has four terms.
        assert_eq!(p.alts.len(), 2);
        assert_eq!(p.instr_count(), 6);
        assert!(matches!(p.rules[g.nt_id("Int").unwrap().0 as usize].kind, PRuleKind::Builtin(_)));
    }

    #[test]
    fn disassembly_is_deterministic_and_readable() {
        let g = fig2();
        let p = compile(&g);
        let d1 = p.disassemble(&g);
        let d2 = compile(&g).disassemble(&g);
        assert_eq!(d1, d2);
        assert!(d1.contains("call H[0, 8] -> s0"), "got:\n{d1}");
        assert!(d1.contains("set offset = s0:Int.val"), "got:\n{d1}");
        assert!(d1.contains(":= builtin u32le"), "got:\n{d1}");
    }
}
