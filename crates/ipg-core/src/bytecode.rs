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
//! * records: each maximal run of literals, builtin fields, guards and
//!   sets in an alternative that holds a builtin field and one more
//!   instruction, and whose endpoints, guards and sets fold to affine
//!   forms, is also compiled to one [`Instr::Record`] at its head's
//!   pc, which decodes the run in one pass (see [`compile`]);
//! * byte scans: a self-recursive byte rule (`R -> B[0, 1] guard… R[1,
//!   EOI] set… / "t"[lo, hi] set…`, `B` a one-byte builtin) has its
//!   first instruction compiled to one [`Instr::Scan`] besides, which runs
//!   every level of the recursion down to the terminator in one pass (see
//!   [`compile`]);
//! * chains: a right-recursive list rule (`X -> A[0, EOI] X[A.end, EOI] /
//!   T`) has its head compiled to one [`Instr::Chain`] besides, which runs
//!   the list's levels in the rule's own frame, and decodes an element
//!   whose one alternative is one record with that [`Record`] in place
//!   (see [`compile`]).
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
use crate::layout::{END_SLOT, EOI_SLOT, START_SLOT};
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
    /// A record (`Record`) in place of its head, the first instruction
    /// of the run it decodes: decodes the whole run in one pass, else runs
    /// the head it replaced. The instructions the record covers follow it
    /// unchanged, for that case.
    Record {
        /// Index of the record in the program's record pool.
        rec: u32,
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
    /// A chain (`ListChain`) in place of its head, the first instruction
    /// of its list rule: runs every level of the list in the rule's frame,
    /// a level's element through its [`Record`] when it has one. The
    /// open root of a streaming session runs the head it replaced.
    Chain {
        /// Index of the chain in the program's chain pool.
        chain: u32,
    },
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
    /// Result slots of the alternative.
    pub(crate) n_slots: u16,
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
    /// The register it reads: set by [`compile`] for a field, a sibling or
    /// a scan's byte, by `layout` for an attribute.
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
    pub(crate) scans: Vec<ByteScan>,
    pub(crate) scan_sets: Vec<ScanSet>,
    pub(crate) chains: Vec<ListChain>,
    pub(crate) records: Vec<Record>,
    pub(crate) rec_ops: Vec<RecOp>,
    pub(crate) loads: Vec<Load>,
    pub(crate) terms: Vec<Term>,
    pub(crate) nt_table: Arc<NtTable>,
    pub(crate) start: NtId,
}

/// Lowers a checked grammar into a flat bytecode [`Program`].
///
/// Every term becomes one instruction. Then the first instruction of a
/// rule of the [`ByteScan`] shape becomes an [`Instr::Scan`]. Then each
/// maximal run of literals, builtin fields, guards and sets in an
/// alternative becomes a [`Record`] at its head: a run's endpoints,
/// guards and sets must fold to `Form`s over constants, the frame's
/// `EOI`, `start`, `end` and the attributes the alternative set before,
/// the attributes of the run's fields, and those of siblings before the
/// run; its builtins must be of fixed width or `bytes`, and it must hold
/// a builtin field and one more instruction. Last, once every rule is
/// compiled, the first instruction of a rule of the [`ListChain`] shape
/// becomes an [`Instr::Chain`], which decodes its element with the
/// element rule's record when that covers the rule's one alternative.
/// Shapes are matched on the compiled instructions, whatever the rules are
/// named.
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
            scans: Vec::new(),
            scan_sets: Vec::new(),
            chains: Vec::new(),
            records: Vec::new(),
            rec_ops: Vec::new(),
            loads: Vec::new(),
            terms: Vec::new(),
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
                let width = node_width(alts);
                for alt in (first..first + count).filter(|_| width <= REC_REGS) {
                    c.records(NtId(nt as u32), c.out.alts[alt as usize], width as u16);
                }
                PRuleKind::Alts { first, count }
            }
        };
        c.out.rules.push(PRule { kind, is_local: rule.is_local });
    }
    for nt in (0..c.out.rules.len()).map(|i| NtId(i as u32)) {
        let Some(mut chain) = c.list_chain(nt) else { continue };
        chain.record = c.elem_record(chain.elem);
        let PRuleKind::Alts { first, .. } = c.out.rules[nt.0 as usize].kind else {
            unreachable!("a chain's rule has alternatives")
        };
        let id = c.out.chains.len() as u32;
        c.out.chains.push(chain);
        c.out.code[c.out.alts[first as usize].first as usize] = Instr::Chain { chain: id };
    }
    c.out
}

/// Whether `e` reads the frame's `EOI`.
fn is_eoi(e: BExpr) -> bool {
    matches!(e, BExpr::Eoi | BExpr::Local { sym: wellknown::EOI, .. })
}

/// The attribute slots of a node of a rule with alternatives `alts`:
/// `EOI`, `start`, `end`, then every other attribute they set (the
/// `layout` module numbers them alike).
fn node_width(alts: &[CAlt]) -> usize {
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

struct Compiler<'g> {
    g: &'g Grammar,
    out: Program,
}

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
        let first = self.out.code.len() as u32;
        let count = instrs.len() as u32;
        self.out.code.extend(instrs);
        self.out.alts.push(PAlt { first, count, n_slots: alt.n_terms as u16 });
    }

    /// The [`ByteScan`] that rule `nt`, with alternatives `first..first +
    /// count` compiled, is an instance of, if it is one.
    fn byte_scan(&mut self, nt: NtId, first: u32, count: u32) -> Option<ByteScan> {
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
        let first_set = first_set as u32;
        let mut scan = ByteScan {
            head,
            byte,
            byte_slot,
            self_slot,
            guards: guards.len() as u8,
            sets: n_sets,
            stop: [0; 256],
            lit,
            lit_lo: lo,
            lit_hi: hi,
            lit_pc,
            lit_sets: n_lit_sets,
            first_set,
        };
        let mut stop = [scan.guards; 256];
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
        scan.stop = stop;
        Some(scan)
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

    /// `e` as an [`Aff`] over what `reads` allows, if it is one, its terms
    /// pushed to the term pool.
    fn aff(&mut self, e: ExprId, reads: Reads) -> Option<Aff> {
        let lin = self.lin(e, reads)?;
        Some(self.push_aff(lin))
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
    fn list_chain(&self, nt: NtId) -> Option<ListChain> {
        let rule = &self.out.rules[nt.0 as usize];
        let PRuleKind::Alts { first, count: 2 } = rule.kind else { return None };
        let [body, tail] = [first, first + 1].map(|a| {
            let alt = self.out.alts[a as usize];
            &self.out.code[alt.first as usize..(alt.first + alt.count) as usize]
        });
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
    fn elem_record(&self, nt: NtId) -> Option<u32> {
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
    fn records(&mut self, nt: NtId, alt: PAlt, width: u16) {
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
    /// [`compile`]), its ops, loads and terms pushed to the pools, if the
    /// run is one. A run that is not leaves the pools as they were and
    /// gives where it ends: no run starting inside it is one either.
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
            n_slots: alt.n_slots,
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
                let (lo, hi) = (self.aff(lo, reads)?, self.aff(hi, reads)?);
                RecOp::Lit { lit, lo, hi, slot }
            }
            Instr::Call { nt, lo, hi, slot } => {
                let CRuleBody::Builtin(builtin) = self.g.rule(nt).body else { return None };
                let width = match builtin.fixed_width() {
                    Some(w) => Some(w as u32),
                    None if builtin == Builtin::Bytes => None,
                    None => return None,
                };
                let Reads::Record { fields, at, .. } = reads else { return None };
                let (lo, hi) = (self.aff(lo, reads)?, self.aff(hi, reads)?);
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

    /// `instr` with a record's, byte scan's or chain's head in place of
    /// it: the term the instruction at its pc was compiled from.
    pub(crate) fn unfused(&self, instr: Instr) -> Instr {
        match instr {
            Instr::Record { rec } => self.records[rec as usize].head,
            Instr::Scan { scan } => self.scans[scan as usize].head,
            Instr::Chain { chain } => self.chains[chain as usize].head,
            other => other,
        }
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
            Instr::Record { rec } => {
                let r = self.records[rec as usize];
                let mut s = String::from("record");
                for op in &self.rec_ops[r.first as usize..(r.first + r.count) as usize] {
                    let _ = write!(s, "\n            {}", self.render_op(g, *op));
                }
                s
            }
            Instr::Scan { scan } => {
                let sc = &self.scans[scan as usize];
                let lit = &self.lits[sc.lit.start as usize..(sc.lit.start + sc.lit.len) as usize];
                let (byte, lit) = (self.nt_name(sc.byte), crate::interp::preview(lit));
                format!("scan {byte}[0, 1] until {lit}[{}, {}]", sc.lit_lo, sc.lit_hi)
            }
            Instr::Chain { chain } => {
                let c = self.chains[chain as usize];
                let head = self.render_instr(g, c.head);
                let s = format!("chain{}", head.strip_prefix("call").unwrap_or(&head));
                match c.record {
                    Some(r) => format!("{s} by record {:04}", self.records[r as usize].pc),
                    None => s,
                }
            }
        }
    }

    fn render_op(&self, g: &Grammar, op: RecOp) -> String {
        let aff = |a| self.render_aff(g, a);
        match op {
            RecOp::Lit { lit, lo, hi, slot } => {
                let bytes = &self.lits[lit.start as usize..(lit.start + lit.len) as usize];
                let lit = crate::interp::preview(bytes);
                format!("match {lit}[{}, {}] -> s{slot}", aff(lo), aff(hi))
            }
            RecOp::Field { nt, lo, hi, slot, .. } => {
                format!("call {}[{}, {}] -> s{slot}", self.nt_name(nt), aff(lo), aff(hi))
            }
            RecOp::Set { attr, form, .. } => {
                format!("set {} = {}", g.attr_name(attr), self.render_form(g, form))
            }
            RecOp::Guard { form } => format!("guard {}", self.render_form(g, form)),
        }
    }

    fn render_aff(&self, g: &Grammar, a: Aff) -> String {
        let mut s = String::new();
        if a.c != 0 || a.len == 0 {
            s = a.c.to_string();
        }
        for t in &self.terms[a.first as usize..(a.first + a.len) as usize] {
            let name = match t.src {
                Src::Attr(sym) | Src::Inner(sym) => g.attr_name(sym).to_owned(),
                Src::Field { slot, nt, attr } | Src::Sibling { slot, nt, attr } => {
                    format!("s{slot}:{}.{}", self.nt_name(nt), g.attr_name(attr))
                }
                Src::Byte => "byte".to_owned(),
            };
            let (sign, k) =
                if t.coef < 0 { (" - ", t.coef.unsigned_abs()) } else { (" + ", t.coef as u64) };
            let sign = if s.is_empty() { sign.trim_start() } else { sign };
            let sign = if sign == "+ " { "" } else { sign };
            let _ = match k {
                1 => write!(s, "{sign}{name}"),
                _ => write!(s, "{sign}{k} * {name}"),
            };
        }
        s
    }

    fn render_form(&self, g: &Grammar, form: Form) -> String {
        let aff = |a| self.render_aff(g, a);
        match form {
            Form::Aff(a) => aff(a),
            Form::Cmp(op, a, b) => format!("{} {op} {}", aff(a), aff(b)),
            Form::Cond(op, a, b, t, f) => {
                format!("{} {op} {} ? {} : {}", aff(a), aff(b), aff(t), aff(f))
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
