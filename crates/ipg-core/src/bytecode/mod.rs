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
//! * bulk instructions besides, at the head of a run of fields
//!   ([`Instr::Record`]), of a self-recursive byte rule
//!   ([`Instr::Scan`]) and of a right-recursive list rule
//!   ([`Instr::Chain`]), each doing the work of the general instructions
//!   it stands for in one pass (see [`compile`]).
//!
//! This module holds the program's types and the compiler of terms and
//! expressions; `shapes` matches the bulk shapes and folds their
//! expressions to affine forms; `disasm` renders a program as a listing.
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
use crate::intern::Sym;
use crate::syntax::{BinOp, Builtin};
use std::sync::Arc;

mod disasm;
mod shapes;

pub(crate) use shapes::{
    Aff, ByteScan, Form, ListChain, Load, RecOp, Record, ScanSet, Src, Term, GUARD_UNDEFINED,
    REC_REGS, REC_SLOTS, SCAN_BYTE_REG, SCAN_WIDTH,
};

/// An attribute slot that is not resolved: what [`compile`] emits before
/// layout resolution, and what resolution leaves for a local read the
/// frame does not hold (it is read from the invoking alternative) or an
/// attribute the nonterminal does not store.
pub const NO_SLOT: u16 = u16::MAX;

/// Index of an expression in [`Program`]'s flat expression pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExprId(pub u32);

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
    /// `Program::alts[first]`.
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
    /// Index of the first instruction in `Program::code`.
    pub first: u32,
    /// Number of instructions.
    pub count: u32,
    /// Number of result slots (`== n_terms` of the checked alternative).
    pub n_slots: u16,
    /// The slots whose results are a node's children, in order:
    /// `Program::child_slots[first_child..first_child + n_children]`.
    pub first_child: u32,
    /// Number of children of a node the alternative builds.
    pub n_children: u16,
}

/// One bytecode instruction — a checked term with pre-resolved operands.
/// `slot` is the term's written index: the result-vector slot it fills and
/// the index sibling [`BExpr::NtAttr`] references use.
#[derive(Clone, Copy, Debug)]
pub enum Instr {
    /// `"s"[lo, hi]` — match literal bytes inside the interval.
    Match {
        /// Literal bytes (span into `Program::lits`).
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
    /// `Program::cases[first..first+count]` (default last).
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
    /// a level's element through its `Record` when it has one. The
    /// open root of a streaming session runs the head it replaced.
    Chain {
        /// Index of the chain in the program's chain pool.
        chain: u32,
    },
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
    /// Per alternative, its children's result slots ([`PAlt::first_child`]).
    pub(crate) child_slots: Vec<u16>,
    pub(crate) nt_table: Arc<NtTable>,
    pub(crate) start: NtId,
}

impl Instr {
    /// The result slot of the term this instruction was compiled from, if
    /// its result is a child of the node (a match, call, loop, star or
    /// switch).
    pub(crate) fn result_slot(self) -> Option<u16> {
        match self {
            Instr::Match { slot, .. }
            | Instr::Call { slot, .. }
            | Instr::Loop { slot, .. }
            | Instr::Star { slot, .. }
            | Instr::Switch { slot, .. } => Some(slot),
            _ => None,
        }
    }
}

/// Lowers a checked grammar into a flat bytecode [`Program`].
///
/// Every term becomes one instruction. Then the first instruction of a
/// rule of the `ByteScan` shape becomes an [`Instr::Scan`]. Then each
/// maximal run of literals, builtin fields, guards and sets in an
/// alternative becomes a `Record` at its head: a run's endpoints,
/// guards and sets must fold to `Form`s over constants, the frame's
/// `EOI`, `start`, `end` and the attributes the alternative set before,
/// the attributes of the run's fields, and those of siblings before the
/// run; its builtins must be of fixed width or `bytes`, and it must hold
/// a builtin field and one more instruction. Last, once every rule is
/// compiled, the first instruction of a rule of the `ListChain` shape
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
            child_slots: Vec::new(),
            nt_table: Arc::new(NtTable {
                names: g.rules().iter().map(|r| r.name.clone()).collect(),
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
                let width = shapes::node_width(alts);
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
        // A node's children are its terms' results in written order.
        let first_child = self.out.child_slots.len();
        self.out.child_slots.extend(instrs.iter().filter_map(|instr| instr.result_slot()));
        self.out.child_slots[first_child..].sort_unstable();
        let n_children = (self.out.child_slots.len() - first_child) as u16;
        let first_child = first_child as u32;
        let first = self.out.code.len() as u32;
        let count = instrs.len() as u32;
        self.out.code.extend(instrs);
        let n_slots = alt.n_terms as u16;
        self.out.alts.push(PAlt { first, count, n_slots, first_child, n_children });
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
        self.out.exprs.push(lowered);
        ExprId(self.out.exprs.len() as u32 - 1)
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
        fn depth_of(p: &Program, nt: NtId, memo: &mut [u32], on_path: &mut [bool]) -> u32 {
            let i = nt.0 as usize;
            if memo[i] != u32::MAX {
                return memo[i];
            }
            if on_path[i] {
                return 0;
            }
            on_path[i] = true;
            let best = p.callees(nt).map(|c| 1 + depth_of(p, c, memo, on_path)).max().unwrap_or(0);
            on_path[i] = false;
            memo[i] = best;
            best
        }
        let mut memo = vec![u32::MAX; self.rules.len()];
        let mut on_path = vec![false; self.rules.len()];
        1 + depth_of(self, self.start, &mut memo, &mut on_path) as usize
    }

    /// The rules `nt` calls, once per call site in written order: each
    /// call's, loop's and star's callee, and each case of a switch. A
    /// builtin or blackbox rule calls none.
    pub(crate) fn callees(&self, nt: NtId) -> impl Iterator<Item = NtId> + '_ {
        self.rule_alts(nt)
            .iter()
            .flat_map(|alt| self.alt_code(*alt))
            .flat_map(|instr| self.term_callees(*instr))
    }

    /// The rules the term at an instruction calls: one, or a switch's
    /// cases', or none.
    fn term_callees(&self, instr: Instr) -> impl Iterator<Item = NtId> + '_ {
        let (callee, cases) = match self.unfused(instr) {
            Instr::Call { nt, .. } | Instr::Loop { nt, .. } | Instr::Star { nt, .. } => {
                (Some(nt), &[][..])
            }
            Instr::Switch { first, count, .. } => {
                (None, &self.cases[first as usize..][..usize::from(count)])
            }
            _ => (None, &[][..]),
        };
        callee.into_iter().chain(cases.iter().map(|case| case.nt))
    }

    /// The alternatives of rule `nt`: none for a builtin or blackbox rule.
    fn rule_alts(&self, nt: NtId) -> &[PAlt] {
        match self.rules[nt.0 as usize].kind {
            PRuleKind::Alts { first, count } => &self.alts[first as usize..][..count as usize],
            _ => &[],
        }
    }

    /// The result slots `first_child..first_child + n_children` of the
    /// children's table: an alternative's ([`PAlt::first_child`]) or a
    /// record's children, in order.
    #[inline]
    pub(crate) fn child_slots(&self, first_child: u32, n_children: u16) -> &[u16] {
        &self.child_slots[first_child as usize..][..usize::from(n_children)]
    }

    /// Where the child of nonterminal `nt` sits among the children of a
    /// node of `parent`, when that is fixed: every alternative of `parent`
    /// has at most one term whose result can be of `nt` (a call, loop or
    /// star of `nt`, or a switch with a case of `nt`), and every
    /// alternative with one has it at the same index among its children.
    /// A node's children are the results of its alternative's matches,
    /// calls, loops, stars and switches, in written order, so an extractor
    /// can read the child at that index, check its nonterminal, and know
    /// that no other child is of `nt`.
    pub fn child_index(&self, parent: NtId, nt: NtId) -> Option<usize> {
        let mut index = None;
        for alt in self.rule_alts(parent) {
            let code = self.alt_code(*alt);
            let term = |slot| {
                code.iter()
                    .map(|instr| self.unfused(*instr))
                    .find(|instr| instr.result_slot() == Some(slot))
                    .expect("a child slot is a term's")
            };
            let mut of_nt = self
                .child_slots(alt.first_child, alt.n_children)
                .iter()
                .enumerate()
                .filter(|(_, slot)| self.term_callees(term(**slot)).any(|callee| callee == nt))
                .map(|(at, _)| at);
            let Some(at) = of_nt.next() else { continue };
            if of_nt.next().is_some() || index.is_some_and(|index| index != at) {
                return None;
            }
            index = Some(at);
        }
        index
    }

    /// The bytes of literal `lit`.
    #[inline]
    pub(crate) fn lit(&self, lit: LitSpan) -> &[u8] {
        &self.lits[lit.start as usize..][..lit.len as usize]
    }

    /// The instructions of alternative `alt`.
    pub(crate) fn alt_code(&self, alt: PAlt) -> &[Instr] {
        &self.code[alt.first as usize..][..alt.count as usize]
    }

    /// The ops of record `rec`.
    #[inline]
    pub(crate) fn ops(&self, rec: &Record) -> &[RecOp] {
        &self.rec_ops[rec.first as usize..][..rec.count as usize]
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

    #[test]
    fn a_child_index_is_fixed_only_where_every_alternative_agrees() {
        let g = parse_grammar(
            r#"
            S -> "x"[0, 1] B[A.end, EOI] A[1, 2] {n = A.val}
               / A[0, 1] C[1, 2] C[2, 3]
               / switch(EOI = 3 : A[0, 1] / D[0, 1]);
            A := u8;
            B := bytes;
            C := u8;
            D := u8;
            "#,
        )
        .unwrap();
        let p = compile(&g);
        let nt = |name| g.nt_id(name).unwrap();
        let at = |name| p.child_index(nt("S"), nt(name));
        // `A` comes before `B` in the compiled code, which needs `A.end`,
        // but children stay in written order: `A` is child 2 there and 0
        // in the other alternatives.
        assert_eq!(at("A"), None);
        assert_eq!(at("B"), Some(1), "only the first alternative has one");
        assert_eq!(at("C"), None, "two terms of one alternative");
        assert_eq!(at("D"), Some(0), "a switch's case");
        let g =
            parse_grammar("S -> \"x\"[0, 1] B[A.end, EOI] A[1, 2]; A := u8; B := bytes;").unwrap();
        let p = compile(&g);
        assert_eq!(p.child_index(g.nt_id("S").unwrap(), g.nt_id("A").unwrap()), Some(2));
    }
}
