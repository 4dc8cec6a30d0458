//! Static attribute layouts: where the bytecode VM keeps every attribute.
//!
//! The reference interpreter threads an [`crate::env::Env`] — a sequence
//! of `(symbol, value)` bindings searched by symbol — through every
//! alternative. The VM does that search once, when a
//! [`crate::interp::vm::VmParser`] is built from its [`Program`]
//! ([`resolve`]):
//!
//! * **Rule slots.** Every rule numbers its attributes: `EOI`, `start` and
//!   `end` at slots 0, 1 and 2, then every attribute any of its
//!   alternatives sets, in first-write order (the first alternative's
//!   first); `val` for a builtin; the declared attributes for a blackbox.
//!   An attribute has the same slot in every alternative, so a `B.id` read
//!   is one indexed load whatever alternative built the `B` node. A node
//!   stores its rule's attribute slots in the arena's shared attribute
//!   pool; a frame holds them plus one slot per `for` and `exists`
//!   variable of its alternatives, or as many more as its records'
//!   registers need.
//! * **Shapes.** Every alternative, and every builtin or blackbox rule,
//!   has a shape: its bindings in the order the interpreter's environment
//!   lists them — `EOI`, `start`, `end`, then the alternative's own `Set`
//!   targets in first-write order — each with its slot and the pc from
//!   which it is bound. Shapes map slots back to names for
//!   [`crate::arena::TreeRef::to_tree`] and `attr` lookups by name, and
//!   answer the reads a local rule makes of its invoking alternative.
//! * **Operand slots.** Every attribute operand of the program gets its
//!   slot: a `Set` or loop variable its frame slot, a `B.id`-style read the
//!   slot in `B`'s nodes, and a plain read the slot of the innermost
//!   binding in scope at its pc. A plain read the alternative has not
//!   bound yet keeps [`NO_SLOT`]: it is inherited, and the VM walks the
//!   invoking alternatives' shapes for it at run time, exactly as the
//!   interpreter falls through to its parent context.
//! * **Registers.** The forms a byte scan or a record evaluates read
//!   attributes by register: a scan's sets the nested level's slots, a
//!   record's ops its own frame's slots, which are its first registers,
//!   and a record's loads read its siblings' attributes by their slots.

use crate::arena::NtTable;
use crate::bytecode::{
    Aff, BExpr, ExprId, Instr, PCase, PRuleKind, Program, RecOp, Src, Term, NO_SLOT,
};
use crate::check::{Grammar, NtId};
use crate::env::wellknown;
use crate::intern::Sym;
use std::sync::Arc;

/// Slot of `EOI` in every layout.
pub(crate) const EOI_SLOT: u16 = 0;
/// Slot of `start` in every layout.
pub(crate) const START_SLOT: u16 = 1;
/// Slot of `end` in every layout.
pub(crate) const END_SLOT: u16 = 2;

/// One binding of a shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Binding {
    pub(crate) sym: Sym,
    pub(crate) slot: u16,
    /// The first pc at which the binding exists: one past its first `Set`
    /// (0 for `EOI`/`start`/`end` and for builtin and blackbox bindings).
    pub(crate) bound_from: u32,
}

/// The layout of one rule.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RuleLayout {
    /// Shape of the first alternative (alternatives are numbered like the
    /// program's alternatives), or of the builtin or blackbox rule.
    first_shape: u32,
    /// Number of shapes: one per alternative, one for a builtin or
    /// blackbox rule.
    n_shapes: u32,
    /// Offset of the rule's slot symbols in [`Layouts::slot_syms`].
    syms: u32,
    /// Attribute slots a node of the rule stores.
    pub(crate) width: u16,
    /// Slots a frame of the rule needs: `width` plus its scoped variables,
    /// or its records' registers if they are more.
    pub(crate) frame_width: u16,
}

/// The attribute layouts of one program, shared by the VM and every arena
/// it fills.
#[derive(Debug)]
pub(crate) struct Layouts {
    /// Nonterminal names, for views and `to_tree`.
    pub(crate) table: Arc<NtTable>,
    pub(crate) rules: Vec<RuleLayout>,
    /// Per shape: its range of `bindings`.
    shapes: Vec<(u32, u32)>,
    bindings: Vec<Binding>,
    /// Per rule, from [`RuleLayout::syms`]: the symbol of each slot.
    slot_syms: Vec<Sym>,
}

impl Layouts {
    /// The bindings of shape `shape` (an alternative's index in the
    /// program for rules with alternatives).
    #[inline]
    pub(crate) fn shape(&self, shape: u32) -> &[Binding] {
        let (start, end) = self.shapes[shape as usize];
        &self.bindings[start as usize..end as usize]
    }

    /// The shape of a node of `nt` built by its alternative `alt_index`.
    pub(crate) fn node_shape(&self, nt: NtId, alt_index: u32) -> &[Binding] {
        self.shape(self.rules[nt.0 as usize].first_shape + alt_index)
    }

    /// The slot of `sym` in `nt`'s nodes, if the rule has one for it.
    fn slot_of(&self, nt: NtId, sym: Sym) -> Option<u16> {
        let rule = self.rules.get(nt.0 as usize)?;
        let syms = &self.slot_syms[rule.syms as usize..rule.syms as usize + rule.width as usize];
        syms.iter().position(|s| *s == sym).map(|i| i as u16)
    }

    /// The slot of `sym` in `nt`'s nodes if every node of `nt` binds it,
    /// whichever alternative built it.
    pub(crate) fn total_slot(&self, nt: NtId, sym: Sym) -> Option<u16> {
        let slot = self.slot_of(nt, sym)?;
        let rule = &self.rules[nt.0 as usize];
        (rule.first_shape..rule.first_shape + rule.n_shapes)
            .all(|shape| self.shape(shape).iter().any(|b| b.sym == sym))
            .then_some(slot)
    }
}

/// Derives the layouts of `program` and fills in every attribute operand
/// slot (see the module docs). `grammar` is the grammar the program was
/// compiled from; it names the blackboxes' declared attributes.
///
/// # Panics
///
/// If one rule needs more than 65534 slots.
pub(crate) fn resolve(program: &mut Program, grammar: &Grammar) -> Layouts {
    let mut layouts = Layouts {
        table: program.nt_table.clone(),
        rules: Vec::with_capacity(program.rules.len()),
        shapes: vec![(0, 0); program.alts.len()],
        bindings: Vec::new(),
        slot_syms: Vec::new(),
    };
    // Each record's, byte scan's or chain's head stands in for it until
    // the operands are resolved, so it resolves like the term it is; the
    // covered instructions follow it and resolve as usual.
    let fused: Vec<(usize, Instr)> = (0..program.code.len())
        .filter_map(|pc| {
            let instr = program.code[pc];
            program.code[pc] = program.unfused(instr);
            matches!(instr, Instr::Record { .. } | Instr::Scan { .. } | Instr::Chain { .. })
                .then_some((pc, instr))
        })
        .collect();
    // Rule slots first: `B.id` operands need the slots of other rules.
    for rule in &program.rules {
        let syms = layouts.slot_syms.len();
        let slot_syms = &mut layouts.slot_syms;
        slot_syms.extend([wellknown::EOI, wellknown::START, wellknown::END]);
        let mut add = |sym: Sym| {
            if !slot_syms[syms..].contains(&sym) {
                slot_syms.push(sym);
            }
        };
        match rule.kind {
            PRuleKind::Builtin(_) => add(wellknown::VAL),
            PRuleKind::Blackbox(idx) => {
                let decl = grammar.blackboxes().get(idx as usize).map_or(&[][..], |b| &b.attrs[..]);
                for name in decl {
                    if let Some(sym) = grammar.attr_sym(name) {
                        add(sym);
                    }
                }
            }
            PRuleKind::Alts { first, count } => {
                for alt in &program.alts[first as usize..(first + count) as usize] {
                    for instr in program.alt_code(*alt) {
                        if let Instr::Set { attr, .. } = *instr {
                            add(attr);
                        }
                    }
                }
            }
        }
        let width = slot_count(slot_syms.len() - syms);
        let syms = syms as u32;
        layouts.rules.push(RuleLayout {
            first_shape: 0,
            n_shapes: 0,
            syms,
            width,
            frame_width: width,
        });
    }

    // Each expression is resolved once; the guard also stops a corrupt
    // artifact's shared or cyclic expressions from recursing forever.
    let mut visited = vec![false; program.exprs.len()];
    for nt in (0..program.rules.len()).map(|i| NtId(i as u32)) {
        let rule = layouts.rules[nt.0 as usize];
        let (first_shape, n_shapes) = match program.rules[nt.0 as usize].kind {
            PRuleKind::Builtin(_) | PRuleKind::Blackbox(_) => {
                // Every slot is bound from the start, in slot order.
                let start = layouts.bindings.len() as u32;
                for slot in 0..rule.width {
                    let sym = layouts.slot_syms[(rule.syms + u32::from(slot)) as usize];
                    layouts.bindings.push(Binding { sym, slot, bound_from: 0 });
                }
                layouts.shapes.push((start, layouts.bindings.len() as u32));
                (layouts.shapes.len() as u32 - 1, 1)
            }
            PRuleKind::Alts { first, count } => {
                for a in first..first + count {
                    let alt = program.alts[a as usize];
                    let start = layouts.bindings.len();
                    for (slot, sym) in [EOI_SLOT, START_SLOT, END_SLOT].into_iter().zip([
                        wellknown::EOI,
                        wellknown::START,
                        wellknown::END,
                    ]) {
                        layouts.bindings.push(Binding { sym, slot, bound_from: 0 });
                    }
                    for pc in alt.first..alt.first + alt.count {
                        if let Instr::Set { attr, attr_slot, .. } = &mut program.code[pc as usize] {
                            let slot = layouts.slot_of(nt, *attr).expect("every set has a slot");
                            *attr_slot = slot;
                            // `Set` overwrites in place: only the first
                            // write adds a binding.
                            if !layouts.bindings[start..].iter().any(|b| b.sym == *attr) {
                                let bound_from = pc + 1;
                                layouts.bindings.push(Binding { sym: *attr, slot, bound_from });
                            }
                        }
                    }
                    layouts.shapes[a as usize] = (start as u32, layouts.bindings.len() as u32);
                    let mut r = OperandResolver {
                        exprs: &mut program.exprs,
                        visited: &mut visited,
                        layouts: &layouts,
                        shape: &layouts.bindings[start..],
                        scopes: Vec::new(),
                        next: usize::from(rule.width),
                        pc: 0,
                    };
                    for pc in alt.first..alt.first + alt.count {
                        r.pc = pc;
                        r.instr(&mut program.code[pc as usize], &program.cases);
                    }
                    let frame_width = slot_count(r.next);
                    let rule = &mut layouts.rules[nt.0 as usize];
                    rule.frame_width = rule.frame_width.max(frame_width);
                }
                (first, count)
            }
        };
        let rule = &mut layouts.rules[nt.0 as usize];
        (rule.first_shape, rule.n_shapes) = (first_shape, n_shapes);
    }
    for (pc, instr) in fused {
        let head = std::mem::replace(&mut program.code[pc], instr);
        match instr {
            Instr::Record { rec } => program.records[rec as usize].head = head,
            Instr::Scan { scan } => program.scans[scan as usize].head = head,
            Instr::Chain { chain } => program.chains[chain as usize].head = head,
            _ => unreachable!("only fused instructions were swapped"),
        }
    }
    // The forms of byte scans and records read attributes by
    // register: a scan's sets read the nested level's slots and write the
    // frame's, and a record's ops read and write its frame's slots, which
    // are its first registers.
    for (nt, rule) in program.rules.iter().enumerate() {
        let PRuleKind::Alts { first, count: 1.. } = rule.kind else { continue };
        let Instr::Scan { scan } = program.code[program.alts[first as usize].first as usize] else {
            continue;
        };
        let s = program.scans[scan as usize];
        let slot = |sym| layouts.slot_of(NtId(nt as u32), sym).expect("a scan's rule stores it");
        let sets = usize::from(s.sets + s.lit_sets);
        for set in &mut program.scan_sets[s.first_set as usize..][..sets] {
            set.slot = slot(set.attr);
            for a in set.form.affs() {
                resolve_terms(&mut program.terms, a, 0, slot);
            }
        }
    }
    for r in &program.records {
        // A frame is a record's registers: it holds its fields' and loads'
        // registers after its attribute slots, where its scoped variables
        // live, which a record does not read.
        let rule = &mut layouts.rules[r.nt.0 as usize];
        debug_assert_eq!(r.width, rule.width, "a record's frame");
        rule.frame_width = rule.frame_width.max(r.regs());
        let slot = |sym| layouts.slot_of(r.nt, sym).expect("a record's rule stores it");
        let resolve = |terms: &mut [Term], affs: &[Aff]| {
            for &a in affs {
                resolve_terms(terms, a, 0, slot);
            }
        };
        for op in &mut program.rec_ops[r.first as usize..(r.first + r.count) as usize] {
            match op {
                RecOp::Lit { lo, hi, .. } | RecOp::Field { lo, hi, .. } => {
                    resolve(&mut program.terms, &[*lo, *hi])
                }
                RecOp::Set { attr, reg, form } => {
                    *reg = slot(*attr);
                    resolve(&mut program.terms, &form.affs());
                }
                RecOp::Guard { form } => resolve(&mut program.terms, &form.affs()),
            }
        }
    }
    for load in &mut program.loads {
        load.attr_slot = layouts.slot_of(load.nt, load.attr).unwrap_or(NO_SLOT);
    }
    layouts
}

/// Points the attribute terms of `a` at their registers: `base` plus the
/// slot `slot` gives each attribute.
fn resolve_terms(terms: &mut [Term], a: Aff, base: u16, slot: impl Fn(Sym) -> u16) {
    for t in &mut terms[a.first as usize..(a.first + a.len) as usize] {
        if let Src::Attr(sym) | Src::Inner(sym) = t.src {
            t.reg = base + slot(sym);
        }
    }
}

/// A slot count as a `u16` below [`NO_SLOT`].
fn slot_count(n: usize) -> u16 {
    u16::try_from(n).ok().filter(|&n| n < NO_SLOT).expect("a rule needs more than 65534 slots")
}

/// Resolves the operands of one alternative's instructions.
struct OperandResolver<'a> {
    exprs: &'a mut [BExpr],
    visited: &'a mut [bool],
    /// The layouts, rule slots complete.
    layouts: &'a Layouts,
    /// The alternative's shape.
    shape: &'a [Binding],
    /// Variables in scope, innermost last.
    scopes: Vec<(Sym, u16)>,
    /// The next free scoped-variable slot.
    next: usize,
    /// The instruction being resolved.
    pc: u32,
}

impl OperandResolver<'_> {
    fn instr(&mut self, instr: &mut Instr, cases: &[PCase]) {
        match instr {
            Instr::Match { lo, hi, .. }
            | Instr::Call { lo, hi, .. }
            | Instr::Star { lo, hi, .. } => {
                self.expr(*lo);
                self.expr(*hi);
            }
            Instr::Set { expr, .. } | Instr::Guard { expr } => self.expr(*expr),
            Instr::Loop { var, var_slot, from, to, lo, hi, .. } => {
                self.expr(*from);
                self.expr(*to);
                *var_slot = self.scoped(*var);
                self.expr(*lo);
                self.expr(*hi);
                self.scopes.pop();
            }
            Instr::Switch { first, count, .. } => {
                for case in &cases[*first as usize..*first as usize + *count as usize] {
                    if let Some(c) = case.cond {
                        self.expr(c);
                    }
                    self.expr(case.lo);
                    self.expr(case.hi);
                }
            }
            Instr::Record { .. } | Instr::Scan { .. } | Instr::Chain { .. } => {
                unreachable!("records, byte scans and chains resolve as their head")
            }
        }
    }

    /// Opens a scope for `var` in a fresh frame slot.
    fn scoped(&mut self, var: Sym) -> u16 {
        let slot = slot_count(self.next);
        self.next += 1;
        self.scopes.push((var, slot));
        slot
    }

    /// The slot of `attr` in `nt`'s nodes, or [`NO_SLOT`].
    fn attr_slot(&self, nt: NtId, attr: Sym) -> u16 {
        self.layouts.slot_of(nt, attr).unwrap_or(NO_SLOT)
    }

    fn expr(&mut self, e: ExprId) {
        if std::mem::replace(&mut self.visited[e.0 as usize], true) {
            return;
        }
        let mut resolved = self.exprs[e.0 as usize];
        match &mut resolved {
            BExpr::Num(_) | BExpr::Eoi => {}
            BExpr::Bin(_, a, b) => {
                self.expr(*a);
                self.expr(*b);
            }
            BExpr::Cond(c, t, f) => {
                self.expr(*c);
                self.expr(*t);
                self.expr(*f);
            }
            BExpr::Local { sym, slot } => {
                *slot = match self.scopes.iter().rev().find(|(v, _)| v == sym) {
                    Some(&(_, s)) => s,
                    None => self
                        .shape
                        .iter()
                        .find(|b| b.sym == *sym && b.bound_from <= self.pc)
                        .map_or(NO_SLOT, |b| b.slot),
                };
            }
            BExpr::NtAttr { nt, attr, attr_slot, .. }
            | BExpr::OuterAttr { nt, attr, attr_slot } => {
                *attr_slot = self.attr_slot(*nt, *attr);
            }
            BExpr::ElemAttr { nt, index, attr, attr_slot, .. }
            | BExpr::OuterElem { nt, index, attr, attr_slot } => {
                self.expr(*index);
                *attr_slot = self.attr_slot(*nt, *attr);
            }
            BExpr::Exists { var, var_slot, cond, then, els, .. } => {
                *var_slot = self.scoped(*var);
                self.expr(*cond);
                self.expr(*then);
                self.scopes.pop();
                self.expr(*els);
            }
        }
        self.exprs[e.0 as usize] = resolved;
    }
}

#[cfg(test)]
mod tests {
    use crate::frontend::parse_grammar;
    use crate::interp::vm::VmParser;

    #[test]
    fn an_attribute_keeps_its_slot_in_every_alternative() {
        let g = parse_grammar(
            r#"
            S -> A[0, EOI];
            A -> U8[0, 1] assert(U8.val = 0) {x = 1} {y = 2} {z = 3}
               / U8[0, 1] {y = 3} {x = 4};
            U8 := u8;
            "#,
        )
        .unwrap();
        let vm = VmParser::new(&g);
        let a = g.nt_id("A").unwrap();
        let (x, y) = (vm.attr_slot(a, "x").unwrap(), vm.attr_slot(a, "y").unwrap());
        assert_ne!(x, y);
        assert!(vm.attr_slot(a, "start").is_some());
        // Only the first alternative sets `z`: not every `A` node has it.
        assert_eq!(vm.attr_slot(a, "z"), None);
        for (input, want) in [([0u8], (1, 2)), ([1], (4, 3))] {
            let tree = vm.parse(&input).unwrap();
            let node = tree.root().child_node_nt(a).unwrap();
            assert_eq!((node.get(x), node.get(y)), (Some(want.0), Some(want.1)));
            assert_eq!((node.attr(&g, "x"), node.attr(&g, "y")), (Some(want.0), Some(want.1)));
        }
    }
}
