//! The bulk paths: records, byte scans and chains, which each do the
//! work of a run of general instructions in one pass, and fall back to
//! them whenever the pass could differ from them.

use super::failure::Reason;
use super::machine::{
    child, upd_start_end, CallOutcome, Flow, PResult, Pending, Ret, VmSession, NO_PARENT,
};
use super::Image;
use crate::arena::TreeId;
use crate::builtin::run_builtin;
use crate::bytecode::{
    Aff, ByteScan, Instr, RecOp, Record, GUARD_UNDEFINED, REC_REGS, REC_SLOTS, SCAN_BYTE_REG,
    SCAN_WIDTH,
};
use crate::check::NtId;
use crate::layout::{END_SLOT, START_SLOT};
use crate::profile::ProfSink;
use crate::syntax::Builtin;
use std::ops::Deref;

/// One level of a chain in flight (see [`VmSession::exec_chain`]): its
/// interval and, once its element has returned, the element's result, its
/// `end` (where the next level starts) and the level's touched region.
#[derive(Clone, Copy)]
pub(super) struct Level {
    base: usize,
    len: usize,
    elem: Option<TreeId>,
    next: i64,
    start: i64,
    end: i64,
}

impl Level {
    /// A level over `(base, len)` before its element runs (rule R-AltSucc).
    fn new(base: usize, len: usize) -> Level {
        Level { base, len, elem: None, next: 0, start: len as i64, end: 0 }
    }
}

/// In-flight state of a chain.
#[derive(Clone, Copy)]
pub(super) struct ChainSt {
    chain: u32,
    /// Index of the chain's level 0 in the session's level stack.
    first: usize,
    /// What the chain waits for while a child frame runs.
    pub(super) wait: Wait,
}

/// What a chain waits for from a child frame.
#[derive(Clone, Copy)]
pub(super) enum Wait {
    /// The top level's element.
    Elem,
    /// The top level's second alternative, run in a frame of its own.
    Tail,
}

/// Where a chain is (see [`VmSession::chain_run`]).
pub(super) enum ChainStep {
    /// The top level's element returned.
    Elem(Option<Ret>),
    /// The top level's list call returned this node, not yet re-based.
    Next(Option<TreeId>),
    /// The top level's first alternative failed.
    Tail,
    /// The top level's second alternative returned, its node and memo
    /// entry made.
    Done(Option<TreeId>),
    /// A child frame runs; the chain waits for it.
    Wait(Wait),
}

impl<G: Deref<Target = Image>, I: AsRef<[u8]>, PS: ProfSink> VmSession<G, I, PS> {
    /// A record (`Record`) in frame `fi`, its head's tick and hook paid:
    /// the frame's slots are its registers (`layout` sizes them to hold
    /// the fields' and the loads' registers after the attributes), so it
    /// loads the siblings' attributes it reads, decodes it in the frame
    /// ([`VmSession::decode`]), and goes on after it, or fails the
    /// alternative. It runs the head it replaced instead, followed by the
    /// covered instructions, when the fuel might run out inside it, when a
    /// sibling's attribute is undefined, and in the open root of a
    /// streaming session, whose length reads 0 until it is sealed; so fuel
    /// exhaustion, suspensions and undefined reads happen exactly where
    /// they would.
    pub(super) fn exec_record(&mut self, fi: usize, r: u32) -> PResult<Flow> {
        let rec = self.img.program.records[r as usize];
        if self.is_open_root(fi) || self.steps.saturating_add(rec.steps() - 1) > self.max_steps {
            return self.exec_unfused(fi, rec.head);
        }
        let f = &mut self.ws.frames[fi];
        let loads = &self.img.program.loads[rec.first_load as usize..][..usize::from(rec.loads)];
        for load in loads {
            let value = f.results[usize::from(load.slot)]
                .and_then(|id| self.ws.arena.node_attr(id, load.nt, load.attr_slot));
            let Some(value) = value else { return self.exec_unfused(fi, rec.head) };
            f.slots[usize::from(load.reg)] = value;
        }
        let (base, len) = (f.base, f.len);
        let mut slots = std::mem::take(&mut f.slots);
        let mut results = std::mem::take(&mut f.results);
        let ok = self.decode(&rec, base, len, &mut slots, &mut results);
        let f = &mut self.ws.frames[fi];
        (f.slots, f.results) = (slots, results);
        if !ok {
            return Ok(self.fail_alt(fi));
        }
        f.ip += rec.count;
        Ok(Flow::Exec)
    }

    /// Runs the general instruction a record's, byte scan's or chain's
    /// head replaced.
    fn exec_unfused(&mut self, fi: usize, head: Instr) -> PResult<Flow> {
        match head {
            Instr::Match { lit, lo, hi, slot } => self.exec_match(fi, lit, lo, hi, slot),
            Instr::Call { nt, lo, hi, slot } => self.dispatch_call(fi, nt, lo, hi, slot),
            Instr::Set { attr, attr_slot, expr } => self.exec_set(fi, attr, attr_slot, expr),
            Instr::Guard { expr } => self.exec_guard(fi, expr),
            _ => unreachable!("a record, byte scan or chain starts with a term it decodes"),
        }
    }

    /// A byte scan (`ByteScan`), run by the frame of its rule at level 0
    /// of the recursion: finds the terminator level `k`, whose byte is the
    /// first of the frame's interval to fail a guard, in one pass. When
    /// `k > 0`, the fuel lasts through level `k`, no nested level's call
    /// (levels 1 to `k`) is in the memo table and the terminator's literal
    /// matches, every instruction of every level would run as the shape
    /// says, so the scan does their work in one go: each nested level's
    /// byte record, node, memo entry and the shift record its caller
    /// keeps, the terminator's byte record (read, then failed) and leaf,
    /// and this frame's byte, self-call result and sets. It charges their
    /// steps and profile hooks and records the terminator's guard failure.
    /// Otherwise the head it replaced runs, followed by the general
    /// instructions, so failures, fuel exhaustion and memo hits happen
    /// exactly where they would. The open root of a streaming session
    /// always takes that path: its length reads 0 until it is sealed.
    pub(super) fn exec_scan(&mut self, fi: usize, scan: u32) -> PResult<Flow> {
        let p = &self.img.program;
        let s = &p.scans[scan as usize];
        let f = &self.ws.frames[fi];
        let (nt, base, len, pc, memoizable) = (f.nt, f.base, f.len, f.ip, f.memoizable);
        let input = self.input.as_ref();
        let Some(k) = self.scan_stop.find(scan, s, input, base, len).filter(|&k| k > 0) else {
            return self.exec_unfused(fi, s.head);
        };
        let stop = s.stop[usize::from(input[base + k])];
        let failed = stop & !GUARD_UNDEFINED;
        // The head's step is paid.
        let steps = k as u64 * s.level_steps() + s.terminator_steps(failed) - 1;
        let (term, term_len) = (base + k, len - k);
        let lit_bytes = p.lit(s.lit);
        let at = term + s.lit_lo as usize;
        if self.steps.saturating_add(steps) > self.max_steps
            || s.lit_hi > term_len as i64
            || input[at..at + lit_bytes.len()] != *lit_bytes
            || memoizable
                && self.ws.memo.may_hold_above(nt, base)
                && (1..=k).any(|i| self.ws.memo.get(nt, base + i, len - i).is_some())
        {
            return self.exec_unfused(fi, s.head);
        }
        self.steps += steps;
        let reason =
            if stop & GUARD_UNDEFINED != 0 { Reason::PredicateEval } else { Reason::Predicate };
        self.deepest.record(term, nt, reason);
        let width = usize::from(self.img.layouts.rules[nt.0 as usize].width);
        let sets = &p.scan_sets[s.first_set as usize..][..usize::from(s.sets + s.lit_sets)];
        let (sets, lit_sets) = sets.split_at(usize::from(s.sets));
        let (n, guards) = (k as u64, u32::from(s.guards));
        self.prof.instrs(pc, n);
        for q in 0..guards {
            self.prof.instrs(pc + 1 + q, n + u64::from(q <= u32::from(failed)));
        }
        for q in 0..=u32::from(s.sets) {
            self.prof.instrs(pc + 1 + guards + q, n);
        }
        for q in 0..=u32::from(s.lit_sets) {
            self.prof.instr(s.lit_pc + q);
        }

        // The terminator level: its byte, its literal's leaf, its node.
        self.prof.call(s.byte);
        self.ws.arena.alloc_builtin(s.byte, term, 1, 1, 0, i64::from(input[term]));
        self.prof.done(s.byte, true);
        let leaf = self.ws.arena.alloc_leaf(at, at + lit_bytes.len());
        let mut vals = [0; SCAN_WIDTH];
        vals[..3].copy_from_slice(&[term_len as i64, term_len as i64, 0]);
        upd_start_end(&mut vals, s.lit_lo, s.lit_hi, !lit_bytes.is_empty());
        for set in lit_sets {
            vals[usize::from(set.slot)] = set.form.eval(&p.terms, &[]);
        }
        let mut node = self.ws.arena.alloc_node(nt, 1, &vals[..width], [leaf], term);
        // The levels above it, innermost first, down to this frame's. A
        // level's sets read the nested level's values and its byte.
        let mut regs = [0; SCAN_WIDTH + 1];
        for i in (1..=k).rev() {
            // Level `i`, whose node is `node`, returns to level `i - 1`.
            self.prof.call(nt);
            if memoizable {
                self.prof.memo(nt, false);
                self.ws.memo.insert(nt, base + i, len - i, Some(node));
            }
            self.prof.done(nt, true);
            let (at_i, len_i) = (base + i - 1, (len - i + 1) as i64);
            let byte = i64::from(input[at_i]);
            self.prof.call(s.byte);
            let b = self.ws.arena.alloc_builtin(s.byte, at_i, 1, 1, 0, byte);
            self.prof.done(s.byte, true);
            let shift = self.ws.arena.adjust(node, 1);
            regs[..SCAN_WIDTH].copy_from_slice(&vals);
            regs[usize::from(SCAN_BYTE_REG)] = byte;
            vals[..3].copy_from_slice(&[len_i, 0, 1]);
            let (start, end) = (regs[START_SLOT as usize], regs[END_SLOT as usize]);
            upd_start_end(&mut vals, 1 + start, 1 + end, end != 0);
            for set in sets {
                vals[usize::from(set.slot)] = set.form.eval(&p.terms, &regs);
            }
            if i > 1 {
                node = self.ws.arena.alloc_node(nt, 0, &vals[..width], [b, shift], at_i);
            } else {
                let f = &mut self.ws.frames[fi];
                f.slots[..width].copy_from_slice(&vals[..width]);
                f.results[usize::from(s.byte_slot)] = Some(b);
                f.results[usize::from(s.self_slot)] = Some(shift);
                f.ip = f.ip_end;
            }
        }
        Ok(Flow::Exec)
    }

    /// A chain (`ListChain`), run by the frame of its rule at level 0 of
    /// the list: each level's element, then its list call, and so on down
    /// the list, the levels kept on the session's level stack instead of
    /// in frames (see [`VmSession::chain_run`]). The open root of a
    /// streaming session runs the head it replaced: its length reads 0
    /// until it is sealed.
    #[inline(never)]
    pub(super) fn exec_chain(&mut self, fi: usize, chain: u32) -> PResult<Flow> {
        let c = self.img.program.chains[chain as usize];
        if self.is_open_root(fi) {
            return self.exec_unfused(fi, c.head);
        }
        let f = &self.ws.frames[fi];
        let first = self.ws.levels.len();
        self.ws.levels.push(Level::new(f.base, f.len));
        let step = self.chain_elem(c.elem, c.record)?;
        self.chain_run(fi, ChainSt { chain, first, wait: Wait::Elem }, step)
    }

    /// Calls the top level's element `elem`, whose record is `record`, at
    /// offset 0 of the level.
    #[inline]
    fn chain_elem(&mut self, elem: NtId, record: Option<u32>) -> PResult<ChainStep> {
        let lv = self.ws.levels[self.ws.levels.len() - 1];
        let out = match record {
            Some(r) => self.record_call(elem, r, lv.base, lv.len, 0)?,
            None => self.call(elem, lv.base, lv.len, 0, NO_PARENT)?,
        };
        Ok(match out {
            CallOutcome::Pushed => ChainStep::Wait(Wait::Elem),
            CallOutcome::Done(ret) => ChainStep::Elem(ret),
        })
    }

    /// Runs chain `st` from `step` until it needs a child frame or its
    /// frame's first alternative is decided. Each level does what its
    /// frame would, in the same order:
    ///
    /// * once its element returns, the list call `X[A.end, EOI]`: the
    ///   instruction's tick and hooks, the interval, the call's tick, hooks
    ///   and memo look-up; a miss starts the next level, whose first
    ///   instruction is this chain's head again;
    /// * once that call returns, the level completes: it re-bases the node
    ///   below it (a shift record), widens its touched region and
    ///   allocates its node and memo entry, innermost level first; level 0
    ///   leaves its results in the frame, which completes it;
    /// * when its element or its list call fails, its second alternative
    ///   runs in a frame of its own, which makes the level's node or
    ///   failure and memo entry; level 0 is the frame's own, which tries
    ///   its next alternative.
    ///
    /// While a child frame runs, the chain waits in its frame's pending
    /// term.
    #[inline(never)]
    pub(super) fn chain_run(
        &mut self,
        fi: usize,
        st: ChainSt,
        mut step: ChainStep,
    ) -> PResult<Flow> {
        let c = self.img.program.chains[st.chain as usize];
        let (x, pc) = (c.list, self.ws.frames[fi].ip);
        loop {
            step = match step {
                ChainStep::Wait(wait) => {
                    self.ws.frames[fi].pending = Pending::Chain(ChainSt { wait, ..st });
                    return Ok(Flow::Exec);
                }
                ChainStep::Elem(None) | ChainStep::Next(None) => ChainStep::Tail,
                ChainStep::Elem(Some(elem)) => {
                    let top = self.ws.levels.len() - 1;
                    let lv = &mut self.ws.levels[top];
                    // The element lies at offset 0: its `end` is `A.end`.
                    lv.elem = Some(elem.id);
                    lv.next = elem.end;
                    if elem.end != 0 {
                        lv.start = lv.start.min(elem.start);
                        lv.end = lv.end.max(elem.end);
                    }
                    let lv = *lv;
                    self.tick()?;
                    self.prof.instr(pc + 1);
                    if !(0..=lv.len as i64).contains(&lv.next) {
                        self.deepest.record(lv.base, x, Reason::Interval(x));
                        ChainStep::Tail
                    } else {
                        let (base, len) = (lv.base + lv.next as usize, lv.len - lv.next as usize);
                        // A chain's list and element rules are not local,
                        // so their calls are memoizable when memoizing.
                        match self.call_prologue(x, base, len, self.memoize)? {
                            Some(cached) => ChainStep::Next(cached),
                            None => {
                                self.ws.levels.push(Level::new(base, len));
                                self.tick()?;
                                self.prof.instr(pc);
                                self.chain_elem(c.elem, c.record)?
                            }
                        }
                    }
                }
                ChainStep::Next(Some(sub)) => {
                    let lv = self.ws.levels.pop().expect("a completing chain has a level");
                    let elem = lv.elem.expect("a level calls the list after its element");
                    let next = self.rebase(sub, lv.next);
                    let mut region = [lv.len as i64, lv.start, lv.end];
                    let (start, end) = (lv.next + next.start, lv.next + next.end);
                    upd_start_end(&mut region, start, end, next.end != 0);
                    if self.ws.levels.len() == st.first {
                        let f = &mut self.ws.frames[fi];
                        f.slots[..3].copy_from_slice(&region);
                        f.results[usize::from(c.elem_slot)] = Some(elem);
                        f.results[usize::from(c.next_slot)] = Some(next.id);
                        f.ip = f.ip_end;
                        return Ok(Flow::Exec);
                    }
                    self.prof.done(x, true);
                    let id = self.ws.arena.alloc_node(x, 0, &region, [elem, next.id], lv.base);
                    if self.memoize {
                        self.ws.memo.insert(x, lv.base, lv.len, Some(id));
                    }
                    ChainStep::Next(Some(id))
                }
                ChainStep::Tail => {
                    let lv = self.ws.levels[self.ws.levels.len() - 1];
                    if self.ws.levels.len() - 1 == st.first {
                        self.ws.levels.truncate(st.first);
                        return Ok(self.fail_alt(fi));
                    }
                    // The level's frame runs its second alternative.
                    self.push_frame(x, 1, lv.base, lv.len, NO_PARENT, self.memoize);
                    ChainStep::Wait(Wait::Tail)
                }
                ChainStep::Done(ret) => {
                    self.ws.levels.pop();
                    ChainStep::Next(ret)
                }
            };
        }
    }

    /// [`VmSession::begin_call`] of record `r`'s rule `nt` at offset `l`:
    /// the call's tick, hooks and memo look-up, then the record decoded in
    /// place ([`VmSession::decode`]), with the rule's node and memo entry,
    /// or the rule's frame when the fuel might not last through it. The
    /// rule is a chain's element, so not local.
    fn record_call(
        &mut self,
        nt: NtId,
        r: u32,
        base: usize,
        len: usize,
        l: i64,
    ) -> PResult<CallOutcome> {
        if let Some(cached) = self.call_prologue(nt, base, len, self.memoize)? {
            return Ok(CallOutcome::Done(cached.map(|id| self.rebase(id, l))));
        }
        let rec = self.img.program.records[r as usize];
        if self.steps.saturating_add(rec.steps()) > self.max_steps {
            self.push_frame(nt, 0, base, len, NO_PARENT, self.memoize);
            return Ok(CallOutcome::Pushed);
        }
        // The head's tick and hook, as the frame's `exec_top` pays them.
        self.steps += 1;
        self.prof.instr(rec.pc);
        let n = len as i64;
        let mut regs = [0; REC_REGS];
        regs[..3].copy_from_slice(&[n, n, 0]);
        let mut results = [None; REC_SLOTS];
        let ok = self.decode(&rec, base, len, &mut regs, &mut results);
        self.prof.done(nt, ok);
        let node = ok.then(|| {
            let slots = self.img.program.child_slots(rec.first_child, rec.n_children);
            let children = slots.iter().map(|&slot| child(&results, slot));
            self.ws.arena.alloc_node(nt, 0, &regs[..usize::from(rec.width)], children, base)
        });
        if self.memoize {
            self.ws.memo.insert(nt, base, len, node);
        }
        Ok(CallOutcome::Done(node.map(|id| self.rebase(id, l))))
    }

    /// Decodes record `rec` over `(base, len)`, its head's tick and hook
    /// paid and its registers loaded, as the instructions it covers would
    /// run: each op in order, with its tick and hooks; each literal's leaf
    /// and each field's builtin record into `results`, and its attributes
    /// into `regs`; the first op that fails — an interval out of bounds, a
    /// literal that does not match, a fixed-width field that does not
    /// fit, a guard that does not hold — records the failure the general
    /// instruction records and ends the run, leaving what it allocated.
    /// Returns whether every op succeeded. The caller has made sure the
    /// fuel lasts.
    fn decode(
        &mut self,
        rec: &Record,
        base: usize,
        len: usize,
        regs: &mut [i64],
        results: &mut [Option<TreeId>],
    ) -> bool {
        let p = &self.img.program;
        let input = self.input.as_ref();
        let n = len as i64;
        let ops = p.ops(rec);
        for (pc, op) in (rec.pc..).zip(ops) {
            if pc != rec.pc {
                self.steps += 1;
                self.prof.instr(pc);
            }
            let eval = |a: &Aff, regs: &[i64]| a.eval(&p.terms, regs);
            match op {
                &RecOp::Lit { lit, ref lo, ref hi, slot } => {
                    let (l, r) = (eval(lo, regs), eval(hi, regs));
                    // `at` is read only once the interval is valid.
                    let (at, blen) = (base + l.max(0) as usize, lit.len as usize);
                    let failure = if !(0 <= l && l <= r && r <= n) {
                        Some((base, Reason::TerminalInterval))
                    } else if r - l < blen as i64 {
                        Some((at, Reason::TerminalTooShort(lit.len)))
                    } else if input[at..at + blen] != *p.lit(lit) {
                        Some((at, Reason::TerminalMismatch(lit)))
                    } else {
                        None
                    };
                    if let Some((offset, reason)) = failure {
                        self.deepest.record(offset, rec.nt, reason);
                        return false;
                    }
                    results[usize::from(slot)] = Some(self.ws.arena.alloc_leaf(at, at + blen));
                    upd_start_end(regs, l, r, blen != 0);
                }
                &RecOp::Field { nt, builtin, width, ref lo, ref hi, slot, reg } => {
                    let (l, r) = (eval(lo, regs), eval(hi, regs));
                    if !(0 <= l && l <= r && r <= n) {
                        self.deepest.record(base, rec.nt, Reason::Interval(nt));
                        return false;
                    }
                    self.steps += 1;
                    self.prof.call(nt);
                    let (at, flen) = (base + l as usize, (r - l) as usize);
                    let decoded = match width {
                        Some(w) if flen < w as usize => None,
                        Some(w) => {
                            Some((decode_fixed(builtin, &input[at..at + w as usize]), w as usize))
                        }
                        None => Some((flen as i64, flen)),
                    };
                    let Some((val, consumed)) = decoded else {
                        // As a failing leaf call.
                        self.builtin_failed(nt, builtin, at, flen);
                        self.prof.done(nt, false);
                        return false;
                    };
                    self.prof.done(nt, true);
                    let id = self.ws.arena.alloc_builtin(nt, at, flen, consumed, l, val);
                    results[usize::from(slot)] = Some(id);
                    let end = l + consumed as i64;
                    let reg = usize::from(reg);
                    regs[reg..reg + 4].copy_from_slice(&[r - l, l, end, val]);
                    upd_start_end(regs, l, end, consumed > 0);
                }
                RecOp::Set { reg, form, .. } => regs[usize::from(*reg)] = form.eval(&p.terms, regs),
                RecOp::Guard { form } => {
                    if form.eval(&p.terms, regs) == 0 {
                        self.deepest.record(base, rec.nt, Reason::Predicate);
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Where the last byte scan's search stopped: scan `scan`, searching the
/// interval `[from, end)`, found its first stop byte (one that fails a
/// guard) at `stop`, or none if `stop == end`. Each nested level of a
/// scan that fell back runs the scan again on a suffix of the interval,
/// whose first stop byte is the same; this answers it without a second
/// search, which would make an unterminated string quadratic.
#[derive(Clone, Copy)]
pub(super) struct ScanStop {
    scan: u32,
    from: usize,
    end: usize,
    stop: usize,
}

impl ScanStop {
    pub(super) const NONE: ScanStop = ScanStop { scan: u32::MAX, from: 0, end: 0, stop: 0 };

    /// The offset from `base` of the first byte of `[base, base + len)`
    /// that scan `scan`, described by `s`, stops at, if there is one in
    /// the buffered `input`.
    fn find(
        &mut self,
        scan: u32,
        s: &ByteScan,
        input: &[u8],
        base: usize,
        len: usize,
    ) -> Option<usize> {
        let end = base + len;
        if (self.scan, self.end) != (scan, end) || !(self.from..=self.stop).contains(&base) {
            let window = input.get(base..end)?;
            let stop = window.iter().position(|&b| s.stop[usize::from(b)] != s.guards);
            *self = ScanStop { scan, from: base, end, stop: stop.map_or(end, |k| base + k) };
        }
        (self.stop < end).then(|| self.stop - base)
    }
}

/// The value of fixed-width builtin `b` over exactly its width of bytes.
#[inline]
fn decode_fixed(b: Builtin, bytes: &[u8]) -> i64 {
    match run_builtin(b, bytes) {
        Some((val, _)) => val,
        None => unreachable!("a field's bytes hold its builtin's width"),
    }
}
