//! The machine: a parse's frames, its calls and its instruction loop.

use super::bulk::{ChainSt, ChainStep, ScanStop, Wait};
use super::failure::{Deepest, Reason};
use super::session::Hint;
use super::workspace::Workspace;
use super::{Image, ParseTree};
use crate::arena::{Entry, TreeId};
use crate::builtin::run_builtin;
use crate::bytecode::{BExpr, ExprId, Instr, LitSpan, PRuleKind, NO_SLOT};
use crate::check::NtId;
use crate::error::{Error, Result};
use crate::intern::Sym;
use crate::interp::{eval_binop, ParseStats};
use crate::layout::{END_SLOT, EOI_SLOT, START_SLOT};
use crate::profile::ProfSink;
use crate::syntax::Builtin;
use std::ops::Deref;

/// Hard abort of the whole parse (mirror of the interpreter's `Abort`),
/// plus the streaming machine's suspension signal.
#[derive(Clone, Copy, Debug)]
pub(super) enum Abort {
    FuelExhausted,
    /// A streaming session must wait for more input. The machine state is
    /// left exactly at the blocked operation (any step ticks the retried
    /// operation will re-pay have been rewound); the [`Hint`] is parked in
    /// [`VmSession::suspend`].
    Suspend,
}

pub(super) type PResult<T> = std::result::Result<T, Abort>;

/// How a suspended machine re-enters execution (see [`Abort::Suspend`]).
#[derive(Clone, Copy, Debug)]
enum ResumeKind {
    /// Re-execute the top frame's current instruction (also covers a
    /// blocked root completion).
    Exec,
    /// Re-enter a `for` iteration whose state was stashed in
    /// [`Pending::Loop`].
    LoopIter,
}

pub(super) const NO_PARENT: u32 = u32::MAX;

/// What the main loop does next.
pub(super) enum Flow {
    /// Execute instructions of the top frame.
    Exec,
    /// A call completed; deliver its result to the top frame's pending
    /// term.
    Deliver(Option<TreeId>),
    /// The stack is empty; the parse is finished.
    Done(Option<TreeId>),
}

/// Outcome of [`VmSession::call`].
pub(super) enum CallOutcome {
    /// The result is already available (builtin, memo hit, blackbox, or a
    /// rule without alternatives), in the caller's coordinates.
    Done(Option<Ret>),
    /// A frame was pushed; the result will arrive via [`Flow::Deliver`].
    Pushed,
}

/// A callee's successful result as its caller sees it: the tree re-based
/// by the caller's offset `l` (rule T-NTSucc), and the callee-relative
/// `start`/`end` the caller widens its touched region with.
#[derive(Clone, Copy)]
pub(super) struct Ret {
    pub(super) id: TreeId,
    pub(super) start: i64,
    pub(super) end: i64,
}

/// In-flight state of a `for` term (the VM analogue of the interpreter's
/// array loop locals).
pub(super) struct LoopSt {
    slot: u16,
    /// Frame slot of the loop variable.
    var_slot: u16,
    k: i64,
    j: i64,
    nt: NtId,
    lo: ExprId,
    hi: ExprId,
    /// Left endpoint of the *current* iteration's interval.
    l: i64,
    elems: Vec<TreeId>,
}

/// In-flight state of a `star` term.
pub(super) struct StarSt {
    slot: u16,
    nt: NtId,
    l: i64,
    star_base: usize,
    star_len: usize,
    pos: usize,
    elems: Vec<TreeId>,
}

impl StarSt {
    /// Accept one delivered repetition; returns `false` when the
    /// repetition made no progress (which ends the star after it).
    fn push(&mut self, ret: Ret) -> bool {
        self.elems.push(ret.id);
        if ret.end == 0 {
            return false;
        }
        self.pos += ret.end as usize;
        true
    }
}

/// A term whose nonterminal call is waiting for a child frame.
pub(super) enum Pending {
    None,
    /// A `B[..]` symbol term or a selected switch case.
    Call {
        slot: u16,
        l: i64,
    },
    Loop(LoopSt),
    Star(StarSt),
    Chain(ChainSt),
}

/// One activation of a rule: the VM analogue of the interpreter's
/// `parse_alt` stack frame plus its `AltCtx`.
pub(super) struct Frame {
    pub(super) nt: NtId,
    pub(super) base: usize,
    pub(super) len: usize,
    /// Index of the rule's first alternative in the program's alt array.
    pub(super) alts_first: u32,
    /// One past the rule's last alternative.
    pub(super) alts_end: u32,
    /// The alternative currently being tried.
    pub(super) alt_cursor: u32,
    /// Next instruction, and one past the current alternative's last.
    pub(super) ip: u32,
    pub(super) ip_end: u32,
    /// Attribute and scoped-variable slots (`layout`): `EOI`,
    /// `start` and `end` first. A slot is written before it is read; the
    /// values a failed alternative left behind are never read.
    pub(super) slots: Vec<i64>,
    /// Result slots, indexed by written term position.
    pub(super) results: Vec<Option<TreeId>>,
    /// Frame index of the invoking alternative (local rules only);
    /// [`NO_PARENT`] otherwise.
    pub(super) parent: u32,
    pub(super) memoizable: bool,
    pub(super) pending: Pending,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            nt: NtId(0),
            base: 0,
            len: 0,
            alts_first: 0,
            alts_end: 0,
            alt_cursor: 0,
            ip: 0,
            ip_end: 0,
            slots: Vec::new(),
            results: Vec::new(),
            parent: NO_PARENT,
            memoizable: false,
            pending: Pending::None,
        }
    }
}

pub(super) struct VmSession<G, I, PS: ProfSink = ()> {
    /// The parser's image: borrowed by a one-shot parse, shared through
    /// its `Arc` by a streaming [`Session`](super::Session), which may
    /// outlive the parser.
    pub(super) img: G,
    /// The input bytes: a borrowed slice for one-shot parses, an owned
    /// growing buffer for streaming sessions.
    pub(super) input: I,
    /// The working storage, used in place: the frame stack
    /// (`frames[..depth]` live), the memo table, the chain levels, the
    /// builtin-failure set and the arena.
    pub(super) ws: Box<Workspace>,
    pub(super) memoize: bool,
    pub(super) steps: u64,
    memo_hits: u64,
    pub(super) max_steps: u64,
    pub(super) deepest: Deepest,
    depth: usize,
    /// Whether the root frame's input length is still open: a streaming
    /// session over an alternatives rule, before end-of-input. The root
    /// frame then carries `len == 0` and [`OPEN_LEN`] placeholders for
    /// `EOI` and `start` until [`VmSession::seal_root`] clears this, and
    /// its operations that read past the buffered prefix or consult the
    /// total length suspend instead of failing.
    root_open: bool,
    /// Parked suspension hint: set by a gated evaluation just before it
    /// returns "undefined", examined by the instruction handlers to
    /// distinguish "wait for input" from a genuine failure.
    pub(super) suspend: Option<Hint>,
    /// Number of suspensions taken (service telemetry).
    pub(super) suspend_count: u64,
    /// How to re-enter after [`Abort::Suspend`].
    resume: ResumeKind,
    /// Where the last byte scan's search stopped.
    pub(super) scan_stop: ScanStop,
    /// Profiling hooks: `()` (disabled — every call compiles away) for
    /// all plain entry points, `&mut Profiler` under
    /// [`VmParser::parse_profiled`](super::VmParser::parse_profiled).
    pub(super) prof: PS,
}

impl<G: Deref<Target = Image>, I: AsRef<[u8]>, PS: ProfSink> VmSession<G, I, PS> {
    /// A session over `input` that reads the image through `img`, in
    /// this thread's workspace.
    pub(super) fn new(img: G, input: I, memoize: bool, max_steps: u64, prof: PS) -> Self {
        let ws = Workspace::take(&img, memoize);
        VmSession {
            img,
            input,
            ws,
            memoize,
            steps: 0,
            memo_hits: 0,
            max_steps,
            deepest: Deepest::new(),
            depth: 0,
            root_open: false,
            suspend: None,
            suspend_count: 0,
            resume: ResumeKind::Exec,
            scan_stop: ScanStop::NONE,
            prof,
        }
    }

    pub(super) fn stats(&self) -> ParseStats {
        ParseStats {
            steps: self.steps,
            memo_hits: self.memo_hits,
            memo_entries: self.ws.memo.len(),
        }
    }

    /// The buffered input bytes.
    #[inline]
    pub(super) fn bytes(&self) -> &[u8] {
        self.input.as_ref()
    }

    #[inline]
    pub(super) fn tick(&mut self) -> PResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            Err(Abort::FuelExhausted)
        } else {
            Ok(())
        }
    }

    /// The frame a call of `callee` from frame `fi` inherits attributes
    /// from: `fi` for a local rule, none otherwise.
    fn parent_for(&self, callee: NtId, fi: usize) -> u32 {
        if self.img.program.rules[callee.0 as usize].is_local {
            fi as u32
        } else {
            NO_PARENT
        }
    }

    /// Whether calls of `nt` are memoized: with memoization on, every
    /// call of a rule that is not local.
    #[inline]
    pub(super) fn memoizable(&self, nt: NtId) -> bool {
        self.memoize && !self.img.program.rules[nt.0 as usize].is_local
    }

    /// Whether frame `fi` is a streaming session's open root, whose input
    /// length is not known before end-of-input.
    #[inline]
    pub(super) fn is_open_root(&self, fi: usize) -> bool {
        fi == 0 && self.root_open
    }

    /// What a parse that stopped at `stop` returns: its tree, which takes
    /// the arena, or its error, the deepest failure or, when the fuel ran
    /// out, the step limit where the parse had got to. A suspension
    /// passes through.
    pub(super) fn outcome(&mut self, stop: PResult<Option<TreeId>>) -> PResult<Result<ParseTree>> {
        let (g, p) = (&self.img.grammar, &self.img.program);
        Ok(match stop {
            Ok(Some(root)) => Ok(ParseTree { arena: std::mem::take(&mut self.ws.arena), root }),
            Ok(None) => Err(Error::Parse(self.deepest.render(g, p))),
            Err(Abort::FuelExhausted) => {
                Err(Error::Parse(self.deepest.exhausted(g, self.max_steps)))
            }
            Err(Abort::Suspend) => return Err(Abort::Suspend),
        })
    }

    /// Drives a one-shot session from the start rule to its end, hands its
    /// working storage back, and packages its result with its stats.
    pub(super) fn run_one_shot(mut self) -> (Result<ParseTree>, ParseStats) {
        let stop = self.run_root();
        let Ok(result) = self.outcome(stop) else {
            unreachable!("one-shot sessions never suspend")
        };
        let stats = self.stats();
        self.close();
        (result, stats)
    }

    /// Drives the machine from a root invocation of the start rule over
    /// the whole input to completion.
    pub(super) fn run_root(&mut self) -> PResult<Option<TreeId>> {
        let (nt, len) = (self.img.program.start_nt(), self.bytes().len());
        let flow = match self.call(nt, 0, len, 0, NO_PARENT)? {
            CallOutcome::Done(r) => return Ok(r.map(|r| r.id)),
            CallOutcome::Pushed => Flow::Exec,
        };
        self.drive(flow)
    }

    /// Runs the machine until it finishes (or aborts/suspends).
    fn drive(&mut self, mut flow: Flow) -> PResult<Option<TreeId>> {
        loop {
            flow = match flow {
                Flow::Exec => self.exec_top()?,
                Flow::Deliver(r) => self.resolve_top(r)?,
                Flow::Done(r) => return Ok(r),
            };
        }
    }

    /// Starts a streaming session over an open-length input: pushes the
    /// root frame of the start rule, an alternatives rule (counterpart of
    /// [`VmSession::begin_call`]'s `Alts` arm; builtin/blackbox roots are
    /// deferred to end-of-input by the session), and drives it. A rule
    /// without alternatives fails at once, as the one-shot machine does
    /// after its initial tick.
    pub(super) fn run_open_root(&mut self) -> PResult<Option<TreeId>> {
        self.tick()?;
        let nt = self.img.program.start_nt();
        let PRuleKind::Alts { count, .. } = self.img.program.rules[nt.0 as usize].kind else {
            unreachable!("open roots are only pushed for alternatives rules")
        };
        if count == 0 {
            return Ok(None);
        }
        // Length 0 is a placeholder until sealed; gated reads suspend
        // instead.
        self.push_frame(nt, 0, 0, 0, NO_PARENT, self.memoizable(nt));
        self.ws.frames[0].slots[..3].copy_from_slice(&[OPEN_LEN, OPEN_LEN, 0]);
        self.root_open = true;
        self.drive(Flow::Exec)
    }

    /// Re-enters a suspended machine at the operation that blocked, and
    /// drives it on.
    pub(super) fn resume(&mut self) -> PResult<Option<TreeId>> {
        let flow = match self.resume {
            ResumeKind::Exec => Flow::Exec,
            ResumeKind::LoopIter => {
                let fi = self.depth - 1;
                match std::mem::replace(&mut self.ws.frames[fi].pending, Pending::None) {
                    Pending::Loop(st) => self.loop_next(fi, st)?,
                    _ => unreachable!("LoopIter resume requires a stashed loop"),
                }
            }
        };
        self.drive(flow)
    }

    /// Seals the open root frame once the total input length is known:
    /// the placeholder length, `EOI` and `start` become real, and every
    /// suspension gate turns off.
    pub(super) fn seal_root(&mut self) {
        if !std::mem::take(&mut self.root_open) || self.depth == 0 {
            return;
        }
        let len = self.bytes().len();
        let f = &mut self.ws.frames[0];
        f.len = len;
        // `start` only ever shrinks via `min`, so taking the `min` with the
        // real length now commutes with every update made while open.
        f.slots[EOI_SLOT as usize] = len as i64;
        let start = &mut f.slots[START_SLOT as usize];
        *start = (*start).min(len as i64);
    }

    /// `s ⊢ A ⇓ R` at `(base, len)`, which lies at offset `l` in the
    /// caller's interval: every call site (symbol term, switch case, `for`
    /// and `star` element, and the root) invokes its callee here. A
    /// builtin runs in place ([`VmSession::leaf_call`]); any other rule
    /// goes through [`VmSession::begin_call`].
    ///
    /// The leaf path is inlined into every call site and the frame path
    /// kept out of line: a zip parse makes far more builtin calls than
    /// rule calls.
    #[inline(always)]
    pub(super) fn call(
        &mut self,
        nt: NtId,
        base: usize,
        len: usize,
        l: i64,
        parent: u32,
    ) -> PResult<CallOutcome> {
        match self.img.program.rules[nt.0 as usize].kind {
            PRuleKind::Builtin(b) => self.leaf_call(nt, b, base, len, l).map(CallOutcome::Done),
            _ => self.begin_call(nt, base, len, l, parent),
        }
    }

    /// A builtin leaf call, run inside the calling instruction: no frame,
    /// no memo entry. Builtins are never memoized by the VM: re-decoding a
    /// fixed-width integer costs less than a memo insert, hits are rare,
    /// and the step count is identical either way (a builtin has no
    /// internal ticks). The interpreter memoizes them; only the two
    /// engines' memo statistics differ, never steps, trees, or errors.
    ///
    /// Since no memo entry or other call site can share the node, it is
    /// born re-based by the caller's offset `l` (no shift record), and its
    /// callee-relative `start`/`end` come from the decode.
    #[inline(always)]
    fn leaf_call(
        &mut self,
        nt: NtId,
        b: Builtin,
        base: usize,
        len: usize,
        l: i64,
    ) -> PResult<Option<Ret>> {
        self.tick()?;
        self.prof.call(nt);
        let ret = match run_builtin(b, &self.input.as_ref()[base..base + len]) {
            Some((val, consumed)) => {
                // `{start ↦ len, end ↦ 0}` widened by `[0, consumed)` when
                // the builtin consumed anything.
                let (start, end) =
                    if consumed > 0 { (0, consumed as i64) } else { (len as i64, 0) };
                let id = self.ws.arena.alloc_builtin(nt, base, len, consumed, l, val);
                Some(Ret { id, start, end })
            }
            None => {
                self.builtin_failed(nt, b, base, len);
                None
            }
        };
        self.prof.done(nt, ret.is_some());
        Ok(ret)
    }

    /// Records the failure of builtin `b`, rule `nt`, over `(base, len)`,
    /// unless it already failed there: where the interpreter's memo would
    /// make a repeated failure a silent hit, the duplicate recording is
    /// suppressed so the deepest-failure error stays identical.
    pub(super) fn builtin_failed(&mut self, nt: NtId, b: Builtin, base: usize, len: usize) {
        if !self.memoizable(nt) || self.ws.builtin_failures.insert((nt, base, len)) {
            self.deepest.record(base, nt, Reason::Builtin(b));
        }
    }

    /// [`VmSession::call`] of any rule but a builtin: memo lookup, then
    /// direct evaluation (blackbox, rule without alternatives) or a frame
    /// push (rule with alternatives).
    #[inline(never)]
    fn begin_call(
        &mut self,
        nt: NtId,
        base: usize,
        len: usize,
        l: i64,
        parent: u32,
    ) -> PResult<CallOutcome> {
        let memoizable = self.memoizable(nt);
        if let Some(cached) = self.call_prologue(nt, base, len, memoizable)? {
            return Ok(CallOutcome::Done(cached.map(|id| self.rebase(id, l))));
        }
        match self.img.program.rules[nt.0 as usize].kind {
            PRuleKind::Builtin(_) => unreachable!("builtins run in place (`leaf_call`)"),
            PRuleKind::Blackbox(idx) => {
                let r = self.blackbox_result(nt, idx as usize, base, len);
                self.prof.done(nt, r.is_some());
                if memoizable {
                    self.ws.memo.insert(nt, base, len, r);
                }
                Ok(CallOutcome::Done(r.map(|id| self.rebase(id, l))))
            }
            PRuleKind::Alts { count, .. } => {
                if count == 0 {
                    self.prof.done(nt, false);
                    if memoizable {
                        self.ws.memo.insert(nt, base, len, None);
                    }
                    return Ok(CallOutcome::Done(None));
                }
                self.push_frame(nt, 0, base, len, parent, memoizable);
                Ok(CallOutcome::Pushed)
            }
        }
    }

    /// The prologue of a call of `nt` over `(base, len)`: its tick and
    /// profile hook, then, when the call is `memoizable`, its memo
    /// look-up, which gives the cached result, not yet re-based, on a hit.
    #[inline(always)]
    pub(super) fn call_prologue(
        &mut self,
        nt: NtId,
        base: usize,
        len: usize,
        memoizable: bool,
    ) -> PResult<Option<Option<TreeId>>> {
        self.tick()?;
        self.prof.call(nt);
        if !memoizable {
            return Ok(None);
        }
        let cached = self.ws.memo.get(nt, base, len);
        self.memo_hits += u64::from(cached.is_some());
        self.prof.memo(nt, cached.is_some());
        Ok(cached)
    }

    /// Pushes a frame running alternative `alt` (counted from the rule's
    /// first) of rule `nt` over `(base, len)`: the end of
    /// [`VmSession::begin_call`] once its memo look-up missed, and where a
    /// chain hands a level or an element to the general instructions.
    #[inline(always)]
    pub(super) fn push_frame(
        &mut self,
        nt: NtId,
        alt: u32,
        base: usize,
        len: usize,
        parent: u32,
        memoizable: bool,
    ) {
        let PRuleKind::Alts { first, count } = self.img.program.rules[nt.0 as usize].kind else {
            unreachable!("frames run rules with alternatives")
        };
        let a = self.img.program.alts[(first + alt) as usize];
        if self.depth == self.ws.frames.len() {
            self.ws.frames.push(Frame::default());
        }
        let width = self.img.layouts.rules[nt.0 as usize].frame_width;
        let f = &mut self.ws.frames[self.depth];
        f.nt = nt;
        f.base = base;
        f.len = len;
        f.alts_first = first;
        f.alts_end = first + count;
        f.alt_cursor = first + alt;
        f.ip = a.first;
        f.ip_end = a.first + a.count;
        init_slots(&mut f.slots, width, len as i64);
        f.results.clear();
        f.results.resize(a.n_slots as usize, None);
        f.parent = parent;
        f.memoizable = memoizable;
        f.pending = Pending::None;
        self.depth += 1;
    }

    /// A rule's result in its caller's coordinates: its callee-relative
    /// `start`/`end`, read back from the record, and the record re-based
    /// by `l` — a shift record, since a memoized result may be shared.
    pub(super) fn rebase(&mut self, id: TreeId, l: i64) -> Ret {
        let (start, end) = self.ws.arena.start_end(id);
        Ret { id: self.ws.arena.adjust(id, l), start, end }
    }

    fn blackbox_result(&mut self, nt: NtId, idx: usize, base: usize, len: usize) -> Option<TreeId> {
        let g = &self.img.grammar;
        let bb = &g.blackboxes()[idx];
        let local = &self.input.as_ref()[base..base + len];
        match (bb.run)(local) {
            Ok(res) => {
                let shape = self.img.layouts.node_shape(nt, 0);
                let consumed = res.consumed.min(len);
                let fill = |attrs: &mut [i64]| {
                    attrs[..3].copy_from_slice(&[len as i64, len as i64, 0]);
                    upd_start_end(attrs, 0, consumed as i64, consumed > 0);
                    // A blackbox returning fewer values than it declares
                    // breaks its contract; the missing values read as 0.
                    for (name, value) in bb.attrs.iter().zip(&res.attr_values) {
                        let sym = g.attr_sym(name);
                        if let Some(b) = shape.iter().find(|b| Some(b.sym) == sym) {
                            attrs[b.slot as usize] = *value;
                        }
                    }
                };
                Some(self.ws.arena.alloc_blackbox(nt, shape.len(), fill, res.data, base))
            }
            Err(msg) => {
                self.deepest.record(base, nt, Reason::Blackbox(msg));
                None
            }
        }
    }

    /// Executes instructions of the top frame until it blocks on a child
    /// call, completes, or fails.
    fn exec_top(&mut self) -> PResult<Flow> {
        loop {
            let fi = self.depth - 1;
            let (ip, ip_end) = {
                let f = &self.ws.frames[fi];
                (f.ip, f.ip_end)
            };
            let flow = if ip == ip_end {
                self.complete_top()?
            } else {
                self.tick()?;
                self.prof.instr(ip);
                match self.img.program.code[ip as usize] {
                    Instr::Match { lit, lo, hi, slot } => self.exec_match(fi, lit, lo, hi, slot)?,
                    Instr::Call { nt, lo, hi, slot } => self.dispatch_call(fi, nt, lo, hi, slot)?,
                    Instr::Set { attr, attr_slot, expr } => {
                        self.exec_set(fi, attr, attr_slot, expr)?
                    }
                    Instr::Guard { expr } => self.exec_guard(fi, expr)?,
                    Instr::Loop { var_slot, from, to, nt, lo, hi, slot, .. } => {
                        self.exec_loop(fi, var_slot, from, to, nt, lo, hi, slot)?
                    }
                    Instr::Star { nt, lo, hi, slot } => self.exec_star(fi, nt, lo, hi, slot)?,
                    Instr::Switch { first, count, slot } => {
                        self.exec_switch(fi, first, count, slot)?
                    }
                    Instr::Record { rec } => self.exec_record(fi, rec)?,
                    Instr::Scan { scan } => self.exec_scan(fi, scan)?,
                    Instr::Chain { chain } => self.exec_chain(fi, chain)?,
                }
            };
            match flow {
                // Either the same frame continues (next instruction or
                // next alternative) or a child frame was pushed — both
                // mean "execute the current top frame".
                Flow::Exec => continue,
                other => return Ok(other),
            }
        }
    }

    /// The current alternative failed: try the next one, or fail the rule.
    pub(super) fn fail_alt(&mut self, fi: usize) -> Flow {
        let p = &self.img.program;
        let open = self.is_open_root(fi);
        let f = &mut self.ws.frames[fi];
        f.alt_cursor += 1;
        if f.alt_cursor < f.alts_end {
            let alt = p.alts[f.alt_cursor as usize];
            f.ip = alt.first;
            f.ip_end = alt.first + alt.count;
            let len = if open { OPEN_LEN } else { f.len as i64 };
            f.slots[..3].copy_from_slice(&[len, len, 0]);
            f.results.clear();
            f.results.resize(alt.n_slots as usize, None);
            f.pending = Pending::None;
            Flow::Exec
        } else {
            self.depth -= 1;
            let f = &mut self.ws.frames[self.depth];
            f.pending = Pending::None;
            if f.memoizable {
                let (nt, base, len) = (f.nt, f.base, f.len);
                self.ws.memo.insert(nt, base, len, None);
            }
            let failed = self.ws.frames[self.depth].nt;
            self.prof.done(failed, false);
            if self.depth == 0 {
                Flow::Done(None)
            } else {
                Flow::Deliver(None)
            }
        }
    }

    /// All terms of the current alternative succeeded: build the node.
    ///
    /// An open root may not complete before end-of-input: its node would
    /// freeze a placeholder `EOI`/`start`, and a longer input could still
    /// arrive. The caller sees this as a suspension (no step to rewind —
    /// completion does not tick).
    fn complete_top(&mut self) -> PResult<Flow> {
        if self.is_open_root(self.depth - 1) {
            self.suspend = Some(Hint::UntilEnd);
            return Err(self.suspend_here(0, ResumeKind::Exec));
        }
        self.depth -= 1;
        let f = &mut self.ws.frames[self.depth];
        let (nt, base, len) = (f.nt, f.base, f.len);
        let alt_index = f.alt_cursor - f.alts_first;
        let memoizable = f.memoizable;
        f.pending = Pending::None;
        self.prof.done(nt, true);
        let f = &self.ws.frames[self.depth];
        let width = self.img.layouts.rules[nt.0 as usize].width as usize;
        let alt = self.img.program.alts[f.alt_cursor as usize];
        let slots = self.img.program.child_slots(alt.first_child, alt.n_children);
        let children = slots.iter().map(|&slot| child(&f.results, slot));
        let id = self.ws.arena.alloc_node(nt, alt_index, &f.slots[..width], children, base);
        if memoizable {
            self.ws.memo.insert(nt, base, len, Some(id));
        }
        if self.depth == 0 {
            Ok(Flow::Done(Some(id)))
        } else {
            Ok(Flow::Deliver(Some(id)))
        }
    }

    /// Finalizes a suspension: rewinds the `rewind` step ticks the
    /// retried operation will pay again on resume, counts it, and
    /// remembers how to re-enter. The hint must already be parked in
    /// [`VmSession::suspend`] (gated evaluations do that themselves).
    #[cold]
    fn suspend_here(&mut self, rewind: u64, resume: ResumeKind) -> Abort {
        debug_assert!(self.suspend.is_some());
        self.steps -= rewind;
        self.suspend_count += 1;
        self.resume = resume;
        Abort::Suspend
    }

    /// An operand of frame `fi`'s current instruction was undefined: a
    /// suspension when a gated evaluation parked a hint (the instruction
    /// re-executes on resume, so its `exec_top` tick is rewound), and
    /// otherwise a failure with `reason` at the frame's base, which fails
    /// the alternative.
    fn undefined(&mut self, fi: usize, reason: Reason) -> PResult<Flow> {
        if self.suspend.is_some() {
            return Err(self.suspend_here(1, ResumeKind::Exec));
        }
        let f = &self.ws.frames[fi];
        let (base, nt) = (f.base, f.nt);
        self.deepest.record(base, nt, reason);
        Ok(self.fail_alt(fi))
    }

    /// A child call finished; resume the pending term of the top frame.
    fn resolve_top(&mut self, ret: Option<TreeId>) -> PResult<Flow> {
        let fi = self.depth - 1;
        match std::mem::replace(&mut self.ws.frames[fi].pending, Pending::None) {
            Pending::Call { slot, l } => {
                let ret = ret.map(|sub| self.rebase(sub, l));
                Ok(self.finish_call(fi, slot, l, ret))
            }
            Pending::Loop(mut st) => match ret {
                Some(sub) => {
                    let ret = self.rebase(sub, st.l);
                    self.loop_push(fi, &mut st, ret);
                    self.loop_next(fi, st)
                }
                None => Ok(self.fail_alt(fi)),
            },
            Pending::Star(mut st) => match ret {
                Some(sub) => {
                    let ret = self.rebase(sub, st.l + st.pos as i64);
                    if st.push(ret) {
                        self.star_next(fi, st)
                    } else {
                        Ok(self.finish_star(fi, st))
                    }
                }
                None => Ok(self.finish_star(fi, st)),
            },
            Pending::Chain(st) => {
                let step = match st.wait {
                    Wait::Elem => ChainStep::Elem(ret.map(|sub| self.rebase(sub, 0))),
                    // The level's node, if any, and its memo entry are its
                    // frame's.
                    Wait::Tail => ChainStep::Done(ret),
                };
                self.chain_run(fi, st, step)
            }
            Pending::None => unreachable!("result delivered with no pending term"),
        }
    }

    pub(super) fn exec_match(
        &mut self,
        fi: usize,
        lit: LitSpan,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.ws.frames[fi];
            (f.base, f.nt)
        };
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            return self.undefined(fi, Reason::TerminalInterval);
        };
        let blen = lit.len as usize;
        // T-Ter: 0 ≤ l ≤ r ≤ |s|, r − l ≥ |s1|, s[l, l+|s1|] = s1.
        if r - l < blen as i64 {
            self.deepest.record(base + l as usize, nt, Reason::TerminalTooShort(lit.len));
            return Ok(self.fail_alt(fi));
        }
        let al = base + l as usize;
        let bytes = self.img.program.lit(lit);
        if self.bytes()[al..al + blen] != *bytes {
            self.deepest.record(al, nt, Reason::TerminalMismatch(lit));
            return Ok(self.fail_alt(fi));
        }
        let leaf = self.ws.arena.alloc_leaf(al, al + blen);
        let f = &mut self.ws.frames[fi];
        upd_start_end(&mut f.slots, l, r, blen != 0);
        f.results[slot as usize] = Some(leaf);
        f.ip += 1;
        Ok(Flow::Exec)
    }

    pub(super) fn exec_set(
        &mut self,
        fi: usize,
        attr: Sym,
        attr_slot: u16,
        expr: ExprId,
    ) -> PResult<Flow> {
        match self.eval(expr, fi) {
            Some(v) => {
                let f = &mut self.ws.frames[fi];
                f.slots[attr_slot as usize] = v;
                f.ip += 1;
                Ok(Flow::Exec)
            }
            None => self.undefined(fi, Reason::Attr(attr)),
        }
    }

    pub(super) fn exec_guard(&mut self, fi: usize, expr: ExprId) -> PResult<Flow> {
        match self.eval(expr, fi) {
            Some(v) if v != 0 => {
                self.ws.frames[fi].ip += 1;
                Ok(Flow::Exec)
            }
            Some(_) => {
                let f = &self.ws.frames[fi];
                self.deepest.record(f.base, f.nt, Reason::Predicate);
                Ok(self.fail_alt(fi))
            }
            None => self.undefined(fi, Reason::PredicateEval),
        }
    }

    /// T-NTSucc / T-NTFail for a symbol term or selected switch case:
    /// evaluate the interval and invoke the callee.
    pub(super) fn dispatch_call(
        &mut self,
        fi: usize,
        callee: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            return self.undefined(fi, Reason::Interval(callee));
        };
        let base = self.ws.frames[fi].base;
        let parent = self.parent_for(callee, fi);
        match self.call(callee, base + l as usize, (r - l) as usize, l, parent)? {
            CallOutcome::Pushed => {
                self.ws.frames[fi].pending = Pending::Call { slot, l };
                Ok(Flow::Exec)
            }
            CallOutcome::Done(ret) => Ok(self.finish_call(fi, slot, l, ret)),
        }
    }

    /// Caller-side completion of a symbol/switch call at offset `l`: keep
    /// the re-based result and widen the caller's touched region.
    fn finish_call(&mut self, fi: usize, slot: u16, l: i64, ret: Option<Ret>) -> Flow {
        match ret {
            Some(ret) => {
                let f = &mut self.ws.frames[fi];
                upd_start_end(&mut f.slots, l + ret.start, l + ret.end, ret.end != 0);
                f.results[slot as usize] = Some(ret.id);
                f.ip += 1;
                Flow::Exec
            }
            None => self.fail_alt(fi),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &mut self,
        fi: usize,
        var_slot: u16,
        from: ExprId,
        to: ExprId,
        nt: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (Some(i), Some(j)) = (self.eval(from, fi), self.eval(to, fi)) else {
            return self.undefined(fi, Reason::ArrayBounds);
        };
        let len = self.ws.frames[fi].len;
        let mut elems = Vec::new();
        if j > i {
            // `abs_diff`: the bounds may be more than `i64::MAX` apart.
            elems.reserve(j.abs_diff(i).min(len as u64 + 1) as usize);
        }
        self.ws.frames[fi].slots[var_slot as usize] = i;
        self.loop_next(fi, LoopSt { slot, var_slot, k: i, j, nt, lo, hi, l: 0, elems })
    }

    /// One iteration step of a `for` term (entered fresh and after every
    /// delivered element).
    fn loop_next(&mut self, fi: usize, mut st: LoopSt) -> PResult<Flow> {
        loop {
            if st.k >= st.j {
                let id = self.ws.arena.alloc_array(st.nt, st.elems.iter().copied());
                let f = &mut self.ws.frames[fi];
                f.results[st.slot as usize] = Some(id);
                f.ip += 1;
                return Ok(Flow::Exec);
            }
            self.tick()?;
            self.ws.frames[fi].slots[st.var_slot as usize] = st.k;
            let (base, caller) = {
                let f = &self.ws.frames[fi];
                (f.base, f.nt)
            };
            let Some((l, r)) = self.eval_interval(st.lo, st.hi, fi) else {
                if self.suspend.is_some() {
                    // Stash the iteration state; resume re-enters this
                    // loop step (re-paying the iteration tick rewound
                    // here). The loop variable keeps its slot.
                    self.ws.frames[fi].pending = Pending::Loop(st);
                    return Err(self.suspend_here(1, ResumeKind::LoopIter));
                }
                self.deepest.record(base, caller, Reason::Interval(st.nt));
                return Ok(self.fail_alt(fi));
            };
            st.l = l;
            let parent = self.parent_for(st.nt, fi);
            match self.call(st.nt, base + l as usize, (r - l) as usize, l, parent)? {
                CallOutcome::Pushed => {
                    self.ws.frames[fi].pending = Pending::Loop(st);
                    return Ok(Flow::Exec);
                }
                CallOutcome::Done(Some(ret)) => self.loop_push(fi, &mut st, ret),
                CallOutcome::Done(None) => return Ok(self.fail_alt(fi)),
            }
        }
    }

    /// Accept one delivered loop element (mirror of the interpreter's
    /// per-iteration `call_nt_on_interval` tail).
    fn loop_push(&mut self, fi: usize, st: &mut LoopSt, ret: Ret) {
        let f = &mut self.ws.frames[fi];
        upd_start_end(&mut f.slots, st.l + ret.start, st.l + ret.end, ret.end != 0);
        st.elems.push(ret.id);
        st.k += 1;
    }

    fn exec_star(
        &mut self,
        fi: usize,
        nt: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            return self.undefined(fi, Reason::StarInterval);
        };
        let base = self.ws.frames[fi].base;
        let st = StarSt {
            slot,
            nt,
            l,
            star_base: base + l as usize,
            star_len: (r - l) as usize,
            pos: 0,
            elems: Vec::new(),
        };
        self.star_next(fi, st)
    }

    /// One repetition step of a `star` term: the next repetition starts
    /// where the previous one ended.
    fn star_next(&mut self, fi: usize, mut st: StarSt) -> PResult<Flow> {
        loop {
            self.tick()?;
            if st.pos > st.star_len {
                return Ok(self.finish_star(fi, st));
            }
            let parent = self.parent_for(st.nt, fi);
            let (base, len, l) =
                (st.star_base + st.pos, st.star_len - st.pos, st.l + st.pos as i64);
            match self.call(st.nt, base, len, l, parent)? {
                CallOutcome::Pushed => {
                    self.ws.frames[fi].pending = Pending::Star(st);
                    return Ok(Flow::Exec);
                }
                CallOutcome::Done(Some(ret)) => {
                    if !st.push(ret) {
                        return Ok(self.finish_star(fi, st));
                    }
                }
                CallOutcome::Done(None) => return Ok(self.finish_star(fi, st)),
            }
        }
    }

    fn finish_star(&mut self, fi: usize, st: StarSt) -> Flow {
        let caller = self.ws.frames[fi].nt;
        if st.elems.is_empty() {
            self.deepest.record(st.star_base, caller, Reason::StarEmpty(st.nt));
            return self.fail_alt(fi);
        }
        let id = self.ws.arena.alloc_array(st.nt, st.elems.iter().copied());
        let f = &mut self.ws.frames[fi];
        upd_start_end(&mut f.slots, st.l, st.l + st.pos as i64, st.pos > 0);
        f.results[st.slot as usize] = Some(id);
        f.ip += 1;
        Flow::Exec
    }

    fn exec_switch(&mut self, fi: usize, first: u32, count: u16, slot: u16) -> PResult<Flow> {
        let mut selected = None;
        for i in first as usize..first as usize + count as usize {
            let case = self.img.program.cases[i];
            match case.cond {
                Some(c) => match self.eval(c, fi) {
                    Some(0) => continue,
                    Some(_) => {
                        selected = Some(case);
                        break;
                    }
                    None => break,
                },
                None => {
                    selected = Some(case);
                    break;
                }
            }
        }
        match selected {
            Some(case) => self.dispatch_call(fi, case.nt, case.lo, case.hi, slot),
            None => self.undefined(fi, Reason::SwitchGuard),
        }
    }

    /// Evaluates an interval, valid only when `0 ≤ l ≤ r ≤ len`.
    ///
    /// In the open root frame of a streaming session the total length is
    /// not known yet: `0 ≤ l ≤ r` is still decidable, but `r ≤ len` is
    /// not. An `r` within the buffered prefix is guaranteed valid (the
    /// final length can only be larger); an `r` beyond it parks a
    /// byte-count hint and reads as "undefined" so the instruction
    /// handler suspends instead of failing.
    fn eval_interval(&mut self, lo: ExprId, hi: ExprId, fi: usize) -> Option<(i64, i64)> {
        let l = self.eval(lo, fi)?;
        let r = self.eval(hi, fi)?;
        if self.is_open_root(fi) {
            if !(0 <= l && l <= r) {
                return None;
            }
            let avail = self.bytes().len() as i64;
            if r > avail {
                self.suspend = Some(Hint::Bytes((r - avail) as usize));
                return None;
            }
            return Some((l, r));
        }
        let len = self.ws.frames[fi].len;
        if 0 <= l && l <= r && r <= len as i64 {
            Some((l, r))
        } else {
            None
        }
    }

    /// `σ(E, Tr, e)` over the flat expression pool; `None` when undefined.
    /// The leaf cases inline into the interval-evaluation hot path; the
    /// recursive cases live in [`VmSession::eval_complex`].
    #[inline(always)]
    fn eval(&mut self, e: ExprId, fi: usize) -> Option<i64> {
        match self.img.program.exprs[e.0 as usize] {
            BExpr::Num(n) => Some(n),
            BExpr::Eoi => self.eval_eoi(fi),
            BExpr::Local { sym, slot } => self.read_local(fi, sym, slot),
            BExpr::NtAttr { slot, nt, attr_slot, .. } => {
                let id = self.ws.frames[fi].results[slot as usize]?;
                self.ws.arena.node_attr(id, nt, attr_slot)
            }
            _ => self.eval_complex(e, fi),
        }
    }

    #[inline(never)]
    fn eval_complex(&mut self, e: ExprId, fi: usize) -> Option<i64> {
        match self.img.program.exprs[e.0 as usize] {
            BExpr::Num(_) | BExpr::Eoi | BExpr::Local { .. } | BExpr::NtAttr { .. } => {
                unreachable!("`eval` evaluates the leaf expressions")
            }
            BExpr::Bin(op, a, b) => {
                let a = self.eval(a, fi)?;
                let b = self.eval(b, fi)?;
                eval_binop(op, a, b)
            }
            BExpr::Cond(c, t, f) => {
                if self.eval(c, fi)? != 0 {
                    self.eval(t, fi)
                } else {
                    self.eval(f, fi)
                }
            }
            BExpr::ElemAttr { slot, nt, index, attr_slot, .. } => {
                let k = self.eval(index, fi)?;
                let id = self.ws.frames[fi].results[slot as usize]?;
                self.elem_attr(id, nt, k, attr_slot)
            }
            BExpr::OuterAttr { nt, attr_slot, .. } => {
                let id = self.lookup_outer(fi, |e| match e {
                    Entry::Node(n) => n.nt == nt,
                    Entry::Builtin(b) => b.nt == nt,
                    Entry::Blackbox(b) => b.nt == nt,
                    _ => false,
                })?;
                self.ws.arena.node_attr(id, nt, attr_slot)
            }
            BExpr::OuterElem { nt, index, attr_slot, .. } => {
                let k = self.eval(index, fi)?;
                let arr = self.lookup_outer(fi, |e| matches!(e, Entry::Array(a) if a.nt == nt))?;
                self.elem_attr(arr, nt, k, attr_slot)
            }
            BExpr::Exists { var_slot, slot, nt, cond, then, els, .. } => {
                // Only the element *count* is needed up front, as in the
                // interpreter.
                let id = match slot {
                    Some(sl) => self.ws.frames[fi].results[sl as usize]?,
                    None => {
                        self.lookup_outer(fi, |e| matches!(e, Entry::Array(a) if a.nt == nt))?
                    }
                };
                let n = match self.ws.arena.entry(id) {
                    Entry::Array(a) if a.nt == nt => a.elems.len as usize,
                    _ => return None,
                };
                // The variable's slot is in scope for `cond` and `then`
                // only; `els` cannot read it.
                let mut found: Option<i64> = None;
                for k in 0..n {
                    self.ws.frames[fi].slots[var_slot as usize] = k as i64;
                    match self.eval(cond, fi)? {
                        0 => continue,
                        _ => {
                            found = Some(k as i64);
                            break;
                        }
                    }
                }
                match found {
                    Some(k) => {
                        self.ws.frames[fi].slots[var_slot as usize] = k;
                        self.eval(then, fi)
                    }
                    None => self.eval(els, fi),
                }
            }
        }
    }

    /// Attribute `attr_slot` of element `k` of `id`, if `id` is an array
    /// of `nt`s with one.
    fn elem_attr(&self, id: TreeId, nt: NtId, k: i64, attr_slot: u16) -> Option<i64> {
        let Entry::Array(a) = self.ws.arena.entry(id) else { return None };
        if a.nt != nt || k < 0 {
            return None;
        }
        let elem = *self.ws.arena.child_ids(a.elems).get(k as usize)?;
        self.ws.arena.node_attr(elem, nt, attr_slot)
    }

    /// `EOI` of the frame's own input. The open root's length is not
    /// known before end-of-input: park an until-end hint and read as
    /// "undefined" so the caller suspends.
    #[inline]
    fn eval_eoi(&mut self, fi: usize) -> Option<i64> {
        if self.is_open_root(fi) {
            self.suspend = Some(Hint::UntilEnd);
            return None;
        }
        Some(self.ws.frames[fi].slots[EOI_SLOT as usize])
    }

    /// A plain attribute or variable read (mirror of
    /// `AltCtx::lookup_local`): the frame's own slot when it binds `sym`
    /// at this read, else the invoking alternatives' bindings.
    ///
    /// Every frame binds its own `EOI`/`start`, so those two never fall
    /// through to an outer frame — which means the open-root gate below
    /// can only fire for the root's own terms (`fi == 0`), where the
    /// placeholders must not be read before sealing.
    #[inline]
    fn read_local(&mut self, fi: usize, sym: Sym, slot: u16) -> Option<i64> {
        if slot == NO_SLOT {
            return self.lookup_inherited(fi, sym);
        }
        if slot <= START_SLOT && self.is_open_root(fi) {
            self.suspend = Some(Hint::UntilEnd);
            return None;
        }
        Some(self.ws.frames[fi].slots[slot as usize])
    }

    /// `sym` as bound in the invoking alternatives of frame `fi`, nearest
    /// first. A parent is suspended at the instruction that called down
    /// the chain: a `for` variable is in scope while that instruction is
    /// its loop, and an attribute once its first `Set` lies before it.
    fn lookup_inherited(&self, fi: usize, sym: Sym) -> Option<i64> {
        let mut i = self.ws.frames[fi].parent;
        while i != NO_PARENT {
            let f = &self.ws.frames[i as usize];
            if let Instr::Loop { var, var_slot, .. } = self.img.program.code[f.ip as usize] {
                if var == sym {
                    return Some(f.slots[var_slot as usize]);
                }
            }
            let shape = self.img.layouts.shape(f.alt_cursor);
            if let Some(b) = shape.iter().find(|b| b.sym == sym && b.bound_from <= f.ip) {
                return Some(f.slots[b.slot as usize]);
            }
            i = f.parent;
        }
        None
    }

    /// The most recently written result that `wanted` accepts in frame
    /// `fi`'s context chain (mirror of `AltCtx::lookup_outer_node` and
    /// `AltCtx::lookup_outer_array`).
    fn lookup_outer(&self, fi: usize, wanted: impl Fn(Entry) -> bool) -> Option<TreeId> {
        let mut i = fi as u32;
        loop {
            let f = &self.ws.frames[i as usize];
            if let Some(id) =
                f.results.iter().rev().flatten().find(|&&id| wanted(self.ws.arena.entry(id)))
            {
                return Some(*id);
            }
            if f.parent == NO_PARENT {
                return None;
            }
            i = f.parent;
        }
    }
}

/// Placeholder value of `EOI`/`start` in the root frame of a streaming
/// session before end-of-input (see [`VmSession::seal_root`]).
const OPEN_LEN: i64 = i64::MAX;

/// Readies a frame's slots for an alternative over an input of length
/// `len`: `{EOI ↦ len, start ↦ len, end ↦ 0}` (rule R-AltSucc), the other
/// slots left for the alternative to write.
#[inline]
fn init_slots(slots: &mut Vec<i64>, frame_width: u16, len: i64) {
    if slots.len() < frame_width as usize {
        slots.resize(frame_width as usize, 0);
    }
    slots[..3].copy_from_slice(&[len, len, 0]);
}

/// The child a completed alternative left in result slot `slot`: every
/// child slot ([`Program::child_slots`]) holds its term's result once the
/// alternative's terms all succeeded.
///
/// [`Program::child_slots`]: crate::bytecode::Program::child_slots
#[inline]
pub(super) fn child(results: &[Option<TreeId>], slot: u16) -> TreeId {
    results[usize::from(slot)].expect("a completed alternative filled its child slots")
}

/// `updStartEnd(E, l, r, b)` on slots: when `b` holds, widen the touched
/// region to include `[l, r)`.
#[inline]
pub(super) fn upd_start_end(slots: &mut [i64], l: i64, r: i64, b: bool) {
    if b {
        let s = &mut slots[START_SLOT as usize];
        *s = (*s).min(l);
        let e = &mut slots[END_SLOT as usize];
        *e = (*e).max(r);
    }
}

impl<G, I, PS: ProfSink> VmSession<G, I, PS> {
    /// Ends the session, handing its working storage back to the thread
    /// (see [`Workspace`]).
    pub(super) fn close(self) {
        self.ws.give_back(self.depth);
    }
}
