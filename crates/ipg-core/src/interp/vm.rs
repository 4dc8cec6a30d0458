//! The bytecode VM: IPG parsing over a compiled [`Program`] with an
//! explicit work stack and arena-allocated parse trees.
//!
//! This engine implements exactly the parsing semantics of the
//! tree-walking interpreter in [`crate::interp`] (Fig. 8 and Fig. 15 of
//! the paper) — biased choice, `start`/`end` bookkeeping, per-`(A, base,
//! len)` memoization, local-rule environment inheritance — but differs in
//! *how* it runs:
//!
//! * **check → lower → bytecode**: [`crate::bytecode::compile`] flattens
//!   the checked grammar into dense instruction/expression pools once per
//!   grammar, so the parse loop follows `u32` ids instead of chasing
//!   `Rc<Expr>` pointers and never hashes a name.
//! * **Explicit work stack**: nonterminal calls push [`Frame`]s onto a
//!   `Vec` instead of recursing, so deeply nested inputs cannot overflow
//!   the native stack and frame storage (attribute and result slots) is
//!   recycled across calls — and across parses: the frame stack, memo
//!   tables and an arena live in one boxed per-thread `Workspace`, which
//!   a parse takes from the thread's slot and puts back with one pointer
//!   swap each way, works in in place, and clears only where it was used.
//!   A successful parse's arena leaves with its [`ParseTree`] and comes
//!   back when the tree drops. The deepest failure is kept as an
//!   unrendered `Reason` and becomes a [`ParseError`] only when a parse
//!   returns it, its nonterminal and message rendered into one
//!   exactly-sized `String` each. A failing parse thus allocates those
//!   two strings and the element lists of the `for`/`star` terms it runs,
//!   and a successful one that follows a dropped tree only the lists.
//! * **Leaf calls**: a builtin callee runs inside the calling instruction
//!   — no frame, no memo entry — and its result is one compact arena
//!   record, born re-based into the caller's coordinates, so it needs no
//!   shift record.
//! * **Records**: a run of literals, builtin fields, guards and sets whose
//!   endpoints, guards and sets are affine in earlier values (a header:
//!   `"PK\x03\x04"[0, 4] U16[8, 10] {method = U16.val} …`) is one
//!   [`Instr::Record`] at its head's pc. When the fuel lasts and the frame
//!   is not a streaming session's open root, it loads the frame's
//!   attributes and the siblings' it reads into registers once and
//!   decodes the run op by op, each op with the tick, profile hooks,
//!   allocations and failure of the instruction it stands for; a run
//!   that succeeds writes its results and attributes into the frame, one
//!   that fails fails the alternative. Otherwise the general
//!   instructions, left in place after it, run unchanged.
//! * **Byte scans**: a self-recursive byte rule (a string's `Str -> Ch[0,
//!   1] assert(Ch.val > 0) Str[1, EOI] {len = 1 + Str.len} / x"00"[0, 1]
//!   {len = 0}`) has its head compiled to one [`Instr::Scan`]. It finds
//!   the terminator, the first byte of the frame's interval that fails a
//!   guard, in one pass; when the fuel lasts, no nested level's call is
//!   memoized yet and the terminator's literal matches, it writes every
//!   level's records and memo entry in one go and charges the steps and
//!   profile hooks of the levels' instructions. Otherwise, like a
//!   record, it runs the general instructions left in place after it.
//! * **Chains**: a right-recursive list rule (`LFHs -> LFH[0, EOI]
//!   LFHs[LFH.end, EOI] / LFH[0, EOI]`) has its head compiled to one
//!   [`Instr::Chain`], which runs the list's levels in the rule's own frame:
//!   a level's position, element and touched region are a [`Level`] on a
//!   stack, not a frame. Each level still ticks, fires its profile hooks and
//!   looks its key up in the memo table where its call would, and the
//!   levels complete innermost first, each with its node, memo entry and
//!   shift record. The level whose element or list call fails runs the
//!   rule's second alternative in a frame of its own. An element whose
//!   rule's one alternative is one record is decoded by that record in
//!   place, with a node and memo entry instead of a frame, succeeding or
//!   failing op by op as its frame would; only when the fuel might run
//!   out inside it does it run in a frame, like any other element.
//! * **Slot-resolved attributes**: a frame keeps its attributes in `i64`
//!   slots fixed per rule when the parser is built (`layout`), so
//!   an attribute read or write is an indexed access, not a search by
//!   symbol; only a local rule's read of its invoking alternative walks
//!   the parent chain, over the parents' layouts.
//! * **Arena trees**: results go into a [`TreeArena`] — one bump
//!   allocation per node, children as contiguous `u32` ranges, memoized
//!   subtrees shared by id (see [`crate::arena`]).
//!
//! The two engines are kept observably identical — same trees (node for
//! node, attribute for attribute), same deepest-failure errors, same
//! [`ParseStats`] step counts — and the repository's differential tests
//! enforce it. (Memo statistics are engine policy: the VM re-executes
//! builtin leaf rules instead of caching them, which never changes steps,
//! trees, or errors.)
//! The interpreter stays as the executable reference semantics; this VM is
//! the production path (`ipg-formats` parses through it).
//!
//! ```
//! use ipg_core::frontend::parse_grammar;
//! use ipg_core::interp::vm::VmParser;
//!
//! let g = parse_grammar(
//!     r#"
//!     S -> H[0, 8] Data[H.offset, H.offset + H.length];
//!     H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
//!     Int := u32le;
//!     Data := bytes;
//!     "#,
//! )?;
//! let parser = VmParser::new(&g);
//! let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
//! input.extend_from_slice(b"DATA");
//! let tree = parser.parse(&input)?;
//! let h = tree.root().child_node_nt(g.nt_id("H").expect("H is a rule")).expect("header parsed");
//! assert_eq!(h.attr(&g, "offset"), Some(8));
//! assert_eq!(h.attr(&g, "length"), Some(4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use super::{eval_binop, ParseStats};
use crate::analysis::{anchor_requirement, AnchorRequirement};
use crate::arena::{AttrSlot, Entry, TreeArena, TreeId, TreeRef};
use crate::builtin::run_builtin;
use crate::bytecode::{
    compile, Aff, BExpr, ByteScan, ExprId, Instr, LitSpan, PRuleKind, Program, RecOp, Record,
    SizeHints, GUARD_UNDEFINED, NO_SLOT, REC_REGS, REC_SLOTS, SCAN_BYTE_REG, SCAN_WIDTH,
};
use crate::check::{Grammar, NtId};
use crate::error::{Error, ParseError, Result};
use crate::intern::Sym;
use crate::layout::{self, Layouts, END_SLOT, EOI_SLOT, START_SLOT};
use crate::profile::{ProfSink, ProfileReport, Profiler};
use crate::syntax::{format_bytes_len, push_bytes, Builtin};
use fxhash::{FxHashMap, FxHashSet};
use std::cell::Cell;
use std::ops::Deref;
use std::sync::Arc;

/// A configured bytecode parser for one grammar. The API mirrors
/// [`crate::interp::Parser`]; results come back as arena-backed
/// [`ParseTree`]s instead of `Rc<Tree>`.
///
/// The parser owns its grammar and program behind one [`Arc`], so it is
/// cheap to clone, has no lifetime, and can be shared across threads;
/// every clone and every [`Session`] it opens shares that one image.
#[derive(Clone, Debug)]
pub struct VmParser {
    img: Arc<Image>,
    memoize: bool,
    max_steps: Option<u64>,
}

/// Everything a parse reads and never writes, built once per grammar.
#[derive(Debug)]
struct Image {
    /// Nonterminal and attribute names (errors, `attr_slot`), blackbox
    /// bindings and the profiler's call graph.
    grammar: Grammar,
    program: Program,
    /// The program's attribute layouts, shared with every arena it fills.
    layouts: Arc<Layouts>,
    /// Pre-sizing hints derived from the program (frame nesting, pool
    /// sizes), computed once at compile time.
    hints: SizeHints,
    /// What a streaming [`Session`] must hold back (see
    /// [`crate::analysis::anchor_requirement`]).
    anchor: AnchorRequirement,
}

/// The result of a successful VM parse: the arena plus the root id.
/// Dropping it hands the arena back to the dropping thread's workspace
/// for that thread's next parse.
#[derive(Debug)]
pub struct ParseTree {
    arena: TreeArena,
    root: TreeId,
}

impl ParseTree {
    /// A view of the root (always a node for grammars whose start rule has
    /// alternatives).
    pub fn root(&self) -> TreeRef<'_> {
        self.arena.view(self.root)
    }

    /// The arena holding every node of this parse.
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// The root's arena id.
    pub fn root_id(&self) -> TreeId {
        self.root
    }
}

impl Drop for ParseTree {
    /// Hands the arena back, cleared, to the dropping thread's
    /// [`Workspace`], so that thread's next parse refills it instead of
    /// regrowing its pools.
    fn drop(&mut self) {
        Workspace::give_back_arena(std::mem::take(&mut self.arena));
    }
}

impl VmParser {
    /// Compiles `grammar` and creates a parser with memoization enabled
    /// and no step limit. The parser keeps its own copy of the grammar.
    pub fn new(grammar: &Grammar) -> Self {
        let program = compile(grammar);
        let hints = program.size_hints();
        Self::from_compiled(grammar.clone(), program, anchor_requirement(grammar), hints)
    }

    /// Wraps an already-compiled program — typically a
    /// [`crate::ipgc::CachedProgram`] with its precomputed anchor
    /// classification and size hints — skipping the compile step.
    /// `grammar` must be the grammar the program was compiled from. The
    /// program's attribute layouts are derived here (`layout`).
    pub fn from_compiled(
        grammar: Grammar,
        mut program: Program,
        anchor: AnchorRequirement,
        hints: SizeHints,
    ) -> Self {
        let layouts = Arc::new(layout::resolve(&mut program, &grammar));
        let img = Image { grammar, program, layouts, hints, anchor };
        VmParser { img: Arc::new(img), memoize: true, max_steps: None }
    }

    /// The grammar this parser was built from.
    pub fn grammar(&self) -> &Grammar {
        &self.img.grammar
    }

    /// Resolves attribute `attr` of nonterminal `nt` to its slot, for
    /// reading with [`crate::arena::NodeRef::get`]. `None` unless every
    /// node of `nt` carries the attribute: `start`, `end` and `EOI` always,
    /// an attribute of a rule with alternatives when every alternative
    /// sets it, `val` of a builtin, a blackbox's declared attributes.
    pub fn attr_slot(&self, nt: NtId, attr: &str) -> Option<AttrSlot> {
        let sym = self.img.grammar.attr_sym(attr)?;
        let slot = self.img.layouts.total_slot(nt, sym)?;
        Some(AttrSlot { nt, slot })
    }

    /// The compiled program (e.g. for [`Program::disassemble`]).
    pub fn program(&self) -> &Program {
        &self.img.program
    }

    /// The grammar's [`AnchorRequirement`]: what a [`Session`] must hold
    /// back before the parse can run to completion.
    pub fn anchor(&self) -> AnchorRequirement {
        self.img.anchor
    }

    /// Enables or disables memoization (mirror of
    /// [`crate::interp::Parser::memoize`]).
    pub fn memoize(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Limits the number of term evaluations (mirror of
    /// [`crate::interp::Parser::max_steps`]).
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Parses `input` from the grammar's start nonterminal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] with the deepest failure observed when the
    /// input does not match — the same error the reference interpreter
    /// reports.
    pub fn parse(&self, input: &[u8]) -> Result<ParseTree> {
        self.parse_from(self.img.program.start_nt(), input)
    }

    /// Parses `input` from an explicit start nonterminal.
    ///
    /// # Errors
    ///
    /// As [`VmParser::parse`]; additionally [`Error::Grammar`] if `name`
    /// is not a nonterminal of the grammar.
    pub fn parse_from_name(&self, name: &str, input: &[u8]) -> Result<ParseTree> {
        let nt = self
            .img
            .grammar
            .nt_id(name)
            .ok_or_else(|| Error::Grammar(format!("unknown nonterminal `{name}`")))?;
        self.parse_from(nt, input)
    }

    /// Parses `input` from nonterminal `nt`.
    ///
    /// # Errors
    ///
    /// As [`VmParser::parse`].
    pub fn parse_from(&self, nt: NtId, input: &[u8]) -> Result<ParseTree> {
        self.run_one_shot(self.fresh_session(input), nt, FuelMsg::Verbose).0
    }

    /// Like [`VmParser::parse`], but also reports [`ParseStats`]. The
    /// `steps` count matches [`crate::interp::Parser::parse_with_stats`]
    /// exactly (both engines tick at the same evaluation points, which is
    /// what makes steps/s comparisons apples-to-apples); the memo fields
    /// reflect each engine's own policy — the VM does not memoize builtin
    /// leaf rules.
    pub fn parse_with_stats(&self, input: &[u8]) -> (Result<ParseTree>, ParseStats) {
        self.run_one_shot(self.fresh_session(input), self.img.program.start_nt(), FuelMsg::Short)
    }

    /// Opens a streaming [`Session`]: input arrives incrementally via
    /// [`Session::feed`], the parse runs as far as the buffered prefix
    /// allows, and [`Session::finish`] signals end-of-input.
    pub fn streaming(&self) -> Session {
        Session::new(self)
    }

    /// One-shot parse with a per-call step budget, overriding the
    /// parser's own. This is what lets a service share one compiled
    /// parser across workers (the builder-style [`VmParser::max_steps`]
    /// consumes the parser) while still bounding hostile inputs.
    pub fn parse_bounded(&self, input: &[u8], max_steps: u64) -> (Result<ParseTree>, ParseStats) {
        let mut sess = self.fresh_session(input);
        sess.max_steps = max_steps;
        self.run_one_shot(sess, self.img.program.start_nt(), FuelMsg::Verbose)
    }

    /// Like [`VmParser::parse`], but runs with the [`crate::profile`]
    /// instrumentation enabled and additionally returns the aggregated
    /// [`ProfileReport`] (per-rule cycle attribution, memo hit/miss,
    /// pc-indexed instruction hits, folded stacks).
    ///
    /// Only this entry point pays the instrumentation cost: the plain
    /// `parse*` family monomorphizes with the no-op sink and is
    /// unaffected.
    pub fn parse_profiled(&self, input: &[u8]) -> (Result<ParseTree>, ParseStats, ProfileReport) {
        let p = &self.img.program;
        let mut prof = Profiler::new(p.rule_count(), p.instr_count());
        let sess = self.fresh_session_with(&*self.img, input, &mut prof);
        let (result, stats) = self.run_one_shot(sess, p.start_nt(), FuelMsg::Verbose);
        let report = ProfileReport::build(&self.img.grammar, p, prof);
        (result, stats, report)
    }

    /// Drives a one-shot session from `nt` and packages result + stats.
    /// `fuel_msg` selects this entry point's fuel-exhaustion wording —
    /// `parse`/`parse_from` diagnose verbosely, `parse_with_stats`
    /// tersely, each mirroring the interpreter's corresponding entry
    /// point (the differential tests compare errors per entry point).
    fn run_one_shot<I: AsRef<[u8]>, PS: ProfSink>(
        &self,
        mut sess: VmSession<&Image, I, PS>,
        nt: NtId,
        fuel_msg: FuelMsg,
    ) -> (Result<ParseTree>, ParseStats) {
        let result = match sess.run_root(nt) {
            Ok(Some(root)) => Ok(ParseTree { arena: std::mem::take(&mut sess.ws.arena), root }),
            Ok(None) => {
                Err(Error::Parse(sess.deepest.render(&sess.img.grammar, &sess.img.program)))
            }
            Err(Abort::FuelExhausted) => {
                let msg = fuel_msg.render(sess.max_steps);
                Err(Error::Parse(sess.deepest.render_with(&sess.img.grammar, msg)))
            }
            Err(Abort::Suspend) => unreachable!("one-shot sessions never suspend"),
        };
        let stats = sess.stats();
        sess.close();
        (result, stats)
    }

    /// A one-shot session over `input`, borrowing the parser's image.
    fn fresh_session<'a>(&'a self, input: &'a [u8]) -> VmSession<&'a Image, &'a [u8]> {
        self.fresh_session_with(&*self.img, input, ())
    }

    /// A session of this parser's settings over `input`, reading the
    /// image through `img`.
    fn fresh_session_with<G: Deref<Target = Image>, I: AsRef<[u8]>, PS: ProfSink>(
        &self,
        img: G,
        input: I,
        prof: PS,
    ) -> VmSession<G, I, PS> {
        // The working storage comes from this thread's previous parse.
        // Memo mirror of the interpreter's pre-sizing heuristic; arena and
        // frame stack are pre-sized from compile-time program statistics
        // (instruction counts, static call-graph nesting). Buffers
        // recycled from a parse of the same grammar are already that
        // large, and its arena already holds the layouts. The frame stack
        // keeps its dead slots, hence its reserve counts from its length.
        let mut ws = Workspace::take();
        if self.memoize {
            ws.memo.map.reserve(8 * img.grammar.nt_count());
        }
        ws.memo.top.resize(img.grammar.nt_count(), 0);
        ws.frames.reserve(img.hints.frames.saturating_sub(ws.frames.len()));
        ws.arena.reset(&img.layouts, &img.hints);
        VmSession {
            img,
            input,
            ws,
            memoize: self.memoize,
            steps: 0,
            memo_hits: 0,
            max_steps: self.max_steps.unwrap_or(u64::MAX),
            deepest: Deepest { offset: 0, nt: None, reason: Reason::NoProgress },
            depth: 0,
            complete: true,
            root_open: false,
            suspend: None,
            suspend_count: 0,
            resume: ResumeKind::Exec,
            scan_stop: ScanStop::NONE,
            prof,
        }
    }
}

/// Which fuel-exhaustion wording an entry point reports (see
/// [`VmParser::run_one_shot`]).
#[derive(Clone, Copy)]
enum FuelMsg {
    /// `parse` / `parse_from` / `parse_bounded` / `Session`.
    Verbose,
    /// `parse_with_stats`.
    Short,
}

impl FuelMsg {
    fn render(self, max_steps: u64) -> String {
        match self {
            FuelMsg::Verbose => joined(&[
                "step limit of ",
                decimal(max_steps, &mut [0; 20]),
                " exhausted (possible non-terminating grammar)",
            ]),
            FuelMsg::Short => "step limit exhausted".into(),
        }
    }
}

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
enum Reason {
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
struct Deepest {
    offset: usize,
    /// The rule being parsed (`None` only before the first failure).
    nt: Option<NtId>,
    reason: Reason,
}

impl Deepest {
    /// Records a failure at `offset`, unless one was recorded deeper.
    fn record(&mut self, offset: usize, nt: NtId, reason: Reason) {
        if offset >= self.offset {
            *self = Deepest { offset, nt: Some(nt), reason };
        }
    }

    /// The [`ParseError`] this failure reports. Its message is the
    /// interpreter's wording, written into one exactly-sized `String`.
    fn render(&self, g: &Grammar, p: &Program) -> ParseError {
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
                let bytes = &p.lits[lit.start as usize..lit.start as usize + lit.len as usize];
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

    /// This failure's position with another message (the fuel-exhaustion
    /// error reports where the parse had got to, not why).
    fn render_with(&self, g: &Grammar, msg: String) -> ParseError {
        ParseError {
            offset: self.offset,
            nonterminal: self.nt.map(|nt| g.nt_name(nt).to_owned()),
            msg,
        }
    }
}

/// Largest buffer, in elements or entries, that a [`Workspace`] keeps for
/// the next parse. A bigger one is dropped instead, so one huge parse
/// neither pins its memory on the thread nor makes every later `clear`
/// pay for its capacity.
const RETAIN_MAX: usize = 4096;

/// The working storage of a VM parse, recycled per thread. Between parses
/// it sits boxed in the thread's slot: [`VmParser::fresh_session_with`]
/// takes the box out with one pointer-sized swap, the session works in it
/// in place, and [`VmSession::close`] clears what the parse used and puts
/// the box back the same way, so a parse reuses the allocations of the
/// thread's previous parse instead of making its own. The arena of a
/// successful parse leaves with its [`ParseTree`]; when the tree drops,
/// on whichever thread drops it, the arena waits in that thread's
/// `TREE_ARENA` for the next workspace without one. A parse that finds
/// the slot empty (the thread's first parse, or a session still open on
/// the same thread) starts from a new workspace; whichever is handed back
/// last is kept, with the other's arena if it has none. A parse that
/// unwinds frees its workspace instead.
#[derive(Default)]
struct Workspace {
    /// The frame stack: the session's `frames[..depth]` are live. Slots
    /// above `depth` are dead but keep their allocations (attribute and
    /// result slots) for reuse, so pushing a frame never moves one by
    /// value.
    frames: Vec<Frame>,
    memo: Memo,
    /// Builtin invocations that already recorded their failure. The VM
    /// re-executes builtins instead of memoizing them; this set keeps the
    /// *deepest-failure* bookkeeping identical to the interpreter, where a
    /// repeated failing builtin is a silent memo hit. Touched only on the
    /// (rare) builtin failure path.
    builtin_failures: FxHashSet<(NtId, usize, usize)>,
    /// The levels of the chains in flight, each chain's above those of the
    /// chains it runs inside.
    levels: Vec<Level>,
    /// The parse's arena; between parses a failed parse's, cleared, or
    /// the empty default when a tree took it.
    arena: TreeArena,
}

thread_local! {
    static WORKSPACE: Cell<Option<Box<Workspace>>> = const { Cell::new(None) };
    /// The arena of the tree the thread dropped last, cleared: it waits
    /// here, and not in the workspace, so that a tree dropped while a
    /// session holds the workspace parks it without a new box.
    static TREE_ARENA: Cell<TreeArena> = Cell::default();
}

impl Workspace {
    /// This thread's parked workspace, or a new one if there is none,
    /// with the last dropped tree's arena if its own left with a tree.
    fn take() -> Box<Workspace> {
        let mut ws = WORKSPACE.try_with(Cell::take).ok().flatten().unwrap_or_default();
        if ws.arena.capacity() == 0 {
            ws.arena = TREE_ARENA.try_with(Cell::take).unwrap_or_default();
        }
        ws
    }

    /// Clears what a parse that left `depth` frames live used, drops
    /// buffers over [`RETAIN_MAX`], and parks the workspace for the
    /// thread's next parse.
    fn give_back(mut self: Box<Self>, depth: usize) {
        // Frames still live (an abort or an abandoned streaming session)
        // may hold in-flight loop or star state.
        for f in &mut self.frames[..depth] {
            f.pending = Pending::None;
        }
        if self.frames.capacity() > RETAIN_MAX {
            self.frames = Vec::new();
        }
        // Only a parse that inserted a key raised a rule's mark.
        if !self.memo.map.is_empty() {
            if self.memo.map.capacity() > RETAIN_MAX {
                self.memo.map = FxHashMap::default();
            }
            self.memo.map.clear();
            self.memo.top.fill(0);
        }
        if !self.builtin_failures.is_empty() {
            if self.builtin_failures.capacity() > RETAIN_MAX {
                self.builtin_failures = FxHashSet::default();
            }
            self.builtin_failures.clear();
        }
        if self.levels.capacity() > RETAIN_MAX {
            self.levels = Vec::new();
        }
        self.levels.clear();
        retain(&mut self.arena);
        // Unavailable only while the thread's locals are being torn down.
        let _ = WORKSPACE.try_with(|slot| {
            if let Some(parked) = slot.take() {
                if self.arena.capacity() == 0 {
                    // Keep the arena of a parse that ran meanwhile.
                    self.arena = parked.arena;
                }
            }
            slot.set(Some(self));
        });
    }

    /// Parks a dropped tree's arena, cleared, for the thread's next parse,
    /// unless it is over [`RETAIN_MAX`].
    fn give_back_arena(mut arena: TreeArena) {
        retain(&mut arena);
        if arena.capacity() > 0 {
            let _ = TREE_ARENA.try_with(|slot| slot.set(arena));
        }
    }
}

/// Clears `arena` if it is small enough to keep (see [`RETAIN_MAX`]), and
/// frees its pools otherwise.
fn retain(arena: &mut TreeArena) {
    if arena.capacity() > RETAIN_MAX {
        *arena = TreeArena::default();
    } else {
        arena.clear();
    }
}

/// The memo table: a rule call's result per `(rule, base, len)` key, and
/// per rule one more than the highest base it holds a key at. Keys are
/// only ever added during a parse, so a base at or above that mark has no
/// key: a parse that moves left to right looks most of its calls up
/// without probing the map, and a run of keys above a base is ruled out
/// at once.
#[derive(Default)]
struct Memo {
    map: FxHashMap<(NtId, usize, usize), Option<TreeId>>,
    /// Indexed by rule; 0 while the rule has no key.
    top: Vec<usize>,
}

impl Memo {
    #[inline]
    fn get(&self, nt: NtId, base: usize, len: usize) -> Option<Option<TreeId>> {
        if self.top[nt.0 as usize] <= base {
            return None;
        }
        self.map.get(&(nt, base, len)).copied()
    }

    #[inline]
    fn insert(&mut self, nt: NtId, base: usize, len: usize, result: Option<TreeId>) {
        self.map.insert((nt, base, len), result);
        let top = &mut self.top[nt.0 as usize];
        *top = (*top).max(base + 1);
    }

    /// Whether the table may hold a key of `nt` at a base above `base`.
    #[inline]
    fn may_hold_above(&self, nt: NtId, base: usize) -> bool {
        self.top[nt.0 as usize] > base + 1
    }
}

/// Hard abort of the whole parse (mirror of the interpreter's `Abort`),
/// plus the streaming machine's suspension signal.
#[derive(Clone, Copy, Debug)]
enum Abort {
    FuelExhausted,
    /// A streaming session must wait for more input. The machine state is
    /// left exactly at the blocked operation (any step ticks the retried
    /// operation will re-pay have been rewound); the [`Hint`] is parked in
    /// [`VmSession::suspend`].
    Suspend,
}

type PResult<T> = std::result::Result<T, Abort>;

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

const NO_PARENT: u32 = u32::MAX;

/// What the main loop does next.
enum Flow {
    /// Execute instructions of the top frame.
    Exec,
    /// A call completed; deliver its result to the top frame's pending
    /// term.
    Deliver(Option<TreeId>),
    /// The stack is empty; the parse is finished.
    Done(Option<TreeId>),
}

/// Outcome of [`VmSession::call`].
enum CallOutcome {
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
struct Ret {
    id: TreeId,
    start: i64,
    end: i64,
}

/// In-flight state of a `for` term (the VM analogue of the interpreter's
/// array loop locals).
struct LoopSt {
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
struct StarSt {
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
enum Pending {
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

/// One level of a chain in flight (see [`VmSession::exec_chain`]): its
/// interval and, once its element has returned, the element's result, its
/// `end` (where the next level starts) and the level's touched region.
#[derive(Clone, Copy)]
struct Level {
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
struct ChainSt {
    chain: u32,
    /// Index of the chain's level 0 in the session's level stack.
    first: usize,
    /// What the chain waits for while a child frame runs.
    wait: Wait,
}

/// What a chain waits for from a child frame.
#[derive(Clone, Copy)]
enum Wait {
    /// The top level's element.
    Elem,
    /// The top level's second alternative, run in a frame of its own.
    Tail,
}

/// Where a chain is (see [`VmSession::chain_run`]).
enum ChainStep {
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

/// One activation of a rule: the VM analogue of the interpreter's
/// `parse_alt` stack frame plus its `AltCtx`.
struct Frame {
    nt: NtId,
    base: usize,
    len: usize,
    /// Index of the rule's first alternative in the program's alt array.
    alts_first: u32,
    /// One past the rule's last alternative.
    alts_end: u32,
    /// The alternative currently being tried.
    alt_cursor: u32,
    /// Next instruction, and one past the current alternative's last.
    ip: u32,
    ip_end: u32,
    /// Attribute and scoped-variable slots (`layout`): `EOI`,
    /// `start` and `end` first. A slot is written before it is read; the
    /// values a failed alternative left behind are never read.
    slots: Vec<i64>,
    /// Result slots, indexed by written term position.
    results: Vec<Option<TreeId>>,
    /// Frame index of the invoking alternative (local rules only);
    /// [`NO_PARENT`] otherwise.
    parent: u32,
    memoizable: bool,
    pending: Pending,
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

struct VmSession<G, I, PS: ProfSink = ()> {
    /// The parser's image: borrowed by a one-shot parse, shared through
    /// its `Arc` by a streaming [`Session`], which may outlive the parser.
    img: G,
    /// The input bytes: a borrowed slice for one-shot parses, an owned
    /// growing buffer for streaming [`Session`]s.
    input: I,
    /// The working storage, used in place: the frame stack
    /// (`frames[..depth]` live), the memo table, the chain levels, the
    /// builtin-failure set and the arena.
    ws: Box<Workspace>,
    memoize: bool,
    steps: u64,
    memo_hits: u64,
    max_steps: u64,
    deepest: Deepest,
    depth: usize,
    /// Whether the whole input is present. One-shot parses are always
    /// complete; a streaming session flips this in `finish`. While
    /// `false`, operations that read past the buffered prefix or consult
    /// the total length suspend instead of failing.
    complete: bool,
    /// Whether the root frame's input length is still open (streaming
    /// session over an alternatives rule, before end-of-input). The root
    /// frame then carries `len == 0` and [`OPEN_LEN`] placeholders for
    /// `EOI` and `start` until sealed.
    root_open: bool,
    /// Parked suspension hint: set by a gated evaluation just before it
    /// returns "undefined", examined by the instruction handlers to
    /// distinguish "wait for input" from a genuine failure.
    suspend: Option<Hint>,
    /// Number of suspensions taken (service telemetry).
    suspend_count: u64,
    /// How to re-enter after [`Abort::Suspend`].
    resume: ResumeKind,
    /// Where the last byte scan's search stopped.
    scan_stop: ScanStop,
    /// Profiling hooks: `()` (disabled — every call compiles away) for
    /// all plain entry points, `&mut Profiler` under
    /// [`VmParser::parse_profiled`].
    prof: PS,
}

impl<G: Deref<Target = Image>, I: AsRef<[u8]>, PS: ProfSink> VmSession<G, I, PS> {
    fn stats(&self) -> ParseStats {
        ParseStats {
            steps: self.steps,
            memo_hits: self.memo_hits,
            memo_entries: self.ws.memo.map.len(),
        }
    }

    /// The buffered input bytes.
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.input.as_ref()
    }

    #[inline]
    fn tick(&mut self) -> PResult<()> {
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

    fn record_failure(&mut self, offset: usize, nt: NtId, reason: Reason) {
        self.deepest.record(offset, nt, reason);
    }

    /// Drives the machine from a root invocation of `nt` to completion.
    fn run_root(&mut self, nt: NtId) -> PResult<Option<TreeId>> {
        let len = self.bytes().len();
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

    /// Pushes the root frame of a streaming session over an
    /// open-length input (counterpart of [`VmSession::begin_call`]'s
    /// `Alts` arm; builtin/blackbox/empty roots are handled by the
    /// [`Session`] driver, which defers them to end-of-input). Returns
    /// `false` when the rule has no alternatives (immediate failure,
    /// matching the one-shot machine's behavior after its initial tick).
    fn push_open_root(&mut self, nt: NtId) -> PResult<bool> {
        self.tick()?;
        let p = &self.img.program;
        let PRuleKind::Alts { count, .. } = p.rules[nt.0 as usize].kind else {
            unreachable!("open roots are only pushed for alternatives rules")
        };
        if count == 0 {
            return Ok(false);
        }
        let memoizable = self.memoize && !p.rules[nt.0 as usize].is_local;
        // Length 0 is a placeholder until sealed; gated reads suspend
        // instead.
        self.push_frame(nt, 0, 0, 0, NO_PARENT, memoizable);
        self.ws.frames[0].slots[..3].copy_from_slice(&[OPEN_LEN, OPEN_LEN, 0]);
        self.root_open = true;
        Ok(true)
    }

    /// Seals the open root frame once the total input length is known:
    /// the placeholder length, `EOI` and `start` become real, and every
    /// suspension gate turns off (`complete` flips in the caller).
    fn seal_root(&mut self) {
        if !self.root_open || self.depth == 0 {
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
    fn call(
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
                // Where the interpreter's memo would make a repeated
                // failure a silent hit, suppress the duplicate recording
                // so the deepest-failure error stays identical.
                let memoizable = self.memoize && !self.img.program.rules[nt.0 as usize].is_local;
                if !memoizable || self.ws.builtin_failures.insert((nt, base, len)) {
                    self.record_failure(base, nt, Reason::Builtin(b));
                }
                None
            }
        };
        self.prof.leaf(nt, ret.is_some());
        Ok(ret)
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
        self.tick()?;
        self.prof.call(nt);
        let p = &self.img.program;
        let rule = &p.rules[nt.0 as usize];
        let memoizable = self.memoize && !rule.is_local;
        if memoizable {
            if let Some(cached) = self.ws.memo.get(nt, base, len) {
                self.memo_hits += 1;
                self.prof.memo(nt, true);
                return Ok(CallOutcome::Done(cached.map(|id| self.rebase(id, l))));
            }
            self.prof.memo(nt, false);
        }
        match rule.kind {
            PRuleKind::Builtin(_) => unreachable!("builtins run in place (`leaf_call`)"),
            PRuleKind::Blackbox(idx) => {
                self.prof.enter(nt);
                let r = self.blackbox_result(nt, idx as usize, base, len);
                self.prof.exit(nt, r.is_some());
                if memoizable {
                    self.ws.memo.insert(nt, base, len, r);
                }
                Ok(CallOutcome::Done(r.map(|id| self.rebase(id, l))))
            }
            PRuleKind::Alts { count, .. } => {
                if count == 0 {
                    self.prof.enter(nt);
                    self.prof.exit(nt, false);
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

    /// Pushes a frame running alternative `alt` (counted from the rule's
    /// first) of rule `nt` over `(base, len)`: the end of
    /// [`VmSession::begin_call`] once its memo look-up missed, and where a
    /// chain hands a level or an element to the general instructions.
    #[inline(always)]
    fn push_frame(
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
        self.prof.enter(nt);
    }

    /// A rule's result in its caller's coordinates: its callee-relative
    /// `start`/`end`, read back from the record, and the record re-based
    /// by `l` — a shift record, since a memoized result may be shared.
    fn rebase(&mut self, id: TreeId, l: i64) -> Ret {
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
                Some(self.ws.arena.alloc_blackbox(nt, shape.len(), fill, res.data.into(), base))
            }
            Err(msg) => {
                self.record_failure(base, nt, Reason::Blackbox(msg));
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
    fn fail_alt(&mut self, fi: usize) -> Flow {
        let p = &self.img.program;
        let open = fi == 0 && self.root_open && !self.complete;
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
            self.prof.exit(failed, false);
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
        if self.depth == 1 && self.root_open && !self.complete {
            return self.suspended(Hint::UntilEnd, 0, ResumeKind::Exec);
        }
        self.depth -= 1;
        let f = &mut self.ws.frames[self.depth];
        let (nt, base, len) = (f.nt, f.base, f.len);
        let alt_index = f.alt_cursor - f.alts_first;
        let memoizable = f.memoizable;
        f.pending = Pending::None;
        self.prof.exit(nt, true);
        let f = &self.ws.frames[self.depth];
        let width = self.img.layouts.rules[nt.0 as usize].width as usize;
        let children = f.results.iter().flatten().copied();
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
        if self.depth > 0 {
            let pc = self.ws.frames[self.depth - 1].ip;
            self.prof.suspend(pc);
        }
        self.resume = resume;
        Abort::Suspend
    }

    /// Suspension with an explicit hint (sites that block without going
    /// through a gated evaluation, e.g. a blocked root completion).
    #[cold]
    fn suspended(&mut self, hint: Hint, rewind: u64, resume: ResumeKind) -> PResult<Flow> {
        self.suspend = Some(hint);
        Err(self.suspend_here(rewind, resume))
    }

    /// Instruction-level suspension after a gated evaluation returned
    /// "undefined": the current instruction re-executes on resume, so its
    /// `exec_top` tick is rewound.
    #[cold]
    fn suspend_instr(&mut self) -> PResult<Flow> {
        Err(self.suspend_here(1, ResumeKind::Exec))
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

    fn exec_match(
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
            if self.suspend.is_some() {
                return self.suspend_instr();
            }
            self.record_failure(base, nt, Reason::TerminalInterval);
            return Ok(self.fail_alt(fi));
        };
        let blen = lit.len as usize;
        // T-Ter: 0 ≤ l ≤ r ≤ |s|, r − l ≥ |s1|, s[l, l+|s1|] = s1.
        if r - l < blen as i64 {
            self.record_failure(base + l as usize, nt, Reason::TerminalTooShort(lit.len));
            return Ok(self.fail_alt(fi));
        }
        let al = base + l as usize;
        let bytes = &self.img.program.lits[lit.start as usize..lit.start as usize + blen];
        if self.bytes()[al..al + blen] != *bytes {
            self.record_failure(al, nt, Reason::TerminalMismatch(lit));
            return Ok(self.fail_alt(fi));
        }
        let leaf = self.ws.arena.alloc_leaf(al, al + blen);
        let f = &mut self.ws.frames[fi];
        upd_start_end(&mut f.slots, l, r, blen != 0);
        f.results[slot as usize] = Some(leaf);
        f.ip += 1;
        Ok(Flow::Exec)
    }

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
    fn exec_record(&mut self, fi: usize, r: u32) -> PResult<Flow> {
        let rec = self.img.program.records[r as usize];
        if fi == 0 && self.root_open && !self.complete
            || self.steps.saturating_add(rec.steps() - 1) > self.max_steps
        {
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
    fn exec_scan(&mut self, fi: usize, scan: u32) -> PResult<Flow> {
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
        let lit_bytes = &p.lits[s.lit.start as usize..(s.lit.start + s.lit.len) as usize];
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
        self.prof.leaf(s.byte, true);
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
            self.prof.leaf(nt, true);
            let (at_i, len_i) = (base + i - 1, (len - i + 1) as i64);
            let byte = i64::from(input[at_i]);
            self.prof.call(s.byte);
            let b = self.ws.arena.alloc_builtin(s.byte, at_i, 1, 1, 0, byte);
            self.prof.leaf(s.byte, true);
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
    fn exec_chain(&mut self, fi: usize, chain: u32) -> PResult<Flow> {
        let c = self.img.program.chains[chain as usize];
        if fi == 0 && self.root_open && !self.complete {
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
    fn chain_run(&mut self, fi: usize, st: ChainSt, mut step: ChainStep) -> PResult<Flow> {
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
                        self.record_failure(lv.base, x, Reason::Interval(x));
                        ChainStep::Tail
                    } else {
                        let (base, len) = (lv.base + lv.next as usize, lv.len - lv.next as usize);
                        self.tick()?;
                        self.prof.call(x);
                        let cached = if self.memoize {
                            let cached = self.ws.memo.get(x, base, len);
                            self.memo_hits += u64::from(cached.is_some());
                            self.prof.memo(x, cached.is_some());
                            cached
                        } else {
                            None
                        };
                        match cached {
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
                    self.prof.leaf(x, true);
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
    /// or the rule's frame when the fuel might not last through it.
    fn record_call(
        &mut self,
        nt: NtId,
        r: u32,
        base: usize,
        len: usize,
        l: i64,
    ) -> PResult<CallOutcome> {
        self.tick()?;
        self.prof.call(nt);
        if self.memoize {
            if let Some(cached) = self.ws.memo.get(nt, base, len) {
                self.memo_hits += 1;
                self.prof.memo(nt, true);
                return Ok(CallOutcome::Done(cached.map(|id| self.rebase(id, l))));
            }
            self.prof.memo(nt, false);
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
        self.prof.leaf(nt, ok);
        let node = ok.then(|| {
            let (width, children) = (usize::from(rec.width), &results[..usize::from(rec.n_slots)]);
            self.ws.arena.alloc_node(
                nt,
                0,
                &regs[..width],
                children.iter().flatten().copied(),
                base,
            )
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
        let ops = &p.rec_ops[rec.first as usize..(rec.first + rec.count) as usize];
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
                    } else if input[at..at + blen] != p.lits[lit.start as usize..][..blen] {
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
                        // As a failing leaf call: a repeat at the same
                        // key records nothing (the interpreter's memo hit).
                        let memoizable = self.memoize && !p.rules[nt.0 as usize].is_local;
                        if !memoizable || self.ws.builtin_failures.insert((nt, at, flen)) {
                            self.deepest.record(at, nt, Reason::Builtin(builtin));
                        }
                        self.prof.leaf(nt, false);
                        return false;
                    };
                    self.prof.leaf(nt, true);
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

    fn exec_set(&mut self, fi: usize, attr: Sym, attr_slot: u16, expr: ExprId) -> PResult<Flow> {
        match self.eval(expr, fi) {
            Some(v) => {
                let f = &mut self.ws.frames[fi];
                f.slots[attr_slot as usize] = v;
                f.ip += 1;
                Ok(Flow::Exec)
            }
            None => {
                if self.suspend.is_some() {
                    return self.suspend_instr();
                }
                let (base, nt) = {
                    let f = &self.ws.frames[fi];
                    (f.base, f.nt)
                };
                self.record_failure(base, nt, Reason::Attr(attr));
                Ok(self.fail_alt(fi))
            }
        }
    }

    fn exec_guard(&mut self, fi: usize, expr: ExprId) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.ws.frames[fi];
            (f.base, f.nt)
        };
        match self.eval(expr, fi) {
            Some(v) if v != 0 => {
                self.ws.frames[fi].ip += 1;
                Ok(Flow::Exec)
            }
            Some(_) => {
                self.record_failure(base, nt, Reason::Predicate);
                Ok(self.fail_alt(fi))
            }
            None => {
                if self.suspend.is_some() {
                    return self.suspend_instr();
                }
                self.record_failure(base, nt, Reason::PredicateEval);
                Ok(self.fail_alt(fi))
            }
        }
    }

    /// T-NTSucc / T-NTFail for a symbol term or selected switch case:
    /// evaluate the interval and invoke the callee.
    fn dispatch_call(
        &mut self,
        fi: usize,
        callee: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.ws.frames[fi];
            (f.base, f.nt)
        };
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            if self.suspend.is_some() {
                return self.suspend_instr();
            }
            self.record_failure(base, nt, Reason::Interval(callee));
            return Ok(self.fail_alt(fi));
        };
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
        let (base, len, caller) = {
            let f = &self.ws.frames[fi];
            (f.base, f.len, f.nt)
        };
        let (i, j) = match (self.eval(from, fi), self.eval(to, fi)) {
            (Some(i), Some(j)) => (i, j),
            _ => {
                if self.suspend.is_some() {
                    return self.suspend_instr();
                }
                self.record_failure(base, caller, Reason::ArrayBounds);
                return Ok(self.fail_alt(fi));
            }
        };
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
                self.record_failure(base, caller, Reason::Interval(st.nt));
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
        let (base, caller) = {
            let f = &self.ws.frames[fi];
            (f.base, f.nt)
        };
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            if self.suspend.is_some() {
                return self.suspend_instr();
            }
            self.record_failure(base, caller, Reason::StarInterval);
            return Ok(self.fail_alt(fi));
        };
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
            self.record_failure(st.star_base, caller, Reason::StarEmpty(st.nt));
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
        let (base, nt) = {
            let f = &self.ws.frames[fi];
            (f.base, f.nt)
        };
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
            None => {
                if self.suspend.is_some() {
                    return self.suspend_instr();
                }
                self.record_failure(base, nt, Reason::SwitchGuard);
                Ok(self.fail_alt(fi))
            }
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
        if fi == 0 && self.root_open && !self.complete {
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
            BExpr::Num(n) => Some(n),
            BExpr::Eoi => self.eval_eoi(fi),
            BExpr::Local { sym, slot } => self.read_local(fi, sym, slot),
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
            BExpr::NtAttr { slot, nt, attr_slot, .. } => {
                let id = self.ws.frames[fi].results[slot as usize]?;
                self.ws.arena.node_attr(id, nt, attr_slot)
            }
            BExpr::ElemAttr { slot, nt, index, attr_slot, .. } => {
                let k = self.eval(index, fi)?;
                let id = self.ws.frames[fi].results[slot as usize]?;
                let Entry::Array(a) = self.ws.arena.entry(id) else { return None };
                if a.nt != nt || k < 0 {
                    return None;
                }
                let elem = *self.ws.arena.child_ids(a.elems).get(k as usize)?;
                self.ws.arena.node_attr(elem, nt, attr_slot)
            }
            BExpr::OuterAttr { nt, attr_slot, .. } => {
                let id = self.lookup_outer_node(fi, nt)?;
                self.ws.arena.node_attr(id, nt, attr_slot)
            }
            BExpr::OuterElem { nt, index, attr_slot, .. } => {
                let k = self.eval(index, fi)?;
                if k < 0 {
                    return None;
                }
                let arr = self.lookup_outer_array(fi, nt)?;
                let Entry::Array(a) = self.ws.arena.entry(arr) else { return None };
                let elem = *self.ws.arena.child_ids(a.elems).get(k as usize)?;
                self.ws.arena.node_attr(elem, nt, attr_slot)
            }
            BExpr::Exists { var_slot, slot, nt, cond, then, els, .. } => {
                // Only the element *count* is needed up front, as in the
                // interpreter.
                let n = match slot {
                    Some(sl) => {
                        let id = self.ws.frames[fi].results[sl as usize]?;
                        match self.ws.arena.entry(id) {
                            Entry::Array(a) if a.nt == nt => a.elems.len as usize,
                            _ => return None,
                        }
                    }
                    None => {
                        let id = self.lookup_outer_array(fi, nt)?;
                        match self.ws.arena.entry(id) {
                            Entry::Array(a) => a.elems.len as usize,
                            _ => return None,
                        }
                    }
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

    /// `EOI` of the frame's own input. The open root's length is not
    /// known before end-of-input: park an until-end hint and read as
    /// "undefined" so the caller suspends.
    #[inline]
    fn eval_eoi(&mut self, fi: usize) -> Option<i64> {
        if fi == 0 && self.root_open && !self.complete {
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
        if slot <= START_SLOT && fi == 0 && self.root_open && !self.complete {
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

    /// Most recently written completed node/blackbox of `nt` in the
    /// context chain (mirror of `AltCtx::lookup_outer_node`).
    fn lookup_outer_node(&self, fi: usize, nt: NtId) -> Option<TreeId> {
        let mut i = fi as u32;
        loop {
            let f = &self.ws.frames[i as usize];
            for id in f.results.iter().rev().flatten() {
                match self.ws.arena.entry(*id) {
                    Entry::Node(n) if n.nt == nt => return Some(*id),
                    Entry::Builtin(b) if b.nt == nt => return Some(*id),
                    Entry::Blackbox(b) if b.nt == nt => return Some(*id),
                    _ => {}
                }
            }
            if f.parent == NO_PARENT {
                return None;
            }
            i = f.parent;
        }
    }

    /// Mirror of `AltCtx::lookup_outer_array`.
    fn lookup_outer_array(&self, fi: usize, nt: NtId) -> Option<TreeId> {
        let mut i = fi as u32;
        loop {
            let f = &self.ws.frames[i as usize];
            for id in f.results.iter().rev().flatten() {
                if let Entry::Array(a) = self.ws.arena.entry(*id) {
                    if a.nt == nt {
                        return Some(*id);
                    }
                }
            }
            if f.parent == NO_PARENT {
                return None;
            }
            i = f.parent;
        }
    }
}

/// Where the last byte scan's search stopped: scan `scan`, searching the
/// interval `[from, end)`, found its first stop byte (one that fails a
/// guard) at `stop`, or none if `stop == end`. Each nested level of a
/// scan that fell back runs the scan again on a suffix of the interval,
/// whose first stop byte is the same; this answers it without a second
/// search, which would make an unterminated string quadratic.
#[derive(Clone, Copy)]
struct ScanStop {
    scan: u32,
    from: usize,
    end: usize,
    stop: usize,
}

impl ScanStop {
    const NONE: ScanStop = ScanStop { scan: u32::MAX, from: 0, end: 0, stop: 0 };

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

/// `updStartEnd(E, l, r, b)` on slots: when `b` holds, widen the touched
/// region to include `[l, r)`.
#[inline]
fn upd_start_end(slots: &mut [i64], l: i64, r: i64, b: bool) {
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
    fn close(self) {
        self.ws.give_back(self.depth);
    }
}

/// What a suspended [`Session`] is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hint {
    /// At least this many more bytes beyond the current buffer.
    Bytes(usize),
    /// Only end-of-input unlocks progress — the parse is consulting `EOI`
    /// (see [`AnchorRequirement`]); call [`Session::finish`].
    UntilEnd,
}

/// Three-way outcome of [`Session::feed`] / [`Session::finish`].
#[derive(Debug)]
pub enum Outcome {
    /// The parse completed; the tree is handed over exactly once.
    Done(ParseTree),
    /// The parse failed (or the session was misused); terminal.
    Error(Error),
    /// The machine is suspended waiting for more input.
    NeedInput {
        /// What would unlock progress.
        hint: Hint,
    },
}

impl Outcome {
    /// The error, if this outcome is one.
    pub fn err(&self) -> Option<&Error> {
        match self {
            Outcome::Error(e) => Some(e),
            _ => None,
        }
    }
}

/// Where a session is in its lifecycle.
enum Phase {
    /// Machine not started; the next feed starts it.
    Fresh,
    /// Machine suspended in place. `need` is the buffered size at which a
    /// retry can make progress (`None`: only `finish` resumes).
    Suspended { need: Option<usize>, hint: Hint },
    /// The root rule is a builtin/blackbox over the whole input: nothing
    /// can run before end-of-input, so feeds only buffer.
    Deferred,
    /// Result delivered or session poisoned; terminal.
    Closed,
}

/// A streaming-resumable VM parse: input arrives incrementally via
/// [`Session::feed`], the machine runs exactly as far as the buffered
/// prefix determines, and [`Session::finish`] signals end-of-input.
///
/// The contract mirrored by `tests/streaming.rs`: for *any* chunking of
/// the input, the resulting tree, step count, and error are identical to
/// [`VmParser::parse`] over the whole buffer (and therefore to the
/// reference interpreter). The machine suspends in place — frame stack,
/// arena, and memo intact — whenever an instruction would read past the
/// buffered prefix or consult the not-yet-known total length, and resumes
/// from the exact blocked operation.
///
/// How much can run before `finish` is grammar-dependent; see
/// [`VmParser::anchor`] and [`crate::analysis::anchor_requirement`]. An
/// EOI-anchored grammar (e.g. ZIP's end-of-central-directory) suspends
/// with [`Hint::UntilEnd`] almost immediately and does its work at
/// `finish`; a grammar with computed intervals streams record by record.
///
/// ```
/// use ipg_core::frontend::parse_grammar;
/// use ipg_core::interp::vm::{Hint, Outcome, VmParser};
///
/// let g = parse_grammar(
///     r#"
///     S -> Len[0, 2] {n = Len.val} Body[2, 2 + n];
///     Len := u16be;
///     Body := bytes;
///     "#,
/// )?;
/// let parser = VmParser::new(&g);
/// let mut session = parser.streaming();
/// // Feed the header; the machine asks for the body bytes it now knows
/// // it needs.
/// match session.feed(&[0, 4]) {
///     Outcome::NeedInput { hint: Hint::Bytes(n) } => assert_eq!(n, 4),
///     other => panic!("{other:?}"),
/// }
/// session.feed(b"data");
/// let Outcome::Done(tree) = session.finish() else { panic!() };
/// assert_eq!(tree.root().child_node_nt(g.nt_id("Body").unwrap()).unwrap().span(), (2, 6));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session {
    /// The machine; `None` only once the session has dropped and handed
    /// its working storage back.
    machine: Option<VmSession<Arc<Image>, Vec<u8>>>,
    phase: Phase,
    start_nt: NtId,
    /// Whether the machine has a live frame stack to resume.
    started: bool,
    max_bytes: Option<usize>,
    /// Parked terminal error, replayed on any use after close.
    err: Option<Error>,
}

impl Session {
    /// Opens a session on `parser` (see also [`VmParser::streaming`]).
    /// The session shares the parser's compiled image and may outlive
    /// the parser itself.
    pub fn new(parser: &VmParser) -> Self {
        let mut vm = parser.fresh_session_with(Arc::clone(&parser.img), Vec::new(), ());
        vm.complete = false;
        let start_nt = parser.img.program.start_nt();
        let phase = match parser.img.program.rules[start_nt.0 as usize].kind {
            PRuleKind::Alts { .. } => Phase::Fresh,
            // A builtin/blackbox root consumes "its interval" — the whole
            // input — so nothing can run early.
            _ => Phase::Deferred,
        };
        Session { machine: Some(vm), phase, start_nt, started: false, max_bytes: None, err: None }
    }

    /// Caps the total buffered bytes; exceeding the cap poisons the
    /// session with a clean [`Error::Session`].
    pub fn max_bytes(mut self, cap: usize) -> Self {
        self.max_bytes = Some(cap);
        self
    }

    /// Overrides the parser's step fuel for this session only.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.vm_mut().max_steps = steps;
        self
    }

    /// The grammar's anchor requirement (copied from [`VmParser::anchor`]).
    pub fn anchor(&self) -> AnchorRequirement {
        self.vm().img.anchor
    }

    /// Bytes buffered so far.
    pub fn buffered(&self) -> usize {
        self.vm().bytes().len()
    }

    /// Number of suspensions taken so far (service telemetry).
    pub fn suspends(&self) -> u64 {
        self.vm().suspend_count
    }

    /// Engine statistics so far (steps are comparable with the one-shot
    /// engines at completion).
    pub fn stats(&self) -> ParseStats {
        self.vm().stats()
    }

    /// Whether the session has delivered its result (or was poisoned).
    pub fn is_closed(&self) -> bool {
        matches!(self.phase, Phase::Closed)
    }

    /// Appends `chunk` and runs the machine as far as the buffered prefix
    /// determines. Never returns [`Outcome::Done`]: even a fully-consumed
    /// input could be extended, so completion is only decided by
    /// [`Session::finish`]. An [`Outcome::Error`] is a *determined*
    /// rejection: every input with this prefix fails identically.
    pub fn feed(&mut self, chunk: &[u8]) -> Outcome {
        if let Phase::Closed = self.phase {
            return Outcome::Error(self.closed_error());
        }
        if let Some(cap) = self.max_bytes {
            if self.vm().bytes().len().saturating_add(chunk.len()) > cap {
                return self.poison(Error::Session(format!(
                    "input exceeds the session byte budget of {cap}"
                )));
            }
        }
        self.vm_mut().input.extend_from_slice(chunk);
        match self.phase {
            Phase::Deferred => Outcome::NeedInput { hint: Hint::UntilEnd },
            Phase::Fresh => self.pump(),
            Phase::Suspended { need, hint } => {
                // Skip the re-attempt while the known byte shortfall is
                // still unmet (the common 1-byte-chunk path), restating
                // the hint against the *current* buffer so partial feeds
                // see the remaining shortfall, not the original one.
                match need {
                    Some(n) if self.vm().bytes().len() >= n => self.pump(),
                    Some(n) => {
                        Outcome::NeedInput { hint: Hint::Bytes(n - self.vm().bytes().len()) }
                    }
                    None => Outcome::NeedInput { hint },
                }
            }
            Phase::Closed => unreachable!("handled above"),
        }
    }

    /// Signals end-of-input: the total length becomes known, every
    /// suspension gate opens, and the machine runs to completion.
    /// Returns [`Outcome::Done`] or [`Outcome::Error`], never
    /// [`Outcome::NeedInput`].
    pub fn finish(&mut self) -> Outcome {
        if let Phase::Closed = self.phase {
            return Outcome::Error(self.closed_error());
        }
        self.vm_mut().complete = true;
        if self.started {
            self.vm_mut().seal_root();
        }
        self.pump()
    }

    /// Starts or resumes the machine and classifies how it stopped.
    fn pump(&mut self) -> Outcome {
        let step = self.step_machine();
        match step {
            Ok(Some(root)) => {
                let arena = std::mem::take(&mut self.vm_mut().ws.arena);
                // `err` stays `None`: the misuse error for feeding a
                // delivered session is built lazily in `closed_error`.
                self.phase = Phase::Closed;
                Outcome::Done(ParseTree { arena, root })
            }
            Ok(None) => {
                let vm = self.vm();
                let e = Error::Parse(vm.deepest.render(&vm.img.grammar, &vm.img.program));
                self.poison(e)
            }
            Err(Abort::FuelExhausted) => {
                let vm = self.vm();
                let msg = FuelMsg::Verbose.render(vm.max_steps);
                let e = Error::Parse(vm.deepest.render_with(&vm.img.grammar, msg));
                self.poison(e)
            }
            Err(Abort::Suspend) => {
                debug_assert!(!self.vm().complete, "no suspension can fire after end-of-input");
                let hint = self.vm_mut().suspend.take().expect("suspension parks a hint");
                let need = match hint {
                    Hint::Bytes(n) => Some(self.vm().bytes().len() + n),
                    Hint::UntilEnd => None,
                };
                self.phase = Phase::Suspended { need, hint };
                Outcome::NeedInput { hint }
            }
        }
    }

    /// One driver step: start the root or re-enter the suspended
    /// operation, then drive until done/suspended/aborted.
    fn step_machine(&mut self) -> PResult<Option<TreeId>> {
        if !self.started {
            self.started = true;
            let nt = self.start_nt;
            let vm = self.vm_mut();
            if vm.complete {
                // Nothing ran before end-of-input: plain one-shot parse
                // over the whole buffer (also the builtin/blackbox-root
                // path).
                return vm.run_root(nt);
            }
            return match vm.push_open_root(nt)? {
                true => vm.drive(Flow::Exec),
                false => Ok(None), // zero-alternative root: immediate failure
            };
        }
        let vm = self.vm_mut();
        let flow = match vm.resume {
            ResumeKind::Exec => Flow::Exec,
            ResumeKind::LoopIter => {
                let fi = vm.depth - 1;
                match std::mem::replace(&mut vm.ws.frames[fi].pending, Pending::None) {
                    Pending::Loop(st) => vm.loop_next(fi, st)?,
                    _ => unreachable!("LoopIter resume requires a stashed loop"),
                }
            }
        };
        vm.drive(flow)
    }

    fn vm(&self) -> &VmSession<Arc<Image>, Vec<u8>> {
        self.machine.as_ref().expect("a live session has its machine")
    }

    fn vm_mut(&mut self) -> &mut VmSession<Arc<Image>, Vec<u8>> {
        self.machine.as_mut().expect("a live session has its machine")
    }

    fn poison(&mut self, e: Error) -> Outcome {
        self.phase = Phase::Closed;
        self.err = Some(e.clone());
        Outcome::Error(e)
    }

    fn closed_error(&self) -> Error {
        self.err
            .clone()
            .unwrap_or_else(|| Error::Session("session already delivered its result".into()))
    }
}

impl Drop for Session {
    /// Hands the session's working storage back to the thread.
    fn drop(&mut self) {
        if let Some(vm) = self.machine.take() {
            vm.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_grammar;
    use crate::interp::Parser;

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
    fn repeated_builtin_failure_reports_the_interpreter_error() {
        // A failing builtin invoked twice at the same slice: the
        // interpreter's second invocation is a silent memo hit, so the
        // terminal failure of `T` (recorded in between, at the same
        // offset) survives as the deepest error. The VM re-executes the
        // builtin; without failure-dedup it would re-record
        // "builtin u32le failed" and report a different error.
        let g = parse_grammar(
            r#"
            S -> A[0, EOI] / T[0, EOI] / B[0, EOI];
            A -> Int[0, EOI];
            T -> "abc"[0, EOI];
            B -> Int[0, EOI];
            Int := u32le;
            "#,
        )
        .unwrap();
        let input = [0u8, 1]; // two bytes: u32le and "abc" both fail
        let err_i = Parser::new(&g).parse(&input).unwrap_err();
        let err_v = VmParser::new(&g).parse(&input).unwrap_err();
        assert_eq!(err_i, err_v);

        // With memoization off, *both* engines re-record the builtin
        // failure; they must still agree.
        let err_i = Parser::new(&g).memoize(false).parse(&input).unwrap_err();
        let err_v = VmParser::new(&g).memoize(false).parse(&input).unwrap_err();
        assert_eq!(err_i, err_v);
    }

    fn fig2_input() -> Vec<u8> {
        let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
        input.extend_from_slice(b"DATA");
        input
    }

    #[test]
    fn vm_and_interpreter_build_identical_trees() {
        let g = fig2();
        let input = fig2_input();
        let reference = Parser::new(&g).parse(&input).unwrap();
        let vm_tree = VmParser::new(&g).parse(&input).unwrap();
        assert_eq!(vm_tree.root().to_tree(), reference);
    }

    #[test]
    fn vm_and_interpreter_report_identical_stats_and_errors() {
        let g = fig2();
        let mut input = fig2_input();
        let vm = VmParser::new(&g);

        let (ok_i, stats_i) = Parser::new(&g).parse_with_stats(&input);
        let (ok_v, stats_v) = vm.parse_with_stats(&input);
        assert!(ok_i.is_ok() && ok_v.is_ok());
        // Steps are tick-for-tick identical; memo statistics are engine
        // policy (the VM skips builtin memoization).
        assert_eq!(stats_i.steps, stats_v.steps);

        input.truncate(6); // header cut short
        let err_i = Parser::new(&g).parse(&input).unwrap_err();
        let err_v = vm.parse(&input).unwrap_err();
        assert_eq!(err_i, err_v);
    }

    #[test]
    fn views_mirror_the_node_accessors() {
        let g = fig2();
        let input = fig2_input();
        let tree = VmParser::new(&g).parse(&input).unwrap();
        let root = tree.root();
        let h = root.child_node_nt(g.nt_id("H").unwrap()).unwrap();
        assert_eq!(h.name(), "H");
        assert_eq!(h.attr(&g, "offset"), Some(8));
        assert_eq!(h.attr(&g, "length"), Some(4));
        assert_eq!(h.span(), (0, 8));
        assert!(root.as_node().unwrap().children().all(|c| c.as_array().is_none()));
        let data = root.child_node_nt(g.nt_id("Data").unwrap()).unwrap();
        assert_eq!(data.span(), (8, 12));
        assert_eq!(&input[data.span().0..data.span().1], b"DATA");
    }

    #[test]
    fn memoization_toggle_and_fuel_mirror_the_interpreter() {
        let g = fig2();
        let input = fig2_input();
        let (r, no_memo) = VmParser::new(&g).memoize(false).parse_with_stats(&input);
        r.unwrap();
        assert_eq!(no_memo.memo_entries, 0);
        assert_eq!(no_memo.memo_hits, 0);

        let err = VmParser::new(&g).max_steps(3).parse(&input).unwrap_err();
        let err_i = Parser::new(&g).max_steps(3).parse(&input).unwrap_err();
        assert_eq!(err, err_i);
    }

    #[test]
    fn feed_restates_the_byte_shortfall_against_the_current_buffer() {
        let g = parse_grammar(
            r#"
            S -> Len[0, 2] {n = Len.val} Body[2, 2 + n];
            Len := u16be;
            Body := bytes;
            "#,
        )
        .unwrap();
        let parser = VmParser::new(&g);
        let mut session = parser.streaming();
        // Header says a 100-byte body follows.
        let Outcome::NeedInput { hint: Hint::Bytes(100) } = session.feed(&[0, 100]) else {
            panic!("expected a 100-byte shortfall")
        };
        // A partial feed must shrink the stated shortfall, not replay it.
        let Outcome::NeedInput { hint: Hint::Bytes(n) } = session.feed(&[0u8; 60]) else {
            panic!("expected a byte hint")
        };
        assert_eq!(n, 40);
    }

    #[test]
    fn star_and_arrays_agree_with_interpreter() {
        let g = parse_grammar(
            r#"
            S -> star Item[0, EOI];
            Item -> Len[0, 1] Byte[1, 1 + Len.val];
            Len := u8;
            Byte := bytes;
            "#,
        )
        .unwrap();
        let input = [2u8, 0xaa, 0xbb, 1, 0xcc, 0, 3, 1, 2, 3];
        let reference = Parser::new(&g).parse(&input).unwrap();
        let vm_tree = VmParser::new(&g).parse(&input).unwrap();
        assert_eq!(vm_tree.root().to_tree(), reference);
        let arr = vm_tree.root().child_array_nt(g.nt_id("Item").unwrap()).unwrap();
        assert_eq!(arr.len(), 4);
    }
}
