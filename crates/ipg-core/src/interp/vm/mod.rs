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
//! * **Explicit work stack**: nonterminal calls push frames onto a
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
//!   a level's position, element and touched region are a `Level` on a
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
//! This module holds the API, [`VmParser`] and [`ParseTree`]; the
//! machine is split along its seams:
//!
//! * `machine`: a parse's frames, its calls and the instruction loop;
//! * `bulk`: the records, byte scans and chains;
//! * `workspace`: the per-thread working storage and the memo table;
//! * `failure`: the deepest failure and the error it renders to;
//! * `session`: the streaming [`Session`], with its [`Outcome`] and
//!   [`Hint`].
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
//!
//! [`Instr::Record`]: crate::bytecode::Instr::Record
//! [`Instr::Scan`]: crate::bytecode::Instr::Scan
//! [`Instr::Chain`]: crate::bytecode::Instr::Chain
//! [`ParseError`]: crate::error::ParseError

mod bulk;
mod failure;
mod machine;
mod session;
mod workspace;

pub use session::{Hint, Outcome, Session};

use super::ParseStats;
use crate::arena::{AttrSlot, TreeArena, TreeId, TreeRef};
use crate::bytecode::{compile, Program, SizeHints};
use crate::check::{Grammar, NtId};
use crate::error::Result;
use crate::layout::{self, Layouts};
use crate::profile::{ProfSink, ProfileReport, Profiler};
use machine::VmSession;
use std::ops::Deref;
use std::sync::Arc;
use workspace::Workspace;

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

    /// Moves the output of the blackbox result `id` (a [`TreeRef::id`])
    /// out of the tree, leaving it empty for every later read; `None` if
    /// `id` is not a blackbox's result.
    pub fn take_blackbox_data(&mut self, id: TreeId) -> Option<Vec<u8>> {
        self.arena.take_blackbox_data(id)
    }
}

impl Drop for ParseTree {
    /// Hands the arena back, cleared, to the dropping thread's workspace,
    /// so that thread's next parse refills it instead of regrowing its
    /// pools.
    fn drop(&mut self) {
        Workspace::give_back_arena(std::mem::take(&mut self.arena));
    }
}

impl VmParser {
    /// Compiles `grammar` and creates a parser with memoization enabled
    /// and no step limit. The parser keeps its own copy of the grammar.
    pub fn new(grammar: &Grammar) -> Self {
        Self::from_compiled(grammar.clone(), compile(grammar))
    }

    /// Wraps an already-compiled program, typically a
    /// [`crate::ipgc::CachedProgram`]'s, skipping the compile step.
    /// `grammar` must be the grammar the program was compiled from. What
    /// a parse needs beyond the program is derived here: the attribute
    /// layouts (`layout`) and the size hints.
    pub fn from_compiled(grammar: Grammar, mut program: Program) -> Self {
        let layouts = Arc::new(layout::resolve(&mut program, &grammar));
        let hints = program.size_hints();
        let img = Image { grammar, program, layouts, hints };
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
    /// Returns [`Error::Parse`](crate::Error::Parse) with the deepest
    /// failure observed when the input does not match — the same error the
    /// reference interpreter reports.
    pub fn parse(&self, input: &[u8]) -> Result<ParseTree> {
        self.fresh_session(input).run_one_shot().0
    }

    /// Like [`VmParser::parse`], but also reports [`ParseStats`]. The
    /// `steps` count matches [`crate::interp::Parser::parse_with_stats`]
    /// exactly (both engines tick at the same evaluation points, which is
    /// what makes steps/s comparisons apples-to-apples); the memo fields
    /// reflect each engine's own policy — the VM does not memoize builtin
    /// leaf rules.
    pub fn parse_with_stats(&self, input: &[u8]) -> (Result<ParseTree>, ParseStats) {
        self.fresh_session(input).run_one_shot()
    }

    /// Opens a streaming [`Session`]: input arrives incrementally via
    /// [`Session::feed`], the parse runs as far as the buffered prefix
    /// allows, and [`Session::finish`] signals end-of-input.
    pub fn streaming(&self) -> Session {
        Session::new(self)
    }

    /// One-shot parse with a per-call step budget, overriding the
    /// parser's own. This is what lets a service share one compiled
    /// parser across requests (the builder-style [`VmParser::max_steps`]
    /// consumes the parser) while still bounding hostile inputs.
    pub fn parse_bounded(&self, input: &[u8], max_steps: u64) -> (Result<ParseTree>, ParseStats) {
        let mut sess = self.fresh_session(input);
        sess.max_steps = max_steps;
        sess.run_one_shot()
    }

    /// Like [`VmParser::parse`], but runs with the [`crate::profile`]
    /// instrumentation enabled and additionally returns the aggregated
    /// [`ProfileReport`] (per-rule calls, memo hits and misses and self
    /// instructions, pc-indexed instruction hits, folded stacks).
    ///
    /// Only this entry point pays the instrumentation cost: the plain
    /// `parse*` family monomorphizes with the no-op sink and is
    /// unaffected.
    pub fn parse_profiled(&self, input: &[u8]) -> (Result<ParseTree>, ParseStats, ProfileReport) {
        let p = &self.img.program;
        let mut prof = Profiler::new(p.rule_count(), p.instr_count());
        let sess = self.fresh_session_with(&*self.img, input, &mut prof);
        let (result, stats) = sess.run_one_shot();
        let report = ProfileReport::build(&self.img.grammar, p, prof);
        (result, stats, report)
    }

    /// A one-shot session over `input`, borrowing the parser's image.
    fn fresh_session<'a>(&'a self, input: &'a [u8]) -> VmSession<&'a Image, &'a [u8]> {
        self.fresh_session_with(&*self.img, input, ())
    }

    /// A session of this parser's settings over `input`, reading the
    /// image through `img`. Its working storage comes from this thread's
    /// previous parse.
    fn fresh_session_with<G: Deref<Target = Image>, I: AsRef<[u8]>, PS: ProfSink>(
        &self,
        img: G,
        input: I,
        prof: PS,
    ) -> VmSession<G, I, PS> {
        VmSession::new(img, input, self.memoize, self.max_steps.unwrap_or(u64::MAX), prof)
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
