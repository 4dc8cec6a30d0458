//! Streaming sessions: a parse that runs as far as the input buffered so
//! far determines, suspends in place, and resumes when more arrives.

use super::machine::{Abort, PResult, VmSession};
use super::{Image, ParseTree, VmParser};
use crate::arena::TreeId;
use crate::bytecode::PRuleKind;
use crate::error::Error;
use crate::interp::ParseStats;
use std::sync::Arc;

/// What a suspended [`Session`] is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hint {
    /// At least this many more bytes beyond the current buffer.
    Bytes(usize),
    /// Only end-of-input unlocks progress — the parse is consulting `EOI`
    /// (see [`crate::analysis::AnchorRequirement`]); call [`Session::finish`].
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
    /// Machine not started: the next feed starts it over an open-length
    /// root, and a finish before any feed runs a plain one-shot parse.
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
/// [`crate::analysis::anchor_requirement`]. An EOI-anchored grammar (e.g.
/// ZIP's end-of-central-directory) suspends with [`Hint::UntilEnd`] almost
/// immediately and does its work at `finish`; a grammar with computed
/// intervals streams record by record.
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
        // The buffer of the thread's last session, with its capacity.
        vm.input = std::mem::take(&mut vm.ws.input);
        let phase = match vm.img.program.rules[vm.img.program.start_nt().0 as usize].kind {
            PRuleKind::Alts { .. } => Phase::Fresh,
            // A builtin/blackbox root consumes "its interval" — the whole
            // input — so nothing can run early.
            _ => Phase::Deferred,
        };
        Session { machine: Some(vm), phase, max_bytes: None, err: None }
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
            Phase::Fresh => {
                let stop = self.vm_mut().run_open_root();
                self.settle(stop)
            }
            Phase::Suspended { need, hint } => {
                // Skip the re-attempt while the known byte shortfall is
                // still unmet (the common 1-byte-chunk path), restating
                // the hint against the *current* buffer so partial feeds
                // see the remaining shortfall, not the original one.
                match need {
                    Some(n) if self.vm().bytes().len() >= n => {
                        let stop = self.vm_mut().resume();
                        self.settle(stop)
                    }
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
        let stop = match self.phase {
            Phase::Closed => return Outcome::Error(self.closed_error()),
            // Nothing ran before end-of-input: a plain one-shot parse over
            // the whole buffer (also the builtin/blackbox-root path).
            Phase::Fresh | Phase::Deferred => self.vm_mut().run_root(),
            Phase::Suspended { .. } => {
                let vm = self.vm_mut();
                vm.seal_root();
                vm.resume()
            }
        };
        self.settle(stop)
    }

    /// Classifies how the machine stopped at `stop`.
    fn settle(&mut self, stop: PResult<Option<TreeId>>) -> Outcome {
        match self.vm_mut().outcome(stop) {
            Ok(Ok(tree)) => {
                // `err` stays `None`: the misuse error for feeding a
                // delivered session is built lazily in `closed_error`.
                self.phase = Phase::Closed;
                Outcome::Done(tree)
            }
            Ok(Err(e)) => self.poison(e),
            Err(Abort::Suspend) => {
                let vm = self.vm_mut();
                debug_assert!(vm.is_open_root(0), "no suspension can fire after end-of-input");
                let hint = vm.suspend.take().expect("suspension parks a hint");
                let need = match hint {
                    Hint::Bytes(n) => Some(vm.bytes().len() + n),
                    Hint::UntilEnd => None,
                };
                self.phase = Phase::Suspended { need, hint };
                Outcome::NeedInput { hint }
            }
            Err(Abort::FuelExhausted) => unreachable!("`outcome` reports fuel exhaustion"),
        }
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
    /// Hands the session's working storage and input buffer back to the
    /// thread.
    fn drop(&mut self) {
        if let Some(mut vm) = self.machine.take() {
            vm.ws.input = std::mem::take(&mut vm.input);
            vm.close();
        }
    }
}
