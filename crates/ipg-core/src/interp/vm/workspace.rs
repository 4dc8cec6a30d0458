//! The working storage of a VM parse, recycled per thread.

use super::bulk::Level;
use super::machine::{Frame, Pending};
use super::Image;
use crate::arena::{TreeArena, TreeId};
use crate::check::NtId;
use fxhash::{FxHashMap, FxHashSet};
use std::cell::Cell;

/// Largest buffer, in elements or entries, that a [`Workspace`] keeps for
/// the next parse. A bigger one is dropped instead, so one huge parse
/// neither pins its memory on the thread nor makes every later `clear`
/// pay for its capacity.
const RETAIN_MAX: usize = 4096;

/// The working storage of a VM parse, recycled per thread. Between parses
/// it sits boxed in the thread's slot: [`Workspace::take`]
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
///
/// [`VmSession::close`]: super::machine::VmSession::close
/// [`ParseTree`]: super::ParseTree
#[derive(Default)]
pub(super) struct Workspace {
    /// The frame stack: the session's `frames[..depth]` are live. Slots
    /// above `depth` are dead but keep their allocations (attribute and
    /// result slots) for reuse, so pushing a frame never moves one by
    /// value.
    pub(super) frames: Vec<Frame>,
    pub(super) memo: Memo,
    /// Builtin invocations that already recorded their failure. The VM
    /// re-executes builtins instead of memoizing them; this set keeps the
    /// *deepest-failure* bookkeeping identical to the interpreter, where a
    /// repeated failing builtin is a silent memo hit. Touched only on the
    /// (rare) builtin failure path.
    pub(super) builtin_failures: FxHashSet<(NtId, usize, usize)>,
    /// The levels of the chains in flight, each chain's above those of the
    /// chains it runs inside.
    pub(super) levels: Vec<Level>,
    /// The parse's arena; between parses a failed parse's, cleared, or
    /// the empty default when a tree took it.
    pub(super) arena: TreeArena,
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
    /// with the last dropped tree's arena if its own left with a tree,
    /// readied for a parse of `img`'s program.
    pub(super) fn take(img: &Image, memoize: bool) -> Box<Workspace> {
        let mut ws = WORKSPACE.try_with(Cell::take).ok().flatten().unwrap_or_default();
        if ws.arena.capacity() == 0 {
            ws.arena = TREE_ARENA.try_with(Cell::take).unwrap_or_default();
        }
        // Memo mirror of the interpreter's pre-sizing heuristic; arena and
        // frame stack are pre-sized from compile-time program statistics
        // (instruction counts, static call-graph nesting). Buffers
        // recycled from a parse of the same grammar are already that
        // large, and its arena already holds the layouts. The frame stack
        // keeps its dead slots, hence its reserve counts from its length.
        if memoize {
            ws.memo.map.reserve(8 * img.grammar.nt_count());
        }
        ws.memo.top.resize(img.grammar.nt_count(), 0);
        ws.frames.reserve(img.hints.frames.saturating_sub(ws.frames.len()));
        ws.arena.reset(&img.layouts, &img.hints);
        ws
    }

    /// Clears what a parse that left `depth` frames live used, drops
    /// buffers over [`RETAIN_MAX`], and parks the workspace for the
    /// thread's next parse.
    pub(super) fn give_back(mut self: Box<Self>, depth: usize) {
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
    pub(super) fn give_back_arena(mut arena: TreeArena) {
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
pub(super) struct Memo {
    map: FxHashMap<(NtId, usize, usize), Option<TreeId>>,
    /// Indexed by rule; 0 while the rule has no key.
    top: Vec<usize>,
}

impl Memo {
    /// The number of keys it holds.
    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    pub(super) fn get(&self, nt: NtId, base: usize, len: usize) -> Option<Option<TreeId>> {
        if self.top[nt.0 as usize] <= base {
            return None;
        }
        self.map.get(&(nt, base, len)).copied()
    }

    #[inline]
    pub(super) fn insert(&mut self, nt: NtId, base: usize, len: usize, result: Option<TreeId>) {
        self.map.insert((nt, base, len), result);
        let top = &mut self.top[nt.0 as usize];
        *top = (*top).max(base + 1);
    }

    /// Whether the table may hold a key of `nt` at a base above `base`.
    #[inline]
    pub(super) fn may_hold_above(&self, nt: NtId, base: usize) -> bool {
        self.top[nt.0 as usize] > base + 1
    }
}
