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

/// Largest streaming session input buffer, in bytes, that a [`Workspace`]
/// keeps for the thread's next session: whole files of a few hundred KiB
/// stream without regrowing it.
const RETAIN_MAX_INPUT: usize = 1 << 18;

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
    /// The input buffer of the thread's last streaming [`Session`],
    /// cleared, which the next session takes over instead of growing one
    /// of its own.
    ///
    /// [`Session`]: super::Session
    pub(super) input: Vec<u8>,
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
        let rules = img.grammar.nt_count();
        ws.memo.reset(rules, if memoize { 8 * rules } else { 0 });
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
        self.memo.clear();
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
        if self.input.capacity() > RETAIN_MAX_INPUT {
            self.input = Vec::new();
        }
        self.input.clear();
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

/// The memo table: a rule call's result per `(rule, base, len)` key, kept
/// as an append-only log. Most keys are never read (a parse that moves
/// left to right rarely asks for an interval twice), so an insert is a
/// push and hashes nothing. Per rule the table keeps:
///
/// * its mark, one more than the highest base it holds a key at: keys are
///   only ever added during a parse, so a base at or above it has no key,
///   and a run of keys above a base is ruled out at once;
/// * its latest entry: each entry links to its rule's previous one, so a
///   lookup below the mark compares the rule's few latest keys first,
///   which is where the hits are (a list rule's second alternative asking
///   again for the element its first just parsed);
/// * how much of the log its entries are indexed up to: a lookup that
///   finds its key in none of the latest entries indexes the rule's
///   un-indexed entries into a map and probes that, so each entry is
///   indexed at most once.
///
/// A key is inserted at most once per parse: a call inserts its key only
/// after its lookup missed, and no call re-enters its own key.
#[derive(Default)]
pub(super) struct Memo {
    log: Vec<MemoEntry>,
    /// Indexed by rule.
    rules: Vec<RuleMemo>,
    /// The indexed entries of every rule.
    map: FxHashMap<(NtId, usize, usize), Option<TreeId>>,
    /// Entries indexed so far: each at most once.
    #[cfg(test)]
    indexed: usize,
}

/// One inserted key and its result.
#[derive(Clone, Copy)]
struct MemoEntry {
    base: usize,
    len: usize,
    result: Option<TreeId>,
    /// The log index of the rule's previous entry, or [`NO_ENTRY`].
    prev: u32,
}

/// A rule's place in the [`Memo`]; the default is a rule without keys.
#[derive(Clone, Copy)]
struct RuleMemo {
    /// One more than the highest base the rule holds a key at.
    top: usize,
    /// The log index of the rule's latest entry, or [`NO_ENTRY`].
    last: u32,
    /// The rule's entries below this log index are indexed in the map.
    indexed: u32,
}

impl Default for RuleMemo {
    fn default() -> Self {
        RuleMemo { top: 0, last: NO_ENTRY, indexed: 0 }
    }
}

/// The end of a rule's chain of entries.
const NO_ENTRY: u32 = u32::MAX;

/// How many of a rule's latest entries a lookup below the mark compares
/// before it turns to the map.
const RECENT: usize = 4;

impl Memo {
    /// Readies the table for a parse of a grammar with `rules` rules,
    /// reserving room for `reserve` keys.
    fn reset(&mut self, rules: usize, reserve: usize) {
        debug_assert!(self.log.is_empty(), "reset of a memo still holding keys");
        self.rules.resize(rules, RuleMemo::default());
        self.log.reserve(reserve);
    }

    /// Drops every key; frees buffers over [`RETAIN_MAX`].
    fn clear(&mut self) {
        // Only a parse that inserted a key changed a rule's place.
        if self.log.is_empty() {
            return;
        }
        if self.log.capacity() > RETAIN_MAX {
            self.log = Vec::new();
        }
        self.log.clear();
        // Only a lookup that missed the recent entries indexed a rule.
        if !self.map.is_empty() {
            if self.map.capacity() > RETAIN_MAX {
                self.map = FxHashMap::default();
            }
            self.map.clear();
        }
        self.rules.fill(RuleMemo::default());
    }

    /// The number of keys it holds.
    pub(super) fn len(&self) -> usize {
        self.log.len()
    }

    #[inline]
    pub(super) fn get(&mut self, nt: NtId, base: usize, len: usize) -> Option<Option<TreeId>> {
        let rule = self.rules[nt.0 as usize];
        if rule.top <= base {
            return None;
        }
        let mut at = rule.last;
        for _ in 0..RECENT {
            let Some(e) = self.log.get(at as usize) else {
                // Every key of the rule was compared.
                return None;
            };
            if (e.base, e.len) == (base, len) {
                return Some(e.result);
            }
            at = e.prev;
        }
        self.index(nt);
        self.map.get(&(nt, base, len)).copied()
    }

    /// Indexes `nt`'s entries that are not yet in the map.
    #[cold]
    fn index(&mut self, nt: NtId) {
        let rule = &mut self.rules[nt.0 as usize];
        let mut at = rule.last;
        while at != NO_ENTRY && at >= rule.indexed {
            let e = self.log[at as usize];
            self.map.insert((nt, e.base, e.len), e.result);
            at = e.prev;
            #[cfg(test)]
            {
                self.indexed += 1;
            }
        }
        rule.indexed = self.log.len() as u32;
    }

    #[inline]
    pub(super) fn insert(&mut self, nt: NtId, base: usize, len: usize, result: Option<TreeId>) {
        let at = u32::try_from(self.log.len()).expect("memo overflow: 2^32 keys");
        let rule = &mut self.rules[nt.0 as usize];
        self.log.push(MemoEntry { base, len, result, prev: rule.last });
        rule.last = at;
        rule.top = rule.top.max(base + 1);
    }

    /// Whether the table may hold a key of `nt` at a base above `base`.
    #[inline]
    pub(super) fn may_hold_above(&self, nt: NtId, base: usize) -> bool {
        self.rules[nt.0 as usize].top > base + 1
    }
}

#[cfg(test)]
mod tests {
    use super::{Memo, RECENT};
    use crate::arena::{TreeArena, TreeId};
    use crate::check::NtId;
    use fxhash::FxHashMap;

    /// `n` distinct results.
    fn results(n: usize) -> Vec<TreeId> {
        let mut arena = TreeArena::default();
        (0..n).map(|i| arena.alloc_leaf(i, i)).collect()
    }

    #[test]
    fn a_repeat_of_a_recent_key_hits_without_indexing() {
        let ids = results(3);
        let mut memo = Memo::default();
        memo.reset(2, 0);
        let (a, b) = (NtId(0), NtId(1));
        memo.insert(a, 0, 10, Some(ids[0]));
        memo.insert(b, 0, 10, Some(ids[1]));
        memo.insert(a, 4, 6, None);
        memo.insert(a, 6, 4, Some(ids[2]));
        assert_eq!(memo.get(a, 0, 10), Some(Some(ids[0])), "third latest of its rule");
        assert_eq!(memo.get(a, 4, 6), Some(None), "a failure is a hit too");
        assert_eq!(memo.get(b, 0, 10), Some(Some(ids[1])));
        assert_eq!(memo.get(a, 0, 9), None, "every key of the rule compared");
        assert_eq!(memo.get(a, 7, 3), None, "at or above the mark");
        assert_eq!(memo.indexed, 0);
        assert!(memo.map.is_empty());
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn each_entry_is_indexed_at_most_once_under_interleaved_lookups() {
        const RULES: u32 = 3;
        let ids = results(64);
        let mut memo = Memo::default();
        memo.reset(RULES as usize, 0);
        let mut reference = FxHashMap::default();
        // A fixed linear congruential sequence picks the operations.
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for round in 0..2000 {
            let nt = NtId(next(u64::from(RULES)) as u32);
            let (base, len) = (next(40) as usize, next(8) as usize);
            if next(3) == 0 && !reference.contains_key(&(nt, base, len)) {
                let result = (next(4) > 0).then(|| ids[round % ids.len()]);
                memo.insert(nt, base, len, result);
                reference.insert((nt, base, len), result);
            } else {
                assert_eq!(memo.get(nt, base, len), reference.get(&(nt, base, len)).copied());
            }
            assert!(memo.indexed <= memo.len(), "round {round}");
        }
        // Indexing what is left of each rule, as a lookup that misses
        // its recent entries does, leaves every entry indexed exactly
        // once.
        for nt in (0..RULES).map(NtId) {
            assert!(memo.rules[nt.0 as usize].top > 0);
            memo.index(nt);
        }
        assert_eq!(memo.indexed, memo.len());
        assert_eq!(memo.map.len(), memo.len());
        assert!(memo.len() > RULES as usize * RECENT);
        for (&(nt, base, len), &result) in &reference {
            assert_eq!(memo.get(nt, base, len), Some(result));
        }
    }

    #[test]
    fn clear_forgets_every_key() {
        let ids = results(1);
        let mut memo = Memo::default();
        memo.reset(1, 0);
        for base in 0..2 * RECENT {
            memo.insert(NtId(0), base, 1, Some(ids[0]));
        }
        assert_eq!(memo.get(NtId(0), 0, 1), Some(Some(ids[0])), "found in the map");
        memo.clear();
        memo.reset(1, 0);
        assert_eq!((memo.len(), memo.map.len()), (0, 0));
        assert_eq!(memo.get(NtId(0), 0, 1), None);
        memo.insert(NtId(0), 0, 2, None);
        assert_eq!(memo.get(NtId(0), 0, 1), None);
        assert_eq!(memo.get(NtId(0), 0, 2), Some(None));
    }
}
