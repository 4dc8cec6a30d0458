//! Attribute environments of the reference interpreter.
//!
//! The parsing semantics (Fig. 8) threads an environment `E` mapping
//! attribute ids to integer values through every alternative. [`Env`] is
//! that environment, literally: an insertion-ordered sequence of
//! `(symbol, value)` bindings with linear lookup, in which the most recent
//! binding of a symbol wins. The tree-walking interpreter
//! ([`crate::interp`]) builds one per alternative it tries and stores it in
//! every [`crate::tree::Node`]; the first `INLINE` bindings live inline
//! so that `EOI`/`start`/`end` plus a few attributes stay off the heap,
//! and the rest spill to a `Vec`.
//!
//! The bytecode VM does not use `Env`. It resolves every attribute to a
//! fixed slot when a parser is built (`layout`) and keeps values
//! in `i64` slots; [`crate::arena::TreeRef::to_tree`] rebuilds an `Env`,
//! binding for binding, only to compare its trees with the interpreter's.
//! The well-known symbols below are shared by both engines.

use crate::intern::Sym;

/// Inline binding capacity. Six covers `EOI`/`start`/`end` plus three
/// user attributes — the common case across the format grammars.
const INLINE: usize = 6;

/// Well-known symbols. [`crate::check::check`] interns these first, in this
/// exact order, so the constants below are valid in every checked grammar.
pub mod wellknown {
    use crate::intern::{Interner, Sym};

    /// `start` — left-most input offset touched by a nonterminal.
    pub const START: Sym = Sym(0);
    /// `end` — one plus the right-most input offset touched.
    pub const END: Sym = Sym(1);
    /// `EOI` — length of the current rule's input.
    pub const EOI: Sym = Sym(2);
    /// `val` — the value attribute defined by every builtin parser.
    pub const VAL: Sym = Sym(3);

    /// Creates an interner pre-seeded with the well-known symbols.
    pub fn seeded_interner() -> Interner {
        let mut i = Interner::new();
        assert_eq!(i.intern("start"), START);
        assert_eq!(i.intern("end"), END);
        assert_eq!(i.intern("EOI"), EOI);
        assert_eq!(i.intern("val"), VAL);
        i
    }
}

/// An attribute environment: a map from [`Sym`] to `i64`, stored as a
/// logical insertion-ordered sequence `inline[..inline_len] ++ spill`.
#[derive(Clone)]
pub struct Env {
    inline: [(Sym, i64); INLINE],
    inline_len: u8,
    spill: Vec<(Sym, i64)>,
}

impl Default for Env {
    fn default() -> Self {
        Env { inline: [(Sym(0), 0); INLINE], inline_len: 0, spill: Vec::new() }
    }
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The initial environment of an alternative parsing an input of length
    /// `len`: `{EOI ↦ len, start ↦ len, end ↦ 0}` (rule R-AltSucc).
    /// Allocation-free: the three well-known bindings fit inline.
    #[inline]
    pub fn initial(len: usize) -> Self {
        let mut env = Env::default();
        env.inline[0] = (wellknown::EOI, len as i64);
        env.inline[1] = (wellknown::START, len as i64);
        env.inline[2] = (wellknown::END, 0);
        env.inline_len = 3;
        env
    }

    #[inline]
    fn inline_entries(&self) -> &[(Sym, i64)] {
        &self.inline[..self.inline_len as usize]
    }

    /// Looks up `sym` (most recent binding wins).
    #[inline]
    pub fn get(&self, sym: Sym) -> Option<i64> {
        self.iter_rev().find(|(s, _)| *s == sym).map(|(_, v)| v)
    }

    fn find_mut(&mut self, sym: Sym) -> Option<&mut (Sym, i64)> {
        let inline = &mut self.inline[..self.inline_len as usize];
        inline.iter_mut().chain(self.spill.iter_mut()).find(|(s, _)| *s == sym)
    }

    /// Binds `sym` to `v`, overwriting any previous binding.
    pub fn set(&mut self, sym: Sym, v: i64) {
        if let Some(entry) = self.find_mut(sym) {
            entry.1 = v;
        } else {
            self.push_scope(sym, v);
        }
    }

    /// Pushes a binding without removing a previous one; paired with
    /// [`Env::pop_scope`] for loop variables.
    #[inline]
    pub fn push_scope(&mut self, sym: Sym, v: i64) {
        // Invariant: `spill` is only non-empty when the inline buffer is
        // full, so the logical order is always inline-then-spill.
        if (self.inline_len as usize) < INLINE && self.spill.is_empty() {
            self.inline[self.inline_len as usize] = (sym, v);
            self.inline_len += 1;
        } else {
            self.spill.push((sym, v));
        }
    }

    /// Removes the most recent binding (added by [`Env::push_scope`]).
    pub fn pop_scope(&mut self) {
        if self.spill.pop().is_none() {
            self.inline_len = self.inline_len.saturating_sub(1);
        }
    }

    /// Updates the most recent binding for `sym` in place (used to advance a
    /// loop variable without push/pop churn).
    pub fn set_top(&mut self, sym: Sym, v: i64) {
        let inline = &mut self.inline[..self.inline_len as usize];
        if let Some(entry) =
            self.spill.iter_mut().rev().chain(inline.iter_mut().rev()).find(|(s, _)| *s == sym)
        {
            entry.1 = v;
        } else {
            self.push_scope(sym, v);
        }
    }

    /// The `start` value (panics if absent — environments built with
    /// [`Env::initial`] always have it).
    #[inline]
    pub fn start(&self) -> i64 {
        self.get(wellknown::START).expect("env has start")
    }

    /// The `end` value.
    #[inline]
    pub fn end(&self) -> i64 {
        self.get(wellknown::END).expect("env has end")
    }

    /// Implements `updStartEnd(E, l, r, b)` from the paper: when `b` holds,
    /// widen the touched region to include `[l, r)`.
    #[inline]
    pub fn upd_start_end(&mut self, l: i64, r: i64, b: bool) {
        if b {
            let s = self.start().min(l);
            let e = self.end().max(r);
            self.set(wellknown::START, s);
            self.set(wellknown::END, e);
        }
    }

    /// Shifts `start` and `end` by `delta` (rule T-NTSucc's re-basing of a
    /// callee's touched region into caller coordinates).
    #[inline]
    pub fn shift_start_end(&mut self, delta: i64) {
        let s = self.start();
        let e = self.end();
        self.set(wellknown::START, s + delta);
        self.set(wellknown::END, e + delta);
    }

    /// Iterates over `(sym, value)` bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, i64)> + '_ {
        self.inline_entries().iter().chain(self.spill.iter()).copied()
    }

    fn iter_rev(&self) -> impl Iterator<Item = (Sym, i64)> + '_ {
        self.spill.iter().rev().chain(self.inline_entries().iter().rev()).copied()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FromIterator<(Sym, i64)> for Env {
    /// Builds an environment binding each pair in order (no overwriting:
    /// the pairs are expected to have distinct symbols).
    fn from_iter<T: IntoIterator<Item = (Sym, i64)>>(iter: T) -> Self {
        let mut env = Env::new();
        for (sym, v) in iter {
            env.push_scope(sym, v);
        }
        env
    }
}

impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Env {}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_env_matches_r_altsucc() {
        let e = Env::initial(10);
        assert_eq!(e.get(wellknown::EOI), Some(10));
        assert_eq!(e.get(wellknown::START), Some(10));
        assert_eq!(e.get(wellknown::END), Some(0));
    }

    #[test]
    fn set_overwrites() {
        let mut e = Env::new();
        let s = Sym(7);
        e.set(s, 1);
        e.set(s, 2);
        assert_eq!(e.get(s), Some(2));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn scoped_bindings_shadow_and_restore() {
        let mut e = Env::new();
        let s = Sym(7);
        e.set(s, 1);
        e.push_scope(s, 99);
        assert_eq!(e.get(s), Some(99));
        e.pop_scope();
        assert_eq!(e.get(s), Some(1));
    }

    #[test]
    fn upd_start_end_widens_only_when_flag_holds() {
        let mut e = Env::initial(10);
        e.upd_start_end(3, 5, false);
        assert_eq!((e.start(), e.end()), (10, 0));
        e.upd_start_end(3, 5, true);
        assert_eq!((e.start(), e.end()), (3, 5));
        e.upd_start_end(1, 4, true);
        assert_eq!((e.start(), e.end()), (1, 5));
    }

    #[test]
    fn spill_beyond_inline_capacity_preserves_semantics() {
        let mut e = Env::initial(10);
        // Push well past the inline capacity.
        for i in 0..20u32 {
            e.push_scope(Sym(100 + i), i as i64);
        }
        assert_eq!(e.len(), 23);
        for i in 0..20u32 {
            assert_eq!(e.get(Sym(100 + i)), Some(i as i64));
        }
        // Overwrites find entries in both regions.
        e.set(wellknown::EOI, 77);
        e.set(Sym(119), -1);
        assert_eq!(e.get(wellknown::EOI), Some(77));
        assert_eq!(e.get(Sym(119)), Some(-1));
        // set_top hits the most recent binding, spill first.
        e.push_scope(Sym(105), 500);
        e.set_top(Sym(105), 501);
        assert_eq!(e.get(Sym(105)), Some(501));
        e.pop_scope();
        assert_eq!(e.get(Sym(105)), Some(5));
        // Insertion order is stable across the inline/spill boundary.
        let syms: Vec<u32> = e.iter().map(|(s, _)| s.0).collect();
        assert_eq!(&syms[..3], &[2, 0, 1], "EOI, start, end first");
        assert_eq!(syms.len(), 23);
        assert!(syms.windows(2).skip(3).all(|w| w[0] < w[1]), "pushes stay ordered");
    }

    #[test]
    fn equality_ignores_inline_vs_spill_split() {
        let mut a = Env::new();
        let mut b = Env::new();
        for i in 0..8u32 {
            a.push_scope(Sym(i), i as i64);
        }
        for i in 0..8u32 {
            b.push_scope(Sym(i), i as i64);
        }
        assert_eq!(a, b);
        b.set(Sym(7), 99);
        assert_ne!(a, b);
    }

    #[test]
    fn shift_start_end_rebases_both() {
        let mut e = Env::initial(10);
        e.upd_start_end(2, 5, true);
        e.shift_start_end(3);
        assert_eq!((e.start(), e.end()), (5, 8));
    }

    #[test]
    fn seeded_interner_matches_constants() {
        let i = wellknown::seeded_interner();
        assert_eq!(i.get("start"), Some(wellknown::START));
        assert_eq!(i.get("end"), Some(wellknown::END));
        assert_eq!(i.get("EOI"), Some(wellknown::EOI));
        assert_eq!(i.get("val"), Some(wellknown::VAL));
    }
}
