//! A tiny string interner.
//!
//! Grammars refer to nonterminals and attributes by name; the checker,
//! interpreter and code generator refer to them by dense integer ids so that
//! environments can be flat vectors instead of hash maps. One [`Interner`]
//! instance lives inside every [`crate::Grammar`].

use std::collections::HashMap;
use std::fmt;

/// An interned symbol (attribute name, loop variable, …).
///
/// `Sym`s are only meaningful relative to the [`Interner`] that produced
/// them; comparing symbols from different interners is a logic error (but
/// memory-safe).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// Interns strings, handing out dense [`Sym`] ids.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, Sym>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Sym(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("offset");
        let b = i.intern("offset");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_syms() {
        let mut i = Interner::new();
        let a = i.intern("offset");
        let b = i.intern("length");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "offset");
        assert_eq!(i.resolve(b), "length");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        i.intern("x");
        assert!(i.get("x").is_some());
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
