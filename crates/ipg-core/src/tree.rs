//! Parse trees.
//!
//! `Tr ::= Node(A, E, Tr…) | Array(Tr…) | Leaf(s)` from §3.3 of the paper,
//! extended with a `Blackbox` leaf carrying the decoded output of an opaque
//! external parser.
//!
//! Subtrees are reference-counted so that the memoizing interpreter can
//! reuse a cached result in several places without deep copies (the paper's
//! O(n²) memoization argument relies on exactly this sharing).
//!
//! A right-recursive list is a tree as deep as the list is long, so
//! nothing here recurses once per level: equality ([`Tree::first_difference`])
//! and drop walk the tree with an explicit stack.

use crate::check::NtId;
use crate::env::Env;
use crate::intern::Sym;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A parse tree.
#[derive(Clone, Debug)]
pub enum Tree {
    /// A nonterminal node: root `nt`, attribute environment, children in
    /// (reordered) term order.
    Node(Node),
    /// The result of an array term: one child per loop iteration.
    Array(ArrayNode),
    /// A matched terminal string, identified by its absolute input span.
    Leaf(Leaf),
    /// The result of a blackbox rule.
    Blackbox(BlackboxNode),
}

/// A nonterminal parse-tree node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The nonterminal this node was parsed with.
    pub nt: NtId,
    /// The nonterminal's name (kept on the node so extractors need not
    /// carry the grammar around).
    pub name: Arc<str>,
    /// Attribute environment: user attributes plus `start`/`end`/`EOI`.
    /// `start`/`end` are relative to the node's *parent* input after the
    /// caller-side adjustment of rule T-NTSucc.
    pub env: Env,
    /// Children, one per terminal/nonterminal/array/switch/blackbox term of
    /// the successful alternative (attribute definitions and predicates
    /// produce no child).
    pub children: Vec<Rc<Tree>>,
    /// Absolute input offset of this node's local input slice.
    pub base: usize,
    /// Length of this node's local input slice (`EOI`).
    pub input_len: usize,
    /// Index of the alternative that succeeded (0-based).
    pub alt_index: usize,
}

/// The result of an array term.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayNode {
    /// Element nonterminal.
    pub nt: NtId,
    /// Element nonterminal name.
    pub name: Arc<str>,
    /// One element per iteration, each a [`Tree::Node`].
    pub elems: Vec<Rc<Tree>>,
}

/// A matched terminal string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// Absolute offset of the first matched byte.
    pub start: usize,
    /// Absolute offset one past the last matched byte (equal to `start`
    /// for ε).
    pub end: usize,
}

/// The result of a blackbox rule.
#[derive(Clone, Debug, PartialEq)]
pub struct BlackboxNode {
    /// The nonterminal whose rule is the blackbox.
    pub nt: NtId,
    /// Its name.
    pub name: Arc<str>,
    /// Attribute environment (declared attributes plus `start`/`end`/`EOI`).
    pub env: Env,
    /// Decoded output (e.g. decompressed bytes).
    pub data: Arc<[u8]>,
    /// Absolute offset of the blackbox's local input slice.
    pub base: usize,
    /// Length of the local input slice.
    pub input_len: usize,
}

impl Tree {
    /// This tree as a nonterminal node, if it is one.
    pub fn as_node(&self) -> Option<&Node> {
        match self {
            Tree::Node(n) => Some(n),
            _ => None,
        }
    }

    /// This tree as an array, if it is one.
    pub fn as_array(&self) -> Option<&ArrayNode> {
        match self {
            Tree::Array(a) => Some(a),
            _ => None,
        }
    }

    /// This tree as a terminal leaf, if it is one.
    pub fn as_leaf(&self) -> Option<&Leaf> {
        match self {
            Tree::Leaf(l) => Some(l),
            _ => None,
        }
    }

    /// This tree as a blackbox node, if it is one.
    pub fn as_blackbox(&self) -> Option<&BlackboxNode> {
        match self {
            Tree::Blackbox(b) => Some(b),
            _ => None,
        }
    }

    /// The first direct child node parsed with nonterminal `nt` (resolve
    /// a name once via [`crate::check::Grammar::nt_id`]).
    pub fn child_node_nt(&self, nt: NtId) -> Option<&Node> {
        self.as_node()?.child_node_nt(nt)
    }

    /// The first direct child array of `nt` elements.
    pub fn child_array_nt(&self, nt: NtId) -> Option<&ArrayNode> {
        self.as_node()?.child_array_nt(nt)
    }

    /// The first direct blackbox child parsed with nonterminal `nt`.
    pub fn child_blackbox_nt(&self, nt: NtId) -> Option<&BlackboxNode> {
        self.as_node()?.child_blackbox_nt(nt)
    }

    /// This tree's own subtrees: a node's children or an array's elements.
    fn subtrees(&self) -> &[Rc<Tree>] {
        match self {
            Tree::Node(n) => &n.children,
            Tree::Array(a) => &a.elems,
            Tree::Leaf(_) | Tree::Blackbox(_) => &[],
        }
    }

    /// This tree and every subtree below it, in pre-order (input order),
    /// walked with an explicit stack.
    pub fn preorder(&self) -> impl Iterator<Item = &Tree> {
        let mut pending = vec![self];
        std::iter::from_fn(move || {
            let tree = pending.pop()?;
            pending.extend(tree.subtrees().iter().rev().map(|t| &**t));
            Some(tree)
        })
    }

    /// The first node, in pre-order, at which `self` and `other` differ in
    /// anything `==` compares: the variant, a nonterminal or its name, the
    /// chosen alternative, a base or input length, an attribute
    /// environment, a leaf span, blackbox data, or a number of subtrees.
    /// `None` when the trees are equal. The walk keeps an explicit stack,
    /// so a tree as deep as its input compares on any thread.
    pub fn first_difference<'t>(&'t self, other: &'t Tree) -> Option<Difference<'t>> {
        // Pairs still to compare, with their depth below the roots; `path`
        // holds the left-hand ancestors of the pair being compared.
        let mut pending = vec![(0, self, other)];
        let mut path: Vec<&Tree> = Vec::new();
        while let Some((depth, left, right)) = pending.pop() {
            path.truncate(depth);
            path.push(left);
            if let Some(field) = differing(left, right) {
                return Some(Difference { path, right, field });
            }
            let pairs = left.subtrees().iter().zip(right.subtrees()).rev();
            for (l, r) in pairs.filter(|(l, r)| !Rc::ptr_eq(l, r)) {
                pending.push((depth + 1, l, r));
            }
        }
        None
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        self.first_difference(other).is_none()
    }
}

impl Drop for Tree {
    /// Frees the subtrees this tree owns alone with an explicit stack, so
    /// dropping a tree as deep as its input does not recurse once per
    /// level. Each subtree is dropped after its own subtrees were moved
    /// onto the stack.
    fn drop(&mut self) {
        let mut owned = match self {
            Tree::Node(n) => std::mem::take(&mut n.children),
            Tree::Array(a) => std::mem::take(&mut a.elems),
            Tree::Leaf(_) | Tree::Blackbox(_) => return,
        };
        while let Some(subtree) = owned.pop() {
            if let Some(mut tree) = Rc::into_inner(subtree) {
                match &mut tree {
                    Tree::Node(n) => owned.append(&mut n.children),
                    Tree::Array(a) => owned.append(&mut a.elems),
                    Tree::Leaf(_) | Tree::Blackbox(_) => {}
                }
            }
        }
    }
}

/// The first field, by name, in which the two trees' own records differ
/// (their subtrees are compared by the caller, one pair at a time).
fn differing(left: &Tree, right: &Tree) -> Option<&'static str> {
    let first = |checks: &[(bool, &'static str)]| checks.iter().find(|c| c.0).map(|c| c.1);
    match (left, right) {
        (Tree::Node(l), Tree::Node(r)) => first(&[
            (l.nt != r.nt || l.name != r.name, "nonterminal"),
            (l.alt_index != r.alt_index, "alternative"),
            (l.base != r.base, "base"),
            (l.input_len != r.input_len, "input length"),
            (l.env != r.env, "environment"),
            (l.children.len() != r.children.len(), "number of subtrees"),
        ]),
        (Tree::Array(l), Tree::Array(r)) => first(&[
            (l.nt != r.nt || l.name != r.name, "nonterminal"),
            (l.elems.len() != r.elems.len(), "number of subtrees"),
        ]),
        (Tree::Leaf(l), Tree::Leaf(r)) => first(&[(l != r, "span")]),
        (Tree::Blackbox(l), Tree::Blackbox(r)) => first(&[
            (l.nt != r.nt || l.name != r.name, "nonterminal"),
            (l.base != r.base, "base"),
            (l.input_len != r.input_len, "input length"),
            (l.env != r.env, "environment"),
            (l.data != r.data, "data"),
        ]),
        _ => Some("kind"),
    }
}

/// Where two trees first differ ([`Tree::first_difference`]). Its
/// `Display` names the differing node by its path of nonterminals from
/// the root and its base, the first field that differs, and both sides'
/// own records.
#[derive(Debug)]
pub struct Difference<'t> {
    /// The left-hand tree's nodes from the root down to the differing one.
    path: Vec<&'t Tree>,
    /// The right-hand counterpart of the differing node.
    right: &'t Tree,
    field: &'static str,
}

/// A tree's label in a path: its nonterminal, `[E]` for an array of `E`,
/// `leaf` for a matched terminal.
fn label(tree: &Tree) -> String {
    match tree {
        Tree::Node(Node { name, .. }) | Tree::Blackbox(BlackboxNode { name, .. }) => {
            name.to_string()
        }
        Tree::Array(a) => format!("[{}]", a.name),
        Tree::Leaf(_) => "leaf".into(),
    }
}

/// A tree's own record, without its subtrees, on one line.
fn record(tree: &Tree) -> String {
    match tree {
        Tree::Node(n) => format!(
            "node {} ({:?}) alt {} base {} len {} env {:?}, {} subtrees",
            n.name,
            n.nt,
            n.alt_index,
            n.base,
            n.input_len,
            n.env,
            n.children.len()
        ),
        Tree::Array(a) => format!("array [{}] ({:?}), {} subtrees", a.name, a.nt, a.elems.len()),
        Tree::Leaf(l) => format!("leaf {}..{}", l.start, l.end),
        Tree::Blackbox(b) => format!(
            "blackbox {} ({:?}) base {} len {} env {:?}, data {:02x?}",
            b.name, b.nt, b.base, b.input_len, b.env, b.data
        ),
    }
}

impl fmt::Display for Difference<'_> {
    /// `S > Items ×3 > Item (base 12): alternative differs: <interpreter's
    /// record> vs <other record>`. Runs of one label are folded, so a path
    /// through a deep list stays short.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut labels = self.path.iter().map(|t| label(t)).peekable();
        let mut separator = "";
        while let Some(name) = labels.next() {
            let mut run = 1;
            while labels.next_if_eq(&name).is_some() {
                run += 1;
            }
            write!(f, "{separator}{name}")?;
            if run > 1 {
                write!(f, " ×{run}")?;
            }
            separator = " > ";
        }
        let left = self.path.last().expect("a difference has a node");
        match left {
            Tree::Node(Node { base, .. }) | Tree::Blackbox(BlackboxNode { base, .. }) => {
                write!(f, " (base {base})")?
            }
            Tree::Leaf(l) => write!(f, " (base {})", l.start)?,
            Tree::Array(_) => {}
        }
        write!(f, ": {} differs: {} vs {}", self.field, record(left), record(self.right))
    }
}

impl Node {
    /// Looks up a user attribute by name (requires the grammar for symbol
    /// resolution).
    pub fn attr(&self, grammar: &crate::check::Grammar, name: &str) -> Option<i64> {
        let sym = grammar.attr_sym(name)?;
        self.env.get(sym)
    }

    /// Looks up an attribute by pre-resolved symbol (fast path for
    /// extractors in hot loops).
    pub fn attr_by_sym(&self, sym: Sym) -> Option<i64> {
        self.env.get(sym)
    }

    /// The node's `start` special attribute (relative to the parent's
    /// input), i.e. the left-most offset its parsing touched.
    pub fn touched_start(&self) -> i64 {
        self.env.start()
    }

    /// The node's `end` special attribute.
    pub fn touched_end(&self) -> i64 {
        self.env.end()
    }

    /// The first direct child node parsed with nonterminal `nt` (resolve
    /// a name once via [`crate::check::Grammar::nt_id`]).
    pub fn child_node_nt(&self, nt: NtId) -> Option<&Node> {
        self.children.iter().find_map(|c| c.as_node().filter(|child| child.nt == nt))
    }

    /// The first direct child array of `nt` elements.
    pub fn child_array_nt(&self, nt: NtId) -> Option<&ArrayNode> {
        self.children.iter().find_map(|c| c.as_array().filter(|a| a.nt == nt))
    }

    /// The first direct blackbox child parsed with nonterminal `nt`.
    pub fn child_blackbox_nt(&self, nt: NtId) -> Option<&BlackboxNode> {
        self.children.iter().find_map(|c| c.as_blackbox().filter(|b| b.nt == nt))
    }

    /// The absolute input span `[base, base + input_len)` this node was
    /// asked to describe.
    pub fn span(&self) -> (usize, usize) {
        (self.base, self.base + self.input_len)
    }
}

impl ArrayNode {
    /// Element `i` as a node.
    pub fn node(&self, i: usize) -> Option<&Node> {
        self.elems.get(i).and_then(|t| t.as_node())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Iterates over elements as nodes (skipping nothing: array elements
    /// are always nodes).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.elems.iter().filter_map(|t| t.as_node())
    }
}

impl Leaf {
    /// The matched bytes within `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not the buffer this leaf was parsed from (span
    /// out of bounds).
    pub fn bytes<'a>(&self, input: &'a [u8]) -> &'a [u8] {
        &input[self.start..self.end]
    }

    /// Length of the matched terminal.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match was the empty string.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(start: usize, end: usize) -> Rc<Tree> {
        Rc::new(Tree::Leaf(Leaf { start, end }))
    }

    #[test]
    fn leaf_bytes_slice_the_input() {
        let l = Leaf { start: 2, end: 5 };
        assert_eq!(l.bytes(b"..abc.."), b"abc");
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
        assert!(Leaf { start: 4, end: 4 }.is_empty());
    }

    #[test]
    fn child_lookup_by_nt() {
        let child = Node {
            nt: NtId(1),
            name: "H".into(),
            env: Env::new(),
            children: vec![],
            base: 0,
            input_len: 8,
            alt_index: 0,
        };
        let root = Tree::Node(Node {
            nt: NtId(0),
            name: "S".into(),
            env: Env::new(),
            children: vec![Rc::new(Tree::Node(child))],
            base: 0,
            input_len: 12,
            alt_index: 0,
        });
        assert!(root.child_node_nt(NtId(1)).is_some());
        assert!(root.child_node_nt(NtId(2)).is_none());
        assert!(root.child_array_nt(NtId(1)).is_none());
        assert!(root.child_blackbox_nt(NtId(1)).is_none());
    }

    /// A node with no subtrees.
    fn node(nt: u32, name: &str, base: usize, children: Vec<Rc<Tree>>) -> Node {
        let env = Env::initial(2);
        Node { nt: NtId(nt), name: name.into(), env, children, base, input_len: 2, alt_index: 0 }
    }

    /// `S -> [leaf 4..5, [B] -> [B -> [leaf 5..6]], Data]`.
    fn sample() -> Tree {
        let b = Tree::Node(node(2, "B", 5, vec![leaf(5, 6)]));
        let array =
            Tree::Array(ArrayNode { nt: NtId(2), name: "B".into(), elems: vec![Rc::new(b)] });
        let data = BlackboxNode {
            nt: NtId(3),
            name: "Data".into(),
            env: Env::initial(1),
            data: b"abc"[..].into(),
            base: 6,
            input_len: 1,
        };
        let root = node(0, "S", 4, vec![leaf(4, 5), Rc::new(array), Rc::new(Tree::Blackbox(data))]);
        Tree::Node(Node { alt_index: 1, ..root })
    }

    /// Subtree `i` of `tree`, which owns it alone.
    fn subtree(tree: &mut Tree, i: usize) -> &mut Tree {
        let subtrees = match tree {
            Tree::Node(n) => &mut n.children,
            Tree::Array(a) => &mut a.elems,
            _ => panic!("no subtrees"),
        };
        Rc::get_mut(&mut subtrees[i]).expect("unshared")
    }

    fn root(tree: &mut Tree) -> &mut Node {
        match tree {
            Tree::Node(n) => n,
            _ => panic!("not a node"),
        }
    }

    /// Each field `==` compares, changed on its own, makes the trees
    /// unequal, and the difference names the node and the field.
    #[test]
    fn every_compared_field_makes_trees_unequal() {
        type Change = fn(&mut Tree);
        let changes: [(Change, &str); 10] = [
            (|t| root(t).nt = NtId(9), "S (base 4): nonterminal"),
            (|t| root(t).name = "T".into(), "S (base 4): nonterminal"),
            (|t| root(t).alt_index = 0, "S (base 4): alternative"),
            (|t| root(t).base = 7, "S (base 4): base"),
            (|t| root(t).input_len = 3, "S (base 4): input length"),
            (|t| root(t).children.truncate(2), "S (base 4): number of subtrees"),
            (
                |t| root(subtree(subtree(t, 1), 0)).env = Env::initial(3),
                "S > [B] > B (base 5): environment",
            ),
            (
                |t| *subtree(subtree(subtree(t, 1), 0), 0) = Tree::Leaf(Leaf { start: 5, end: 7 }),
                "S > [B] > B > leaf (base 5): span differs: leaf 5..6 vs leaf 5..7",
            ),
            (
                |t| match subtree(t, 2) {
                    Tree::Blackbox(b) => b.data = b"abd"[..].into(),
                    _ => unreachable!(),
                },
                "S > Data (base 6): data",
            ),
            (|t| *subtree(t, 0) = Tree::Leaf(Leaf { start: 4, end: 4 }), "S > leaf (base 4): span"),
        ];
        assert!(sample() == sample());
        for (change, message) in changes {
            let mut changed = sample();
            change(&mut changed);
            let original = sample();
            assert!(original != changed, "{message}: the trees are still equal");
            let diff = original.first_difference(&changed).expect("a difference").to_string();
            assert!(diff.starts_with(message), "{message}: {diff}");
        }
        let array = Tree::Array(ArrayNode { nt: NtId(1), name: "A".into(), elems: vec![] });
        let leaf = Tree::Leaf(Leaf { start: 0, end: 0 });
        let diff = leaf.first_difference(&array).unwrap();
        assert_eq!(
            diff.to_string(),
            "leaf (base 0): kind differs: leaf 0..0 vs array [A] (NtId(1)), 0 subtrees"
        );
    }

    /// A path through a deep list folds its runs of one nonterminal.
    #[test]
    fn a_deep_path_folds_its_runs() {
        let build = |last_end: usize| {
            let mut tree = Tree::Leaf(Leaf { start: 0, end: last_end });
            for _ in 0..100_000 {
                tree = Tree::Node(node(1, "L", 0, vec![Rc::new(tree)]));
            }
            tree
        };
        let diff = build(1).first_difference(&build(2)).expect("a difference").to_string();
        assert_eq!(diff, "L ×100000 > leaf (base 0): span differs: leaf 0..1 vs leaf 0..2");
    }
}
