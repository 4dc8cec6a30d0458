//! Bump-allocated parse trees for the bytecode VM.
//!
//! The tree-walking interpreter allocates one `Rc<Tree>` (plus a children
//! `Vec` and an attribute [`crate::env::Env`]) per node, which dominates
//! its hot loop. The VM instead appends every node to a [`TreeArena`]:
//! records are addressed by dense `u32` [`TreeId`]s, children live as
//! contiguous index ranges in one shared vector, and attribute values in
//! one shared attribute pool, so building a rule's node is three `Vec`
//! appends, building a builtin's result is one, and *sharing* a memoized
//! subtree is copying a `u32`.
//!
//! ## Node layout and the attribute pool
//!
//! A node record (`ANode`, 32 bytes) holds its nonterminal, the index of
//! the alternative that built it, its children range, its base offset, and
//! a `u32` offset into the attribute pool. From that offset the pool holds
//! the node's attribute values in its rule's slot order (see
//! `ipg_core::layout`): `EOI` (the node's input length), `start`, `end`,
//! then the rule's own attributes. A node stores values only; the names
//! and the order in which the interpreter's environment lists them come
//! from the `(nonterminal, alternative)` shape in the program's
//! `Layouts`, which every arena shares. [`NodeRef::bindings`] (and so
//! [`TreeRef::to_tree`]), [`NodeRef::attr`] and [`NodeRef::attr_by_sym`]
//! map slots back to names through it; [`NodeRef::get`] reads a
//! pre-resolved [`AttrSlot`] with one indexed load. Blackbox records
//! store their attributes the same way.
//!
//! ## Builtin records
//!
//! Builtin leaves are most of a format's tree, and a builtin's node always
//! has the same shape: the builtin layout's `EOI`, `start`, `end` and
//! `val`, and one leaf child over the bytes it read. So a builtin result
//! is one 40-byte `ABuiltin` record in a vector of its own
//! (`TreeArena::alloc_builtin`), holding the interval (absolute base,
//! length, offset in the caller's interval), the bytes consumed and the
//! value; `EOI`, `start`, `end` and the leaf's span are derived from them.
//! Two [`TreeId`] tags index the same record: one is the node, the other
//! its leaf child. The views, `TreeArena::node_attr` and
//! [`TreeRef::to_tree`] expand the record, so trees, attribute reads and
//! extractors see the node and leaf a rule's node would have, and
//! [`TreeArena::len`] counts the record as both.
//!
//! The memoizing semantics reuse a cached result at several call sites
//! (the O(n²) bound of §3.3 of the paper relies on it). Arena nodes are
//! therefore immutable once allocated: the caller-side `start`/`end`
//! re-basing of rule T-NTSucc (`TreeArena::adjust`) allocates a 16-byte
//! shift record that *shares* the original record, observably like the
//! interpreter's `Rc`-sharing `adjust_tree`. Shift records come only from
//! the results of rules with alternatives and of blackboxes, which the VM
//! may memoize. It never memoizes or shares a builtin's result, so a
//! builtin's record is born re-based: it stores its offset in the
//! caller's interval, and its `start`/`end` read in the caller's
//! coordinates.
//!
//! Read access goes through the zero-copy views [`TreeRef`], [`NodeRef`],
//! [`ArrayRef`], and [`BlackboxRef`], which mirror the accessors of
//! [`crate::tree::Node`] (`child_node_nt`, `attr`, `span`, …) so
//! extractors migrate mechanically. [`TreeRef::to_tree`] converts back to the
//! `Rc`-based [`Tree`] — the differential tests use it to require
//! node-for-node equality between the two engines.

use crate::bytecode::NO_SLOT;
use crate::check::NtId;
use crate::intern::Sym;
use crate::layout::{Binding, Layouts, END_SLOT, EOI_SLOT, START_SLOT};
use crate::tree::{ArrayNode, BlackboxNode, Leaf, Node, Tree};
use std::rc::Rc;
use std::sync::Arc;

/// Handle of a tree record in a [`TreeArena`]: the record kind in the low
/// three bits, a 29-bit index within that kind's storage above them.
/// Keeping the kind in the id lets the per-kind vectors stay densely
/// packed — a leaf costs 16 bytes instead of one full node-sized enum
/// slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(u32);

const TAG_NODE: u32 = 0;
const TAG_ARRAY: u32 = 1;
const TAG_LEAF: u32 = 2;
const TAG_BLACKBOX: u32 = 3;
/// A re-based reference to a node/blackbox (rule T-NTSucc): instead of
/// cloning the record with shifted `start`/`end`, the arena stores a
/// 16-byte `(inner id, delta)` pair and readers apply the delta lazily.
const TAG_SHIFT: u32 = 4;
/// A builtin's result ([`ABuiltin`]) viewed as its node.
const TAG_BUILTIN: u32 = 5;
/// The same record viewed as the node's one leaf child.
const TAG_BUILTIN_LEAF: u32 = 6;

impl TreeId {
    #[inline]
    fn new(tag: u32, index: usize) -> Self {
        // 2^29 records of one kind would need multi-GiB inputs under a
        // byte-granular grammar; fail loudly instead of aliasing ids.
        assert!(index < (1 << 29), "tree arena overflow: {index} records");
        TreeId((index as u32) << 3 | tag)
    }

    #[inline]
    fn tag(self) -> u32 {
        self.0 & 7
    }

    #[inline]
    fn index(self) -> usize {
        (self.0 >> 3) as usize
    }
}

impl std::fmt::Debug for TreeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.tag() {
            TAG_NODE => "node",
            TAG_ARRAY => "array",
            TAG_LEAF => "leaf",
            TAG_BLACKBOX => "blackbox",
            TAG_SHIFT => "shift",
            TAG_BUILTIN => "builtin",
            _ => "builtin leaf",
        };
        write!(f, "TreeId({kind} {})", self.index())
    }
}

/// A contiguous range of entries in the arena's shared children vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChildRange {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// Nonterminal name table shared between a program and the arenas of its
/// parses, so views can resolve names without the grammar in hand.
#[derive(Debug)]
pub(crate) struct NtTable {
    pub(crate) names: Vec<Arc<str>>,
    pub(crate) syms: Vec<Sym>,
}

/// An attribute that every node of one nonterminal stores, resolved to its
/// slot once ([`crate::interp::vm::VmParser::attr_slot`]). Reading it from
/// a node ([`NodeRef::get`]) is one indexed load: no symbol, no string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrSlot {
    pub(crate) nt: NtId,
    pub(crate) slot: u16,
}

/// Adds a shifted reference's delta to `start`/`end` (rule T-NTSucc's
/// re-basing); every other attribute is shared unchanged.
#[inline]
fn shifted(v: i64, slot: u16, delta: i64) -> i64 {
    if slot == START_SLOT || slot == END_SLOT {
        v + delta
    } else {
        v
    }
}

/// A borrowed tree record — the arena-side mirror of [`Tree`]. Records
/// live in per-kind vectors; this enum is only a dispatch view.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Entry<'a> {
    Node(&'a ANode),
    /// A builtin's node.
    Builtin(&'a ABuiltin),
    Array(&'a AArray),
    /// A terminal's leaf, or a builtin's leaf child.
    Leaf(Leaf),
    Blackbox(&'a ABlackbox),
}

/// Arena mirror of [`crate::tree::Node`]. Its input length is its `EOI`
/// attribute.
#[derive(Clone, Debug)]
pub(crate) struct ANode {
    pub(crate) nt: NtId,
    pub(crate) alt_index: u32,
    /// Offset of the node's values in the attribute pool.
    pub(crate) attrs: u32,
    pub(crate) children: ChildRange,
    pub(crate) base: usize,
}

/// The result of a builtin over `[base, base + len)`, which lies at offset
/// `at` in its caller's interval: the node of the builtin's rule and its
/// leaf over the `consumed` bytes read, as one record.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ABuiltin {
    pub(crate) nt: NtId,
    consumed: u32,
    base: usize,
    /// The node's input length: its `EOI`.
    len: usize,
    at: i64,
    val: i64,
}

impl ABuiltin {
    /// The value in `slot` of the builtin layout (`EOI`, `start`, `end`,
    /// `val`), `start`/`end` in the caller's coordinates: the builtin
    /// touched `[0, consumed)` of its interval, or nothing.
    #[inline]
    fn attr(&self, slot: u16) -> i64 {
        match slot {
            EOI_SLOT => self.len as i64,
            START_SLOT if self.consumed > 0 => self.at,
            START_SLOT => self.at + self.len as i64,
            END_SLOT => self.at + i64::from(self.consumed),
            _ => self.val,
        }
    }

    /// The leaf child: the bytes the builtin read.
    #[inline]
    fn leaf(&self) -> Leaf {
        Leaf { start: self.base, end: self.base + self.consumed as usize }
    }
}

/// Arena mirror of [`crate::tree::ArrayNode`].
#[derive(Clone, Debug)]
pub(crate) struct AArray {
    pub(crate) nt: NtId,
    pub(crate) elems: ChildRange,
}

/// Arena mirror of [`crate::tree::BlackboxNode`]. Its input length is its
/// `EOI` attribute.
#[derive(Clone, Debug)]
pub(crate) struct ABlackbox {
    pub(crate) nt: NtId,
    /// Offset of the record's values in the attribute pool.
    pub(crate) attrs: u32,
    /// The blackbox's output, as it returned it: the tree's owner can move
    /// it out ([`TreeArena::take_blackbox_data`]).
    pub(crate) data: Vec<u8>,
    pub(crate) base: usize,
}

/// Attribute-pool values reserved per reserved node, and the unit in which
/// the pool counts towards [`TreeArena::capacity`].
const ATTRS_PER_NODE: usize = 4;

/// All parse-tree records of one VM parse, stored per kind. The default
/// arena is empty, allocates nothing and belongs to no program yet.
#[derive(Debug, Default)]
pub struct TreeArena {
    nodes: Vec<ANode>,
    builtins: Vec<ABuiltin>,
    arrays: Vec<AArray>,
    leaves: Vec<Leaf>,
    blackboxes: Vec<ABlackbox>,
    /// Lazy re-basings: `(inner node/blackbox id, start/end delta)`.
    shifts: Vec<(TreeId, i64)>,
    children: Vec<TreeId>,
    /// The attribute pool: every node's and blackbox's values.
    attrs: Vec<i64>,
    /// The layouts of the program whose parse the arena last served.
    layouts: Option<Arc<Layouts>>,
}

impl TreeArena {
    /// Readies an empty (or [`TreeArena::clear`]ed) arena for a parse of
    /// the program with `layouts`: the pools keep their allocations and
    /// grow to at least the capacities pre-sized from compile-time
    /// program statistics ([`crate::bytecode::Program::size_hints`]). An
    /// arena recycled from a parse of the same program keeps its handle
    /// on the layouts.
    pub(crate) fn reset(&mut self, layouts: &Arc<Layouts>, hints: &crate::bytecode::SizeHints) {
        debug_assert!(self.is_empty(), "reset of an arena still holding records");
        if !self.layouts.as_ref().is_some_and(|own| Arc::ptr_eq(own, layouts)) {
            self.layouts = Some(Arc::clone(layouts));
        }
        self.nodes.reserve(hints.nodes);
        self.builtins.reserve(hints.builtins);
        self.leaves.reserve(hints.leaves);
        self.shifts.reserve(hints.shifts);
        self.children.reserve(hints.children);
        self.attrs.reserve(hints.nodes * ATTRS_PER_NODE);
    }

    /// Drops every record, keeping the pools' allocations and the layouts.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.builtins.clear();
        self.arrays.clear();
        self.leaves.clear();
        self.blackboxes.clear();
        self.shifts.clear();
        self.children.clear();
        self.attrs.clear();
    }

    /// The layouts of the program this arena's records belong to.
    fn layouts(&self) -> &Layouts {
        self.layouts.as_deref().expect("an arena holding records belongs to a program")
    }

    /// The largest capacity of any pool, in records (the attribute pool
    /// in runs of [`ATTRS_PER_NODE`] values).
    pub(crate) fn capacity(&self) -> usize {
        self.nodes
            .capacity()
            .max(self.builtins.capacity())
            .max(self.arrays.capacity())
            .max(self.leaves.capacity())
            .max(self.blackboxes.capacity())
            .max(self.shifts.capacity())
            .max(self.children.capacity())
            .max(self.attrs.capacity() / ATTRS_PER_NODE)
    }

    /// The value in `slot` of the record whose values start at `attrs`.
    #[inline]
    fn attr(&self, attrs: u32, slot: u16) -> i64 {
        self.attrs[attrs as usize + slot as usize]
    }

    /// Appends a record's values to the pool, returning their offset. A
    /// record holds a handful of values, so they are copied in fixed-size
    /// blocks the compiler keeps inline rather than by a `memcpy` call.
    #[inline]
    fn push_attrs(&mut self, values: &[i64]) -> u32 {
        let at = u32::try_from(self.attrs.len()).expect("attribute pool overflow");
        self.attrs.reserve(values.len());
        let mut blocks = values.chunks_exact(4);
        for block in &mut blocks {
            let block: &[i64; 4] = block.try_into().expect("a block of four");
            self.attrs.extend_from_slice(block);
        }
        for &v in blocks.remainder() {
            self.attrs.push(v);
        }
        at
    }

    /// Dispatch view of `id`. Shifted references resolve to their inner
    /// record; use [`TreeArena::resolve`] when the delta matters.
    #[inline]
    pub(crate) fn entry(&self, id: TreeId) -> Entry<'_> {
        // A shift's inner record is never itself a shift.
        let (id, _) = self.resolve(id);
        match id.tag() {
            TAG_NODE => Entry::Node(&self.nodes[id.index()]),
            TAG_BUILTIN => Entry::Builtin(&self.builtins[id.index()]),
            TAG_ARRAY => Entry::Array(&self.arrays[id.index()]),
            TAG_LEAF => Entry::Leaf(self.leaves[id.index()]),
            TAG_BUILTIN_LEAF => Entry::Leaf(self.builtins[id.index()].leaf()),
            _ => Entry::Blackbox(&self.blackboxes[id.index()]),
        }
    }

    /// Unwraps a possibly-shifted id into `(raw id, start/end delta)`.
    #[inline]
    pub(crate) fn resolve(&self, id: TreeId) -> (TreeId, i64) {
        if id.tag() == TAG_SHIFT {
            self.shifts[id.index()]
        } else {
            (id, 0)
        }
    }

    pub(crate) fn child_ids(&self, range: ChildRange) -> &[TreeId] {
        &self.children[range.start as usize..(range.start + range.len) as usize]
    }

    /// Appends a record's children. Every caller knows how many there are
    /// (an alternative's child slots, a level's fixed pair, a loop's
    /// elements), so the pool reserves once and copies them in.
    fn push_children(&mut self, ids: impl ExactSizeIterator<Item = TreeId>) -> ChildRange {
        let start = self.children.len();
        self.children.extend(ids);
        ChildRange { start: start as u32, len: (self.children.len() - start) as u32 }
    }

    pub(crate) fn alloc_leaf(&mut self, start: usize, end: usize) -> TreeId {
        let id = TreeId::new(TAG_LEAF, self.leaves.len());
        self.leaves.push(Leaf { start, end });
        id
    }

    /// Allocates a node of `nt` built by its alternative `alt_index`;
    /// `attrs` are its values in the rule's slot order.
    pub(crate) fn alloc_node(
        &mut self,
        nt: NtId,
        alt_index: u32,
        attrs: &[i64],
        children: impl IntoIterator<Item = TreeId, IntoIter: ExactSizeIterator>,
        base: usize,
    ) -> TreeId {
        let children = self.push_children(children.into_iter());
        let attrs = self.push_attrs(attrs);
        let id = TreeId::new(TAG_NODE, self.nodes.len());
        self.nodes.push(ANode { nt, alt_index, attrs, children, base });
        id
    }

    /// Allocates the result of a builtin `nt` that read `consumed` bytes of
    /// `[base, base + len)`, an interval at offset `at` in its caller's, and
    /// decoded `val`: one [`ABuiltin`] record.
    #[inline]
    pub(crate) fn alloc_builtin(
        &mut self,
        nt: NtId,
        base: usize,
        len: usize,
        consumed: usize,
        at: i64,
        val: i64,
    ) -> TreeId {
        let Ok(consumed32) = u32::try_from(consumed) else {
            // 4 GiB or more read: the general node and leaf.
            let (start, end) = if consumed > 0 { (0, consumed as i64) } else { (len as i64, 0) };
            let leaf = self.alloc_leaf(base, base + consumed);
            return self.alloc_node(nt, 0, &[len as i64, start + at, end + at, val], [leaf], base);
        };
        let id = TreeId::new(TAG_BUILTIN, self.builtins.len());
        self.builtins.push(ABuiltin { nt, consumed: consumed32, base, len, at, val });
        id
    }

    pub(crate) fn alloc_array(
        &mut self,
        nt: NtId,
        elems: impl ExactSizeIterator<Item = TreeId>,
    ) -> TreeId {
        let elems = self.push_children(elems);
        let id = TreeId::new(TAG_ARRAY, self.arrays.len());
        self.arrays.push(AArray { nt, elems });
        id
    }

    /// Allocates a blackbox record of `nt` with `width` attribute values,
    /// zeroed and then written by `fill` in the rule's slot order.
    pub(crate) fn alloc_blackbox(
        &mut self,
        nt: NtId,
        width: usize,
        fill: impl FnOnce(&mut [i64]),
        data: Vec<u8>,
        base: usize,
    ) -> TreeId {
        let start = self.attrs.len();
        let attrs = u32::try_from(start).expect("attribute pool overflow");
        self.attrs.resize(start + width, 0);
        fill(&mut self.attrs[start..]);
        let id = TreeId::new(TAG_BLACKBOX, self.blackboxes.len());
        self.blackboxes.push(ABlackbox { nt, attrs, data, base });
        id
    }

    /// Moves the output of blackbox record `id` (possibly shifted) out of
    /// the arena, leaving it empty; `None` if `id` is not a blackbox's.
    pub(crate) fn take_blackbox_data(&mut self, id: TreeId) -> Option<Vec<u8>> {
        let (id, _) = self.resolve(id);
        (id.tag() == TAG_BLACKBOX).then(|| std::mem::take(&mut self.blackboxes[id.index()].data))
    }

    /// The callee-relative `(start, end)` of a returned tree (mirror of the
    /// interpreter's `tree_start_end`). Only called on results fresh from a
    /// rule invocation, which are never shifted references.
    pub(crate) fn start_end(&self, id: TreeId) -> (i64, i64) {
        debug_assert_ne!(id.tag(), TAG_SHIFT, "start_end on an adjusted tree");
        let attrs = match id.tag() {
            TAG_NODE => self.nodes[id.index()].attrs,
            TAG_BLACKBOX => self.blackboxes[id.index()].attrs,
            TAG_BUILTIN => {
                let b = &self.builtins[id.index()];
                return (b.attr(START_SLOT) - b.at, b.attr(END_SLOT) - b.at);
            }
            _ => return (0, 0),
        };
        (self.attr(attrs, START_SLOT), self.attr(attrs, END_SLOT))
    }

    /// Rule T-NTSucc's re-basing, observably identical to the
    /// interpreter's `adjust_tree` (a copied root with `start`/`end`
    /// shifted by `l`, children shared) but stored as a lazy 16-byte
    /// shifted reference instead of a cloned record.
    pub(crate) fn adjust(&mut self, id: TreeId, l: i64) -> TreeId {
        debug_assert_ne!(id.tag(), TAG_SHIFT, "adjust of an already-adjusted tree");
        debug_assert_ne!(id.tag(), TAG_BUILTIN, "builtin results are born re-based");
        if l == 0 {
            return id;
        }
        match id.tag() {
            TAG_NODE | TAG_BLACKBOX => {
                let sid = TreeId::new(TAG_SHIFT, self.shifts.len());
                self.shifts.push((id, l));
                sid
            }
            _ => id,
        }
    }

    /// Attribute lookup on a node-like tree by its slot in `nt`'s nodes,
    /// checking the nonterminal (mirror of the interpreter's `node_attr`;
    /// arrays read the *last* element's attribute).
    #[inline]
    pub(crate) fn node_attr(&self, id: TreeId, nt: NtId, slot: u16) -> Option<i64> {
        if slot == NO_SLOT {
            return None;
        }
        let (mut id, mut delta) = self.resolve(id);
        if let Entry::Array(a) = self.entry(id) {
            if a.nt != nt {
                return None;
            }
            (id, delta) = self.resolve(*self.child_ids(a.elems).last()?);
        }
        let attrs = match self.entry(id) {
            Entry::Node(n) if n.nt == nt => n.attrs,
            Entry::Builtin(b) if b.nt == nt => return Some(b.attr(slot)),
            Entry::Blackbox(b) if b.nt == nt => b.attrs,
            _ => return None,
        };
        Some(shifted(self.attr(attrs, slot), slot, delta))
    }

    /// The value of `sym` in a record with values at `attrs` and `shape`,
    /// read through a reference shifted by `delta`.
    fn attr_by_sym(&self, shape: &[Binding], attrs: u32, delta: i64, sym: Sym) -> Option<i64> {
        let b = shape.iter().find(|b| b.sym == sym)?;
        Some(shifted(self.attr(attrs, b.slot), b.slot, delta))
    }

    /// A record's bindings in the order the interpreter's environment
    /// lists them (its shape's), `start`/`end` shifted by `delta`.
    fn bindings<'s>(
        &'s self,
        shape: &'s [Binding],
        attrs: u32,
        delta: i64,
    ) -> impl Iterator<Item = (Sym, i64)> + 's {
        shape.iter().map(move |b| (b.sym, shifted(self.attr(attrs, b.slot), b.slot, delta)))
    }

    /// The name of nonterminal `nt`.
    pub fn nt_name(&self, nt: NtId) -> &str {
        &self.layouts().table.names[nt.0 as usize]
    }

    /// Tree `id` as a nonterminal node, if it is one.
    #[inline]
    fn node_ref(&self, id: TreeId) -> Option<NodeRef<'_>> {
        let (id, delta) = self.resolve(id);
        matches!(id.tag(), TAG_NODE | TAG_BUILTIN).then_some(NodeRef { arena: self, id, delta })
    }

    /// A view of tree `id`.
    pub fn view(&self, id: TreeId) -> TreeRef<'_> {
        TreeRef { arena: self, id }
    }

    /// Number of allocated tree records (nodes created for memo-shared
    /// subtrees and re-based copies included; a builtin's result counts as
    /// its node and its leaf).
    pub fn len(&self) -> usize {
        self.nodes.len()
            + 2 * self.builtins.len()
            + self.arrays.len()
            + self.leaves.len()
            + self.blackboxes.len()
            + self.shifts.len()
    }

    /// Whether nothing has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A borrowed view of any tree record — the arena-side analogue of
/// [`Tree`].
#[derive(Clone, Copy)]
pub struct TreeRef<'a> {
    arena: &'a TreeArena,
    id: TreeId,
}

/// A borrowed nonterminal node — the arena-side analogue of [`Node`].
/// Carries the `start`/`end` delta of a shifted reference so attribute
/// reads match the interpreter's adjusted copies.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    arena: &'a TreeArena,
    /// The node's record: a rule's node or a builtin's, never a shift.
    id: TreeId,
    delta: i64,
}

/// The record behind a [`NodeRef`].
enum NodeRec<'a> {
    Rule(&'a ANode),
    Builtin(&'a ABuiltin),
}

/// A borrowed array — the arena-side analogue of
/// [`crate::tree::ArrayNode`].
#[derive(Clone, Copy)]
pub struct ArrayRef<'a> {
    arena: &'a TreeArena,
    arr: &'a AArray,
}

/// A borrowed blackbox result — the arena-side analogue of
/// [`BlackboxNode`].
#[derive(Clone, Copy)]
pub struct BlackboxRef<'a> {
    arena: &'a TreeArena,
    bb: &'a ABlackbox,
    delta: i64,
}

impl<'a> TreeRef<'a> {
    /// This tree's arena id.
    pub fn id(&self) -> TreeId {
        self.id
    }

    /// This tree as a nonterminal node, if it is one.
    pub fn as_node(&self) -> Option<NodeRef<'a>> {
        self.arena.node_ref(self.id)
    }

    /// This tree as an array, if it is one.
    pub fn as_array(&self) -> Option<ArrayRef<'a>> {
        match self.arena.entry(self.id) {
            Entry::Array(arr) => Some(ArrayRef { arena: self.arena, arr }),
            _ => None,
        }
    }

    /// This tree as a terminal leaf, if it is one.
    pub fn as_leaf(&self) -> Option<Leaf> {
        match self.arena.entry(self.id) {
            Entry::Leaf(l) => Some(l),
            _ => None,
        }
    }

    /// This tree as a blackbox result, if it is one.
    pub fn as_blackbox(&self) -> Option<BlackboxRef<'a>> {
        let (id, delta) = self.arena.resolve(self.id);
        match self.arena.entry(id) {
            Entry::Blackbox(bb) => Some(BlackboxRef { arena: self.arena, bb, delta }),
            _ => None,
        }
    }

    /// The first direct child node parsed with nonterminal `nt` (resolve
    /// a name once via [`crate::check::Grammar::nt_id`]).
    pub fn child_node_nt(&self, nt: NtId) -> Option<NodeRef<'a>> {
        self.as_node()?.child_node_nt(nt)
    }

    /// The first direct child array of `nt` elements.
    pub fn child_array_nt(&self, nt: NtId) -> Option<ArrayRef<'a>> {
        self.as_node()?.child_array_nt(nt)
    }

    /// The first direct blackbox child parsed with nonterminal `nt`.
    pub fn child_blackbox_nt(&self, nt: NtId) -> Option<BlackboxRef<'a>> {
        self.as_node()?.child_blackbox_nt(nt)
    }

    /// Total number of tree records reachable from this tree (counts
    /// shared subtrees once per reference, like [`Tree::size`]).
    pub fn size(&self) -> usize {
        match self.arena.entry(self.id) {
            Entry::Node(n) => {
                1 + self
                    .arena
                    .child_ids(n.children)
                    .iter()
                    .map(|c| self.arena.view(*c).size())
                    .sum::<usize>()
            }
            Entry::Array(a) => {
                1 + self
                    .arena
                    .child_ids(a.elems)
                    .iter()
                    .map(|c| self.arena.view(*c).size())
                    .sum::<usize>()
            }
            Entry::Builtin(_) => 2,
            Entry::Leaf(_) | Entry::Blackbox(_) => 1,
        }
    }

    /// Deep conversion to the `Rc`-based [`Tree`] (shared subtrees are
    /// duplicated by value). The differential tests compare the result
    /// against the reference interpreter's output with `==`.
    pub fn to_tree(&self) -> Rc<Tree> {
        let layouts = self.arena.layouts();
        let table = &layouts.table;
        let (id, delta) = self.arena.resolve(self.id);
        match self.arena.entry(id) {
            Entry::Leaf(l) => Rc::new(Tree::Leaf(l)),
            Entry::Builtin(b) => Rc::new(Tree::Node(Node {
                nt: b.nt,
                name: table.names[b.nt.0 as usize].clone(),
                name_sym: table.syms[b.nt.0 as usize],
                env: NodeRef { arena: self.arena, id, delta }.bindings().collect(),
                children: vec![Rc::new(Tree::Leaf(b.leaf()))],
                base: b.base,
                input_len: b.len,
                alt_index: 0,
            })),
            Entry::Node(n) => {
                let children = self
                    .arena
                    .child_ids(n.children)
                    .iter()
                    .map(|c| self.arena.view(*c).to_tree())
                    .collect();
                Rc::new(Tree::Node(Node {
                    nt: n.nt,
                    name: table.names[n.nt.0 as usize].clone(),
                    name_sym: table.syms[n.nt.0 as usize],
                    env: NodeRef { arena: self.arena, id, delta }.bindings().collect(),
                    children,
                    base: n.base,
                    input_len: self.arena.attr(n.attrs, EOI_SLOT) as usize,
                    alt_index: n.alt_index as usize,
                }))
            }
            Entry::Array(a) => {
                let elems = self
                    .arena
                    .child_ids(a.elems)
                    .iter()
                    .map(|c| self.arena.view(*c).to_tree())
                    .collect();
                Rc::new(Tree::Array(ArrayNode {
                    nt: a.nt,
                    name: table.names[a.nt.0 as usize].clone(),
                    name_sym: table.syms[a.nt.0 as usize],
                    elems,
                }))
            }
            Entry::Blackbox(b) => Rc::new(Tree::Blackbox(BlackboxNode {
                nt: b.nt,
                name: table.names[b.nt.0 as usize].clone(),
                name_sym: table.syms[b.nt.0 as usize],
                env: self.arena.bindings(layouts.node_shape(b.nt, 0), b.attrs, delta).collect(),
                data: b.data.as_slice().into(),
                base: b.base,
                input_len: self.arena.attr(b.attrs, EOI_SLOT) as usize,
            })),
        }
    }
}

impl<'a> NodeRef<'a> {
    #[inline]
    fn rec(&self) -> NodeRec<'a> {
        let arena = self.arena;
        match self.id.tag() {
            TAG_NODE => NodeRec::Rule(&arena.nodes[self.id.index()]),
            _ => NodeRec::Builtin(&arena.builtins[self.id.index()]),
        }
    }

    /// The nonterminal this node was parsed with.
    #[inline]
    pub fn nt(&self) -> NtId {
        match self.rec() {
            NodeRec::Rule(n) => n.nt,
            NodeRec::Builtin(b) => b.nt,
        }
    }

    /// The nonterminal's name.
    pub fn name(&self) -> &'a str {
        self.arena.nt_name(self.nt())
    }

    /// The value in `slot` of the node's rule, `start`/`end` shifted by
    /// the reference's delta.
    #[inline]
    fn value(&self, slot: u16) -> i64 {
        let v = match self.rec() {
            NodeRec::Rule(n) => self.arena.attr(n.attrs, slot),
            NodeRec::Builtin(b) => b.attr(slot),
        };
        shifted(v, slot, self.delta)
    }

    /// Looks up a user attribute by name (requires the grammar for symbol
    /// resolution), mirroring [`Node::attr`].
    pub fn attr(&self, grammar: &crate::check::Grammar, name: &str) -> Option<i64> {
        let sym = grammar.attr_sym(name)?;
        self.attr_by_sym(sym)
    }

    /// Looks up an attribute by pre-resolved symbol (a search of the
    /// node's shape; [`NodeRef::get`] reads a resolved slot directly).
    pub fn attr_by_sym(&self, sym: Sym) -> Option<i64> {
        let shape = self.arena.layouts().node_shape(self.nt(), self.alt_index() as u32);
        shape.iter().find(|b| b.sym == sym).map(|b| self.value(b.slot))
    }

    /// Every binding of the node, `EOI`, `start` and `end` included, in
    /// the order the interpreter's environment lists them (the node's
    /// shape), `start`/`end` shifted by the reference's delta. This is the
    /// environment [`TreeRef::to_tree`] builds.
    pub fn bindings(&self) -> impl Iterator<Item = (Sym, i64)> + use<'a> {
        let node = *self;
        let shape = self.arena.layouts().node_shape(self.nt(), self.alt_index() as u32);
        shape.iter().map(move |b| (b.sym, node.value(b.slot)))
    }

    /// Reads a pre-resolved attribute; `None` if this node is not of the
    /// slot's nonterminal.
    #[inline]
    pub fn get(&self, attr: AttrSlot) -> Option<i64> {
        (attr.nt == self.nt()).then(|| self.value(attr.slot))
    }

    /// The node's `start` special attribute, as in [`Node::touched_start`].
    pub fn touched_start(&self) -> i64 {
        self.value(START_SLOT)
    }

    /// The node's `end` special attribute.
    pub fn touched_end(&self) -> i64 {
        self.value(END_SLOT)
    }

    /// The absolute input span `[base, base + input_len)` this node was
    /// asked to describe.
    #[inline]
    pub fn span(&self) -> (usize, usize) {
        (self.base(), self.base() + self.input_len())
    }

    /// Absolute offset of this node's local input slice.
    #[inline]
    pub fn base(&self) -> usize {
        match self.rec() {
            NodeRec::Rule(n) => n.base,
            NodeRec::Builtin(b) => b.base,
        }
    }

    /// Length of this node's local input slice (`EOI`).
    #[inline]
    pub fn input_len(&self) -> usize {
        self.value(EOI_SLOT) as usize
    }

    /// Index of the alternative that succeeded (0-based).
    pub fn alt_index(&self) -> usize {
        match self.rec() {
            NodeRec::Rule(n) => n.alt_index as usize,
            NodeRec::Builtin(_) => 0,
        }
    }

    /// Children in written term order.
    pub fn children(&self) -> impl Iterator<Item = TreeRef<'a>> + use<'a> {
        let arena = self.arena;
        let (ids, leaf) = match self.rec() {
            NodeRec::Rule(n) => (arena.child_ids(n.children), None),
            NodeRec::Builtin(_) => (&[][..], Some(TreeId::new(TAG_BUILTIN_LEAF, self.id.index()))),
        };
        ids.iter().copied().chain(leaf).map(move |id| arena.view(id))
    }

    /// The child at `index` in written term order (a builtin's one child,
    /// at 0, is its leaf).
    #[inline]
    pub fn child(&self, index: usize) -> Option<TreeRef<'a>> {
        let arena = self.arena;
        match self.rec() {
            NodeRec::Rule(n) => arena.child_ids(n.children).get(index).map(|&id| arena.view(id)),
            NodeRec::Builtin(_) => {
                (index == 0).then(|| arena.view(TreeId::new(TAG_BUILTIN_LEAF, self.id.index())))
            }
        }
    }

    /// The child at `index` if it is a node parsed with nonterminal `nt`:
    /// the read of a child whose position the rule fixes (see
    /// [`crate::bytecode::Program::child_index`]), where
    /// [`NodeRef::child_node_nt`] searches.
    #[inline]
    pub fn child_at(&self, index: usize, nt: NtId) -> Option<NodeRef<'a>> {
        let NodeRec::Rule(n) = self.rec() else { return None };
        let &id = self.arena.child_ids(n.children).get(index)?;
        self.arena.node_ref(id).filter(|c| c.nt() == nt)
    }

    /// The first direct child node parsed with nonterminal `nt` (the
    /// pre-resolved fast path; see [`crate::check::Grammar::nt_id`]).
    pub fn child_node_nt(&self, nt: NtId) -> Option<NodeRef<'a>> {
        // A builtin's one child is its leaf.
        let NodeRec::Rule(n) = self.rec() else { return None };
        let arena = self.arena;
        arena
            .child_ids(n.children)
            .iter()
            .find_map(|&id| arena.node_ref(id).filter(|c| c.nt() == nt))
    }

    /// The first direct child array of `nt` elements.
    pub fn child_array_nt(&self, nt: NtId) -> Option<ArrayRef<'a>> {
        self.children().find_map(|c| c.as_array().filter(|a| a.arr.nt == nt))
    }

    /// The first direct blackbox child parsed with nonterminal `nt`.
    pub fn child_blackbox_nt(&self, nt: NtId) -> Option<BlackboxRef<'a>> {
        self.children().find_map(|c| c.as_blackbox().filter(|b| b.bb.nt == nt))
    }
}

impl<'a> ArrayRef<'a> {
    /// The element nonterminal.
    pub fn nt(&self) -> NtId {
        self.arr.nt
    }

    /// The element nonterminal's name.
    pub fn name(&self) -> &'a str {
        self.arena.nt_name(self.arr.nt)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.arr.elems.len as usize
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.arr.elems.len == 0
    }

    /// Element `i` as a node.
    pub fn node(&self, i: usize) -> Option<NodeRef<'a>> {
        let id = *self.arena.child_ids(self.arr.elems).get(i)?;
        self.arena.view(id).as_node()
    }

    /// Iterates over elements.
    pub fn elems(&self) -> impl Iterator<Item = TreeRef<'a>> + use<'a> {
        let arena = self.arena;
        arena.child_ids(self.arr.elems).iter().map(move |id| arena.view(*id))
    }

    /// Iterates over elements as nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'a>> + use<'a> {
        self.elems().filter_map(|t| t.as_node())
    }
}

impl<'a> BlackboxRef<'a> {
    /// The nonterminal whose rule is the blackbox.
    pub fn nt(&self) -> NtId {
        self.bb.nt
    }

    /// Its name.
    pub fn name(&self) -> &'a str {
        self.arena.nt_name(self.bb.nt)
    }

    /// Decoded output (e.g. decompressed bytes).
    pub fn data(&self) -> &'a [u8] {
        &self.bb.data
    }

    /// Looks up a declared attribute by name.
    pub fn attr(&self, grammar: &crate::check::Grammar, name: &str) -> Option<i64> {
        let sym = grammar.attr_sym(name)?;
        let shape = self.arena.layouts().node_shape(self.bb.nt, 0);
        self.arena.attr_by_sym(shape, self.bb.attrs, self.delta, sym)
    }

    /// The absolute input span the blackbox was confined to.
    pub fn span(&self) -> (usize, usize) {
        let len = self.arena.attr(self.bb.attrs, EOI_SLOT) as usize;
        (self.bb.base, self.bb.base + len)
    }
}

#[cfg(test)]
mod tests {
    use super::{ABuiltin, ANode};

    #[test]
    fn node_records_stay_small() {
        // Every parsed nonterminal costs one record; attribute values live
        // in the shared pool, not in the record.
        assert!(std::mem::size_of::<ANode>() <= 48, "{} bytes", std::mem::size_of::<ANode>());
        // A builtin's node, its leaf and its four values in one record.
        let builtin = std::mem::size_of::<ABuiltin>();
        assert!(builtin <= 40, "{builtin} bytes");
    }
}
