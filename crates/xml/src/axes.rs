//! XPath axes: the binary relations `χ ⊆ dom × dom` of Definition 1 and
//! their set functions.
//!
//! Three entry points:
//!
//! * [`axis_image`] — `χ(X) = {y | ∃x ∈ X : x χ y}`, in `O(|D|)`;
//! * [`axis_preimage`] — `χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅}`, in `O(|D|)`;
//! * [`Document::axis_nodes`] — the nodes reachable from a *single* node in
//!   axis order `<doc,χ` (forward document order for forward axes, reverse
//!   for `ancestor(-or-self)`, `preceding(-sibling)` and `parent`), which is
//!   what positional predicates (`position()`, `last()`) are defined over.
//!
//! The `O(|D|)` bounds (shown in [11] and relied upon by every theorem in
//! the paper) are achieved with single sweeps over the pre-order arena:
//! e.g. `descendant(X)` propagates an "ancestor in X" flag down the parent
//! pointers, and `following(X)` is `{y | pre(y) ≥ min_{x∈X} subtree_end(x)}`.
//!
//! Two layers of machinery keep the constant factors down (see DESIGN.md):
//!
//! * **Label postings** ([`Document::element_postings`]): name tests route
//!   through per-label sorted node lists instead of sweeping `dom`, making
//!   the common `descendant::a` / `child::a` / `attribute::a` steps
//!   sublinear in practice ([`name_image_fast`]).
//! * **[`Scratch`]**: every kernel threads reusable mark/flag bitmaps and
//!   candidate buffers, so steady-state evaluation performs no per-call
//!   `O(|D|)` allocations.  The `*_into` variants also reuse the output
//!   set's allocation.
//!
//! The paper's formal model has no attribute nodes; we support them as an
//! extension.  Per the XPath 1.0 data model, attribute nodes are *excluded*
//! from the results of all tree axes and reachable only via `attribute`.
//! The `id` pseudo-axis of Section 4 (`id(id(π))` rewritten to `π/id/id`)
//! is also implemented here so location-path machinery can treat it
//! uniformly.

use crate::document::{Document, NONE};
use crate::name::Name;
use crate::node::{NodeId, NodeKind};
use crate::nodeset::{DenseSet, NodeSet};
use crate::par::{chunk_bounds, note_bypass, ParConfig, WorkerPool};
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// The XPath axes of the paper (Section 2.1) plus the `attribute` extension
/// and the `id` pseudo-axis of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    SelfAxis,
    Child,
    Parent,
    Descendant,
    Ancestor,
    DescendantOrSelf,
    AncestorOrSelf,
    Following,
    Preceding,
    FollowingSibling,
    PrecedingSibling,
    /// Extension: the XPath 1.0 `attribute` axis (outside the paper's
    /// formal fragments).
    Attribute,
    /// The id-"axis" of Section 4: `x χ_id y` iff
    /// `y ∈ deref_ids(strval(x))`.
    Id,
}

impl Axis {
    /// All axes, in a stable order (useful for exhaustive tests).
    pub const ALL: [Axis; 13] = [
        Axis::SelfAxis,
        Axis::Child,
        Axis::Parent,
        Axis::Descendant,
        Axis::Ancestor,
        Axis::DescendantOrSelf,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Attribute,
        Axis::Id,
    ];

    /// Whether `<doc,χ` is *reverse* document order for this axis
    /// (Section 2.1: ancestor, ancestor-or-self, parent, preceding,
    /// preceding-sibling).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
        )
    }

    /// The axis whose relation is the inverse of this one
    /// (`x χ y ⇔ y χ⁻¹ x`), where one exists as a plain axis.
    pub fn inverse(self) -> Option<Axis> {
        Some(match self {
            Axis::SelfAxis => Axis::SelfAxis,
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::Ancestor => Axis::Descendant,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::Following => Axis::Preceding,
            Axis::Preceding => Axis::Following,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            Axis::Attribute | Axis::Id => return None,
        })
    }

    /// The unabbreviated XPath spelling of the axis.
    pub fn as_str(self) -> &'static str {
        match self {
            Axis::SelfAxis => "self",
            Axis::Child => "child",
            Axis::Parent => "parent",
            Axis::Descendant => "descendant",
            Axis::Ancestor => "ancestor",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
            Axis::Id => "id",
        }
    }

    /// Parses an axis name.
    pub fn from_str_opt(s: &str) -> Option<Axis> {
        Some(match s {
            "self" => Axis::SelfAxis,
            "child" => Axis::Child,
            "parent" => Axis::Parent,
            "descendant" => Axis::Descendant,
            "ancestor" => Axis::Ancestor,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            "id" => Axis::Id,
            _ => return None,
        })
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A node test `t`: the paper's `T : (Σ ∪ {*}) → 2^dom` extended with the
/// XPath 1.0 kind tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `*` — any node of the axis's *principal type* (element for every
    /// tree axis, attribute for the attribute axis).
    Wildcard,
    /// A name test — principal-type node with this label.
    Name(Box<str>),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` / `processing-instruction('target')`
    Pi(Option<Box<str>>),
    /// `node()` — any node.
    AnyNode,
}

impl NodeTest {
    /// Convenience constructor for a name test.
    pub fn name(s: &str) -> NodeTest {
        NodeTest::Name(s.into())
    }

    /// Resolves the test against a document, turning string comparisons
    /// into integer comparisons for the per-node hot path.
    pub fn resolve(&self, doc: &Document) -> ResolvedTest {
        match self {
            NodeTest::Wildcard => ResolvedTest::Wildcard,
            NodeTest::Name(s) => match doc.find_name(s) {
                Some(n) => ResolvedTest::Name(n),
                None => ResolvedTest::NeverMatches,
            },
            NodeTest::Text => ResolvedTest::Text,
            NodeTest::Comment => ResolvedTest::Comment,
            NodeTest::Pi(None) => ResolvedTest::PiAny,
            NodeTest::Pi(Some(t)) => match doc.find_name(t) {
                Some(n) => ResolvedTest::Pi(n),
                None => ResolvedTest::NeverMatches,
            },
            NodeTest::AnyNode => ResolvedTest::AnyNode,
        }
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Wildcard => f.write_str("*"),
            NodeTest::Name(s) => f.write_str(s),
            NodeTest::Text => f.write_str("text()"),
            NodeTest::Comment => f.write_str("comment()"),
            NodeTest::Pi(None) => f.write_str("processing-instruction()"),
            NodeTest::Pi(Some(t)) => write!(f, "processing-instruction('{t}')"),
            NodeTest::AnyNode => f.write_str("node()"),
        }
    }
}

/// A [`NodeTest`] resolved against a specific document (name lookups done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedTest {
    Wildcard,
    Name(Name),
    Text,
    Comment,
    PiAny,
    Pi(Name),
    AnyNode,
    /// A name test whose name does not occur in the document at all.
    NeverMatches,
}

impl ResolvedTest {
    /// Whether node `n` passes this test when reached via `axis`.
    #[inline]
    pub fn matches(self, doc: &Document, axis: Axis, n: NodeId) -> bool {
        let kind = doc.kind(n);
        match self {
            ResolvedTest::AnyNode => true,
            ResolvedTest::NeverMatches => false,
            ResolvedTest::Wildcard => match axis {
                Axis::Attribute => kind.is_attribute(),
                _ => kind.is_element(),
            },
            ResolvedTest::Name(nm) => match axis {
                Axis::Attribute => matches!(kind, NodeKind::Attribute(k) if k == nm),
                _ => matches!(kind, NodeKind::Element(k) if k == nm),
            },
            ResolvedTest::Text => kind.is_text(),
            ResolvedTest::Comment => kind == NodeKind::Comment,
            ResolvedTest::PiAny => matches!(kind, NodeKind::Pi(_)),
            ResolvedTest::Pi(nm) => matches!(kind, NodeKind::Pi(k) if k == nm),
        }
    }
}

/// Reusable working memory for the axis kernels.
///
/// The set-at-a-time sweeps need `O(|D|)` mark/flag bitmaps and assorted
/// candidate buffers; allocating them per call dominated evaluation time
/// on large documents.  A `Scratch` owns them all — callers (the engine's
/// evaluators, chiefly) create one and thread it through every kernel
/// call, so steady-state evaluation performs no per-call `O(|D|)`
/// allocations.  Buffers grow monotonically to the largest document seen.
#[derive(Debug, Default)]
pub struct Scratch {
    marked: DenseSet,
    flag: DenseSet,
    /// Internal candidate buffer used by the image kernels (`parent` /
    /// `ancestor` fast paths, the `id` axis).
    tmp: Vec<NodeId>,
    /// Buffer the preimage kernels use for attribute-filtered copies of
    /// `Y` (must be distinct from `tmp`, which the inner image call uses).
    tmp2: Vec<NodeId>,
    /// Merged subtree intervals for the descendant postings walk.
    ranges: Vec<(u32, u32)>,
    /// Pooled per-node byte columns, all-zero while pooled (see
    /// [`Scratch::take_column`]).
    columns: Vec<Vec<u8>>,
}

impl Scratch {
    /// A scratch with empty buffers; they size themselves on first use.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// A dense per-node byte column of at least `n` entries, all zero —
    /// evaluator-side per-node state (memo flags) that should not cost an
    /// `O(|D|)` allocation per evaluation.  Pooled columns are kept
    /// all-zero, so taking one writes only the entries a longer document
    /// adds.
    pub fn take_column(&mut self, n: usize) -> Vec<u8> {
        let mut col = self.columns.pop().unwrap_or_default();
        if col.len() < n {
            col.resize(n, 0);
        }
        col
    }

    /// Returns a column to the pool.  The caller must have reset every
    /// entry it set back to zero.
    pub fn put_column(&mut self, col: Vec<u8>) {
        debug_assert!(col.iter().all(|&b| b == 0), "pooled column not reset");
        self.columns.push(col);
    }

    fn grow(&mut self, n: usize) {
        self.marked.ensure_capacity(n);
        self.flag.ensure_capacity(n);
    }
}

#[inline]
fn mark(set: &mut DenseSet, x: &[NodeId]) {
    set.clear();
    for &v in x {
        set.insert(v);
    }
}

/// `χ(X)` filtered by a node test, in `O(|D|)` worst case (Definition 1;
/// the filter does not change the bound) and sublinear for name tests via
/// the label postings index.  The result is in document order.
///
/// Convenience wrapper over [`axis_image_into`] that resolves the test and
/// allocates fresh scratch; hot paths should resolve once and reuse a
/// [`Scratch`] instead.
pub fn axis_image(doc: &Document, axis: Axis, x: &NodeSet, test: &NodeTest) -> NodeSet {
    let mut scratch = Scratch::new();
    axis_image_resolved(doc, axis, x, test.resolve(doc), &mut scratch)
}

/// [`axis_image`] with a pre-resolved test and caller-provided scratch,
/// returning an owned set.
pub fn axis_image_resolved(
    doc: &Document,
    axis: Axis,
    x: &NodeSet,
    t: ResolvedTest,
    scratch: &mut Scratch,
) -> NodeSet {
    let mut out = NodeSet::new();
    axis_image_into(doc, axis, x, t, scratch, &mut out);
    out
}

/// The allocation-free core of [`axis_image`]: clears `out` and fills it
/// with `χ(X)` filtered by `t`, in document order.
pub fn axis_image_into(
    doc: &Document,
    axis: Axis,
    x: &NodeSet,
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
) {
    image_into(doc, axis, x.as_slice(), t, scratch, out);
}

// The sweeps below are index-driven by design: the loop index *is* the
// pre-order NodeId, and each iteration reads several parallel columns.
#[allow(clippy::needless_range_loop)]
fn image_into(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
) {
    out.clear();
    if x.is_empty() || t == ResolvedTest::NeverMatches {
        return;
    }
    // Singleton origin: the ordered single-node walk is local (subtree /
    // chain / sibling cost) where the set sweeps are O(|D|) — and the
    // per-candidate predicate paths the evaluators memoize are exactly
    // this shape.  Excluded: the id axis, whose single-node walk
    // tokenizes the *concatenated* string value while the set kernel
    // tokenizes per text node (see DESIGN.md); and name-tested
    // `following`/`preceding`, where the sliced postings kernel is
    // sublinear while the single-node walk scans the whole tail.
    if let [single] = x {
        let sliced_name_test =
            matches!(axis, Axis::Following | Axis::Preceding) && matches!(t, ResolvedTest::Name(_));
        if axis != Axis::Id && !sliced_name_test {
            let tmp = &mut scratch.tmp;
            doc.axis_nodes_into(axis, *single, t, tmp);
            if axis.is_reverse() {
                tmp.reverse();
            }
            out.vec_mut().extend_from_slice(tmp);
            return;
        }
    }
    let n = doc.len();
    scratch.grow(n);
    if let ResolvedTest::Name(nm) = t {
        if name_image_fast(doc, axis, x, nm, scratch, out) {
            debug_assert!(out.as_slice().windows(2).all(|w| w[0] < w[1]));
            return;
        }
    }
    let keep = |node: NodeId| t.matches(doc, axis, node);
    let Scratch {
        marked, flag, tmp, ..
    } = scratch;
    match axis {
        Axis::SelfAxis => out.vec_mut().extend(x.iter().copied().filter(|&m| keep(m))),
        Axis::Child => {
            mark(marked, x);
            let parent = doc.parent_raw();
            let o = out.vec_mut();
            for i in 0..n {
                let y = NodeId::from_index(i);
                let p = parent[i];
                if p != NONE && marked.contains(NodeId(p)) && !doc.kind(y).is_attribute() && keep(y)
                {
                    o.push(y);
                }
            }
        }
        Axis::Parent => {
            flag.clear();
            let parent = doc.parent_raw();
            for &m in x {
                let p = parent[m.index()];
                if p != NONE {
                    flag.insert(NodeId(p));
                }
            }
            let o = out.vec_mut();
            for i in 0..n {
                let y = NodeId::from_index(i);
                if flag.contains(y) && keep(y) {
                    o.push(y);
                }
            }
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            mark(marked, x);
            // flag: some proper ancestor is in X.  Parents precede children
            // in pre-order, so a single forward sweep suffices.
            flag.clear();
            let parent = doc.parent_raw();
            for i in 1..n {
                let p = NodeId(parent[i]);
                if marked.contains(p) || flag.contains(p) {
                    flag.insert(NodeId::from_index(i));
                }
            }
            let or_self = axis == Axis::DescendantOrSelf;
            let o = out.vec_mut();
            for i in 0..n {
                let y = NodeId::from_index(i);
                // Attributes never appear as *descendants*, but an
                // attribute member of X is its own descendant-or-self.
                if ((flag.contains(y) && !doc.kind(y).is_attribute())
                    || (or_self && marked.contains(y)))
                    && keep(y)
                {
                    o.push(y);
                }
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            mark(marked, x);
            // flag: some proper descendant is in X.  Children follow
            // parents in pre-order, so a single backward sweep suffices.
            flag.clear();
            let parent = doc.parent_raw();
            for i in (1..n).rev() {
                let y = NodeId::from_index(i);
                if marked.contains(y) || flag.contains(y) {
                    flag.insert(NodeId(parent[i]));
                }
            }
            let or_self = axis == Axis::AncestorOrSelf;
            let o = out.vec_mut();
            for i in 0..n {
                let y = NodeId::from_index(i);
                if (flag.contains(y) || (or_self && marked.contains(y))) && keep(y) {
                    o.push(y);
                }
            }
        }
        Axis::Following => {
            // y ∈ following(X)  ⇔  pre(y) ≥ min_{x∈X} subtree_end(x).
            let m = x
                .iter()
                .map(|&v| doc.subtree_end(v))
                .min()
                .expect("x non-empty");
            out.vec_mut().extend(
                (m..n)
                    .map(NodeId::from_index)
                    .filter(|&y| !doc.kind(y).is_attribute() && keep(y)),
            );
        }
        Axis::Preceding => {
            // y ∈ preceding(X)  ⇔  subtree_end(y) ≤ max_{x∈X} pre(x).
            let m = x.iter().map(|v| v.index()).max().expect("x non-empty");
            out.vec_mut().extend(
                (0..n)
                    .map(NodeId::from_index)
                    .filter(|&y| doc.subtree_end(y) <= m && !doc.kind(y).is_attribute() && keep(y)),
            );
        }
        Axis::FollowingSibling => {
            mark(marked, x);
            // flag[p]: a marked child of p has already occurred in the
            // pre-order sweep (siblings occur in document order).
            flag.clear();
            let parent = doc.parent_raw();
            let o = out.vec_mut();
            for i in 1..n {
                let y = NodeId::from_index(i);
                if doc.kind(y).is_attribute() {
                    continue;
                }
                let p = NodeId(parent[i]);
                if flag.contains(p) && keep(y) {
                    o.push(y);
                }
                if marked.contains(y) {
                    flag.insert(p);
                }
            }
        }
        Axis::PrecedingSibling => {
            mark(marked, x);
            flag.clear();
            let parent = doc.parent_raw();
            let o = out.vec_mut();
            for i in (1..n).rev() {
                let y = NodeId::from_index(i);
                if doc.kind(y).is_attribute() {
                    continue;
                }
                let p = NodeId(parent[i]);
                if flag.contains(p) && keep(y) {
                    o.push(y);
                }
                if marked.contains(y) {
                    flag.insert(p);
                }
            }
            o.reverse();
        }
        Axis::Attribute => {
            mark(marked, x);
            let parent = doc.parent_raw();
            let o = out.vec_mut();
            for i in 0..n {
                let y = NodeId::from_index(i);
                let p = parent[i];
                if doc.kind(y).is_attribute() && p != NONE && marked.contains(NodeId(p)) && keep(y)
                {
                    o.push(y);
                }
            }
        }
        Axis::Id => {
            // Tokens of text content reachable from X (descendant-or-self
            // for element/root members; own content for the rest),
            // dereferenced through the id index.  O(|D| + text).
            mark(marked, x);
            flag.clear(); // flag: under an element/root member of X
            let parent = doc.parent_raw();
            for i in 0..n {
                let p = parent[i];
                let from_parent = p != NONE && {
                    let pid = NodeId(p);
                    (flag.contains(pid) || marked.contains(pid))
                        && matches!(doc.kind(pid), NodeKind::Root | NodeKind::Element(_))
                };
                if from_parent {
                    flag.insert(NodeId::from_index(i));
                }
            }
            tmp.clear();
            for i in 0..n {
                let y = NodeId::from_index(i);
                let content_counts = match doc.kind(y) {
                    NodeKind::Text => flag.contains(y) || marked.contains(y),
                    NodeKind::Attribute(_) | NodeKind::Comment | NodeKind::Pi(_) => {
                        marked.contains(y)
                    }
                    _ => false,
                };
                if content_counts {
                    tmp.extend(doc.deref_ids(doc.content(y)).iter());
                }
            }
            tmp.retain(|&m| keep(m));
            tmp.sort_unstable();
            tmp.dedup();
            out.vec_mut().extend_from_slice(tmp);
        }
    }
}

/// Postings-backed name-test kernels: `descendant::a` merges the `a`
/// postings against the subtree intervals of `X`, `child::a` /
/// `attribute::a` parent-check the postings, `following`/`preceding` slice
/// them, and `parent`/`ancestor` walk chains with a visited set — all
/// sublinear in `|D|` when the label is rare.  Returns `false` for the
/// axes that fall through to the generic sweeps.
fn name_image_fast(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    nm: Name,
    scratch: &mut Scratch,
    out: &mut NodeSet,
) -> bool {
    let Scratch {
        marked,
        flag,
        tmp,
        ranges,
        ..
    } = scratch;
    match axis {
        Axis::Child => {
            mark(marked, x);
            let parent = doc.parent_raw();
            let o = out.vec_mut();
            for &p in doc.element_postings(nm) {
                let par = parent[p.index()];
                if par != NONE && marked.contains(NodeId(par)) {
                    o.push(p);
                }
            }
            true
        }
        Axis::Attribute => {
            mark(marked, x);
            let parent = doc.parent_raw();
            let o = out.vec_mut();
            for &a in doc.attribute_postings(nm) {
                let par = parent[a.index()];
                if par != NONE && marked.contains(NodeId(par)) {
                    o.push(a);
                }
            }
            true
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Merge the subtree intervals of X (sorted starts ⇒ one pass),
            // then merge the postings against them.
            let or_self = axis == Axis::DescendantOrSelf;
            ranges.clear();
            for &m in x {
                let s = (m.index() + usize::from(!or_self)) as u32;
                let e = doc.subtree_end(m) as u32;
                if s >= e {
                    continue;
                }
                match ranges.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => ranges.push((s, e)),
                }
            }
            let posts = doc.element_postings(nm);
            let mut pi = 0usize;
            let o = out.vec_mut();
            for &(s, e) in ranges.iter() {
                pi += posts[pi..].partition_point(|p| (p.index() as u32) < s);
                while pi < posts.len() && (posts[pi].index() as u32) < e {
                    o.push(posts[pi]);
                    pi += 1;
                }
            }
            true
        }
        Axis::Following => {
            let m = x
                .iter()
                .map(|&v| doc.subtree_end(v))
                .min()
                .expect("x non-empty");
            let posts = doc.element_postings(nm);
            let start = posts.partition_point(|p| p.index() < m);
            out.vec_mut().extend_from_slice(&posts[start..]);
            true
        }
        Axis::Preceding => {
            let m = x.iter().map(|v| v.index()).max().expect("x non-empty");
            let o = out.vec_mut();
            for &p in doc.element_postings(nm) {
                if p.index() >= m {
                    break;
                }
                if doc.subtree_end(p) <= m {
                    o.push(p);
                }
            }
            true
        }
        Axis::Parent => {
            tmp.clear();
            let parent = doc.parent_raw();
            for &m in x {
                let p = parent[m.index()];
                if p != NONE && doc.kind(NodeId(p)) == NodeKind::Element(nm) {
                    tmp.push(NodeId(p));
                }
            }
            tmp.sort_unstable();
            tmp.dedup();
            out.vec_mut().extend_from_slice(tmp);
            true
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // Union of ancestor chains with a visited set: O(|X| + output
            // + total fresh chain length), not O(|D|).
            flag.ensure_capacity(doc.len());
            flag.clear();
            tmp.clear();
            let or_self = axis == Axis::AncestorOrSelf;
            for &m in x {
                let mut cur = if or_self { Some(m) } else { doc.parent(m) };
                while let Some(p) = cur {
                    if !flag.insert(p) {
                        break; // chain already walked from here up
                    }
                    if doc.kind(p) == NodeKind::Element(nm) {
                        tmp.push(p);
                    }
                    cur = doc.parent(p);
                }
            }
            tmp.sort_unstable();
            out.vec_mut().extend_from_slice(tmp);
            true
        }
        // Sibling walks and the remaining axes use the generic sweeps.
        Axis::SelfAxis | Axis::FollowingSibling | Axis::PrecedingSibling | Axis::Id => false,
    }
}

// ---------------------------------------------------------------------------
// Parallel chunk-and-merge kernels.
//
// The dominant cost of every eligible kernel above is a single ascending
// scan — over the arena (`0..n`) or over a sorted postings slice.  Chunking
// that scan at index boundaries yields per-chunk outputs that are sorted and
// disjoint, and concatenating them in chunk order reproduces the sequential
// output *bit for bit* (the differential suites enforce this).  Any shared
// mark/flag bitmaps are built sequentially before the region starts and read
// immutably inside it.
//
// Kernels whose scans are interleaved with state updates (sibling sweeps),
// bounded by the origin chain (parent/ancestor walks), or already memcpys
// (name-tested `following`) stay sequential; the `*_par` entry points
// delegate and return 0 chunks.  Size gating (`ParConfig`) keeps small
// calls off the pool entirely.

/// Runs `fill(start, end, buf)` for each chunk of `0..len` on the pool and
/// returns the per-chunk buffers in chunk order.
fn fill_chunks<F>(pool: &WorkerPool, len: usize, chunks: usize, fill: F) -> Vec<Vec<NodeId>>
where
    F: Fn(usize, usize, &mut Vec<NodeId>) + Sync,
{
    let slots: Vec<Mutex<Vec<NodeId>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
    pool.run(chunks, &|i| {
        let (s, e) = chunk_bounds(len, chunks, i);
        // Uncontended: each chunk index is claimed exactly once, so the
        // lock only fences the buffer hand-off back to the merge loop.
        let mut buf = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        fill(s, e, &mut buf);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Chunk-and-merge driver: per-chunk outputs (ascending within each chunk)
/// are concatenated in chunk order into `out` — exactly the sequential
/// scan's output, since the chunks partition `0..len` in ascending order.
fn run_chunked<F>(pool: &WorkerPool, len: usize, chunks: usize, out: &mut NodeSet, fill: F)
where
    F: Fn(usize, usize, &mut Vec<NodeId>) + Sync,
{
    let o = out.vec_mut();
    for buf in fill_chunks(pool, len, chunks, fill) {
        o.extend_from_slice(&buf);
    }
}

/// Parallel variant of [`axis_image_into`]: identical output, but the
/// dominant scan of eligible kernels is split into index-range chunks
/// executed on `pool` and merged by pre-order ordinal.  Returns the number
/// of chunks used; `0` means the call ran on the sequential kernels
/// (ineligible shape, or below `cfg.threshold`).
#[allow(clippy::too_many_arguments)]
pub fn axis_image_into_par(
    doc: &Document,
    axis: Axis,
    x: &NodeSet,
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> usize {
    image_into_par(doc, axis, x.as_slice(), t, scratch, out, pool, cfg)
}

#[allow(clippy::too_many_arguments)]
fn image_into_par(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> usize {
    out.clear();
    if x.is_empty() || t == ResolvedTest::NeverMatches {
        return 0;
    }
    // Same singleton shortcut as the sequential kernel: the local walk is
    // cheaper than any region could be.
    if x.len() == 1 {
        let sliced_name_test =
            matches!(axis, Axis::Following | Axis::Preceding) && matches!(t, ResolvedTest::Name(_));
        if axis != Axis::Id && !sliced_name_test {
            image_into(doc, axis, x, t, scratch, out);
            return 0;
        }
    }
    scratch.grow(doc.len());
    if let ResolvedTest::Name(nm) = t {
        name_image_par(doc, axis, x, nm, scratch, out, pool, cfg)
    } else {
        generic_image_par(doc, axis, x, t, scratch, out, pool, cfg)
    }
}

/// Postings-backed name-test kernels, chunked over the (sliced) postings.
#[allow(clippy::too_many_arguments)]
fn name_image_par(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    nm: Name,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> usize {
    let t = ResolvedTest::Name(nm);
    match axis {
        Axis::Child | Axis::Attribute => {
            let posts = if axis == Axis::Child {
                doc.element_postings(nm)
            } else {
                doc.attribute_postings(nm)
            };
            let chunks = cfg.chunks_for(pool, posts.len());
            if chunks == 0 {
                note_bypass();
                image_into(doc, axis, x, t, scratch, out);
                return 0;
            }
            let marked = &mut scratch.marked;
            mark(marked, x);
            let marked = &*marked;
            let parent = doc.parent_raw();
            run_chunked(pool, posts.len(), chunks, out, |s, e, buf| {
                for &p in &posts[s..e] {
                    let par = parent[p.index()];
                    if par != NONE && marked.contains(NodeId(par)) {
                        buf.push(p);
                    }
                }
            });
            chunks
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Merge the subtree intervals of X exactly as the sequential
            // kernel does, then test each posting against the merged
            // ranges by binary search instead of merging linearly.
            let or_self = axis == Axis::DescendantOrSelf;
            scratch.ranges.clear();
            for &m in x {
                let s = (m.index() + usize::from(!or_self)) as u32;
                let e = doc.subtree_end(m) as u32;
                if s >= e {
                    continue;
                }
                match scratch.ranges.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => scratch.ranges.push((s, e)),
                }
            }
            let (first, last) = match (scratch.ranges.first(), scratch.ranges.last()) {
                (Some(&f), Some(&l)) => (f, l),
                _ => return 0, // no ranges ⇒ empty output
            };
            let all = doc.element_postings(nm);
            let lo = all.partition_point(|p| (p.index() as u32) < first.0);
            let hi = lo + all[lo..].partition_point(|p| (p.index() as u32) < last.1);
            let posts = &all[lo..hi];
            let chunks = cfg.chunks_for(pool, posts.len());
            if chunks == 0 {
                note_bypass();
                image_into(doc, axis, x, t, scratch, out);
                return 0;
            }
            let ranges = &scratch.ranges;
            run_chunked(pool, posts.len(), chunks, out, |s, e, buf| {
                for &p in &posts[s..e] {
                    let pi = p.index() as u32;
                    // Ranges are sorted and disjoint: the only candidate
                    // is the last one starting at or before `pi`.
                    let idx = ranges.partition_point(|&(rs, _)| rs <= pi);
                    if idx > 0 && pi < ranges[idx - 1].1 {
                        buf.push(p);
                    }
                }
            });
            chunks
        }
        Axis::Preceding => {
            let m = x.iter().map(|v| v.index()).max().expect("x non-empty");
            let all = doc.element_postings(nm);
            let posts = &all[..all.partition_point(|p| p.index() < m)];
            let chunks = cfg.chunks_for(pool, posts.len());
            if chunks == 0 {
                note_bypass();
                image_into(doc, axis, x, t, scratch, out);
                return 0;
            }
            run_chunked(pool, posts.len(), chunks, out, |s, e, buf| {
                for &p in &posts[s..e] {
                    if doc.subtree_end(p) <= m {
                        buf.push(p);
                    }
                }
            });
            chunks
        }
        // Name-tested `following` is a postings memcpy, `parent`/`ancestor`
        // are chain walks, and the rest fall through to sweeps the
        // sequential kernel handles — none benefit from chunking.
        _ => {
            image_into(doc, axis, x, t, scratch, out);
            0
        }
    }
}

/// Generic arena sweeps with the output scan chunked; mark/flag bitmaps
/// are built sequentially first (identically to [`image_into`]) and read
/// immutably inside the region.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // index-driven pre-order sweeps; the index is the NodeId
fn generic_image_par(
    doc: &Document,
    axis: Axis,
    x: &[NodeId],
    t: ResolvedTest,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> usize {
    let n = doc.len();
    let keep = move |node: NodeId| t.matches(doc, axis, node);
    let parallel = matches!(
        axis,
        Axis::Child
            | Axis::Parent
            | Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Following
            | Axis::Preceding
            | Axis::Attribute
    );
    if !parallel {
        // Sibling sweeps interleave flag updates with output, `self` is
        // O(|X|), and `id` re-sorts anyway: sequential.
        image_into(doc, axis, x, t, scratch, out);
        return 0;
    }
    let chunks = cfg.chunks_for(pool, n);
    if chunks == 0 {
        note_bypass();
        image_into(doc, axis, x, t, scratch, out);
        return 0;
    }
    let Scratch { marked, flag, .. } = scratch;
    match axis {
        Axis::Child => {
            mark(marked, x);
            let marked = &*marked;
            let parent = doc.parent_raw();
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    let p = parent[i];
                    if p != NONE
                        && marked.contains(NodeId(p))
                        && !doc.kind(y).is_attribute()
                        && keep(y)
                    {
                        buf.push(y);
                    }
                }
            });
        }
        Axis::Parent => {
            flag.clear();
            let parent = doc.parent_raw();
            for &m in x {
                let p = parent[m.index()];
                if p != NONE {
                    flag.insert(NodeId(p));
                }
            }
            let flag = &*flag;
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    if flag.contains(y) && keep(y) {
                        buf.push(y);
                    }
                }
            });
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            mark(marked, x);
            flag.clear();
            let parent = doc.parent_raw();
            for i in 1..n {
                let p = NodeId(parent[i]);
                if marked.contains(p) || flag.contains(p) {
                    flag.insert(NodeId::from_index(i));
                }
            }
            let or_self = axis == Axis::DescendantOrSelf;
            let (marked, flag) = (&*marked, &*flag);
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    if ((flag.contains(y) && !doc.kind(y).is_attribute())
                        || (or_self && marked.contains(y)))
                        && keep(y)
                    {
                        buf.push(y);
                    }
                }
            });
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            mark(marked, x);
            flag.clear();
            let parent = doc.parent_raw();
            for i in (1..n).rev() {
                let y = NodeId::from_index(i);
                if marked.contains(y) || flag.contains(y) {
                    flag.insert(NodeId(parent[i]));
                }
            }
            let or_self = axis == Axis::AncestorOrSelf;
            let (marked, flag) = (&*marked, &*flag);
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    if (flag.contains(y) || (or_self && marked.contains(y))) && keep(y) {
                        buf.push(y);
                    }
                }
            });
        }
        Axis::Following => {
            let m = x
                .iter()
                .map(|&v| doc.subtree_end(v))
                .min()
                .expect("x non-empty");
            run_chunked(pool, n - m, chunks, out, |s, e, buf| {
                for i in m + s..m + e {
                    let y = NodeId::from_index(i);
                    if !doc.kind(y).is_attribute() && keep(y) {
                        buf.push(y);
                    }
                }
            });
        }
        Axis::Preceding => {
            let m = x.iter().map(|v| v.index()).max().expect("x non-empty");
            // subtree_end(y) > pre(y), so only indices below m qualify.
            run_chunked(pool, m, chunks, out, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    if doc.subtree_end(y) <= m && !doc.kind(y).is_attribute() && keep(y) {
                        buf.push(y);
                    }
                }
            });
        }
        Axis::Attribute => {
            mark(marked, x);
            let marked = &*marked;
            let parent = doc.parent_raw();
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    let p = parent[i];
                    if doc.kind(y).is_attribute()
                        && p != NONE
                        && marked.contains(NodeId(p))
                        && keep(y)
                    {
                        buf.push(y);
                    }
                }
            });
        }
        _ => unreachable!("gated by `parallel` above"),
    }
    chunks
}

/// Parallel variant of [`axis_preimage_into`]: identical output, with the
/// mirror-image cases routed through [`axis_image_into_par`] and the
/// direct `ancestor`/`following` arena scans chunked.  Returns the number
/// of chunks used (`0` = sequential).
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // index-driven pre-order sweeps; the index is the NodeId
pub fn axis_preimage_into_par(
    doc: &Document,
    axis: Axis,
    y: &NodeSet,
    scratch: &mut Scratch,
    out: &mut NodeSet,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> usize {
    out.clear();
    if y.is_empty() {
        return 0;
    }
    let n = doc.len();
    scratch.grow(n);
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Mirror through the parallel image, with the same attribute
            // filtering as the sequential kernel.
            let mut filt = std::mem::take(&mut scratch.tmp2);
            filt.clear();
            filt.extend(y.iter().filter(|&m| !doc.kind(m).is_attribute()));
            let mirror = match axis {
                Axis::Descendant => Axis::Ancestor,
                _ => Axis::AncestorOrSelf,
            };
            let chunks = image_into_par(
                doc,
                mirror,
                &filt,
                ResolvedTest::AnyNode,
                scratch,
                out,
                pool,
                cfg,
            );
            scratch.tmp2 = filt;
            if axis == Axis::DescendantOrSelf {
                let o = out.vec_mut();
                o.extend(y.iter().filter(|&m| doc.kind(m).is_attribute()));
                o.sort_unstable();
                o.dedup();
            }
            chunks
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let chunks = cfg.chunks_for(pool, n);
            if chunks == 0 {
                note_bypass();
                axis_preimage_into(doc, axis, y, scratch, out);
                return 0;
            }
            let or_self = axis == Axis::AncestorOrSelf;
            let Scratch { marked, flag, .. } = scratch;
            mark(marked, y.as_slice());
            flag.clear();
            let parent = doc.parent_raw();
            for i in 1..n {
                let p = NodeId(parent[i]);
                if marked.contains(p) || flag.contains(p) {
                    flag.insert(NodeId::from_index(i));
                }
            }
            let (marked, flag) = (&*marked, &*flag);
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let id = NodeId::from_index(i);
                    if flag.contains(id) || (or_self && marked.contains(id)) {
                        buf.push(id);
                    }
                }
            });
            chunks
        }
        Axis::Following => {
            let Some(m) = y
                .iter()
                .filter(|&v| !doc.kind(v).is_attribute())
                .map(|v| v.index())
                .max()
            else {
                return 0;
            };
            let chunks = cfg.chunks_for(pool, n);
            if chunks == 0 {
                note_bypass();
                axis_preimage_into(doc, axis, y, scratch, out);
                return 0;
            }
            run_chunked(pool, n, chunks, out, |s, e, buf| {
                for i in s..e {
                    let v = NodeId::from_index(i);
                    if doc.subtree_end(v) <= m {
                        buf.push(v);
                    }
                }
            });
            chunks
        }
        // `preceding` is a pure index-range push (memcpy-shaped),
        // `child`/`parent` are output-sensitive, and the remaining axes
        // are small or sibling-shaped: sequential.
        _ => {
            axis_preimage_into(doc, axis, y, scratch, out);
            0
        }
    }
}

/// Parallel variant of [`Document::axis_nodes_into`] for the single-origin
/// axes whose cost is an arena scan — `following` and `preceding` under
/// non-name tests.  Everything else (local walks, postings binary
/// searches) delegates.  Output order is the axis order `<doc,χ`, exactly
/// as the sequential walk produces it.  Returns chunks used (`0` =
/// sequential).
pub fn axis_nodes_into_par(
    doc: &Document,
    axis: Axis,
    from: NodeId,
    t: ResolvedTest,
    out: &mut Vec<NodeId>,
    pool: &WorkerPool,
    cfg: ParConfig,
) -> usize {
    let name_test = matches!(t, ResolvedTest::Name(_));
    match axis {
        Axis::Following if !name_test && t != ResolvedTest::NeverMatches => {
            let start = doc.subtree_end(from);
            let n = doc.len();
            let chunks = cfg.chunks_for(pool, n - start);
            if chunks == 0 {
                note_bypass();
                doc.axis_nodes_into(axis, from, t, out);
                return 0;
            }
            out.clear();
            let bufs = fill_chunks(pool, n - start, chunks, |s, e, buf| {
                for i in start + s..start + e {
                    let y = NodeId::from_index(i);
                    if !doc.kind(y).is_attribute() && t.matches(doc, axis, y) {
                        buf.push(y);
                    }
                }
            });
            for buf in bufs {
                out.extend_from_slice(&buf);
            }
            chunks
        }
        Axis::Preceding if !name_test && t != ResolvedTest::NeverMatches => {
            let m = from.index();
            let chunks = cfg.chunks_for(pool, m);
            if chunks == 0 {
                note_bypass();
                doc.axis_nodes_into(axis, from, t, out);
                return 0;
            }
            out.clear();
            let bufs = fill_chunks(pool, m, chunks, |s, e, buf| {
                for i in s..e {
                    let y = NodeId::from_index(i);
                    if doc.subtree_end(y) <= m
                        && !doc.kind(y).is_attribute()
                        && t.matches(doc, axis, y)
                    {
                        buf.push(y);
                    }
                }
            });
            // Reverse document order: reverse both the chunk order and
            // each chunk's ascending contents.
            for buf in bufs.iter().rev() {
                out.extend(buf.iter().rev());
            }
            chunks
        }
        _ => {
            doc.axis_nodes_into(axis, from, t, out);
            0
        }
    }
}

/// Which kernel family an axis call dispatches to — the EXPLAIN/profile
/// surface reports this without re-running the sweep, so the classifiers
/// below must mirror the real dispatch in [`axis_image_into`] and
/// [`Document::axis_nodes_into`] exactly (a test pins the agreement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisRoute {
    /// Sorted label-postings kernel (binary search / interval merge /
    /// parent check): sublinear in `|D|` when the label is rare.
    Postings,
    /// Local traversal — the ordered single-node walk from a singleton
    /// origin, or the `parent`/`ancestor` chain kernels — whose cost is
    /// the touched chain/subtree, not the document.
    Walk,
    /// Generic document-order sweep over the arena: `O(|D|)`.
    Sweep,
}

impl AxisRoute {
    /// A short stable name (used in EXPLAIN plan text).
    pub fn as_str(self) -> &'static str {
        match self {
            AxisRoute::Postings => "postings",
            AxisRoute::Walk => "walk",
            AxisRoute::Sweep => "sweep",
        }
    }
}

impl fmt::Display for AxisRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The route [`axis_image_into`] takes for an origin set of `origins`
/// nodes under test `t`.  Mirrors `image_into`'s dispatch: singleton
/// origins take the single-node walk (except the id axis and name-tested
/// `following`/`preceding`, which prefer the set kernels), name tests
/// route through [`name_image_fast`], everything else sweeps.
pub fn classify_image_route(axis: Axis, t: ResolvedTest, origins: usize) -> AxisRoute {
    if origins == 0 || t == ResolvedTest::NeverMatches {
        // Constant-time empty short-circuit; no kernel runs at all.
        return AxisRoute::Walk;
    }
    let name_test = matches!(t, ResolvedTest::Name(_));
    if origins == 1 {
        let sliced_name_test = matches!(axis, Axis::Following | Axis::Preceding) && name_test;
        if axis != Axis::Id && !sliced_name_test {
            return classify_single_route(axis, t);
        }
    }
    if name_test {
        return match axis {
            Axis::Child
            | Axis::Attribute
            | Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Following
            | Axis::Preceding => AxisRoute::Postings,
            // Chain kernels with a visited set: local, not postings.
            Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf => AxisRoute::Walk,
            Axis::SelfAxis | Axis::FollowingSibling | Axis::PrecedingSibling | Axis::Id => {
                AxisRoute::Sweep
            }
        };
    }
    AxisRoute::Sweep
}

/// The route [`Document::axis_nodes_into`] takes from one origin node —
/// what each origin of a predicated step pays.  Name-tested
/// `descendant(-or-self)` and `following` binary-search the postings;
/// every other shape is the ordered local walk.
pub fn classify_single_route(axis: Axis, t: ResolvedTest) -> AxisRoute {
    if matches!(t, ResolvedTest::Name(_))
        && matches!(
            axis,
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Following
        )
    {
        AxisRoute::Postings
    } else {
        AxisRoute::Walk
    }
}

/// `χ⁻¹(Y) = {x ∈ dom | χ({x}) ∩ Y ≠ ∅}` (Definition 1), in `O(|D|)`.
///
/// Exact for attribute nodes on *both* sides of the relation: attribute
/// members of `Y` only contribute where the forward axis can actually
/// reach an attribute (`self`, `attribute`, the or-self part of
/// `descendant-or-self`/`ancestor-or-self`, `parent`), and attribute
/// *origins* are reported for the axes whose forward image from an
/// attribute node is non-empty (`parent`, `ancestor(-or-self)`,
/// `following`, `preceding`, the or-self axes) — the divergence-from-`χ⁻¹`
/// cases the pure mirror-axis implementation used to get wrong (see
/// DESIGN.md).
pub fn axis_preimage(doc: &Document, axis: Axis, y: &NodeSet) -> NodeSet {
    let mut scratch = Scratch::new();
    let mut out = NodeSet::new();
    axis_preimage_into(doc, axis, y, &mut scratch, &mut out);
    out
}

/// The allocation-free core of [`axis_preimage`]: clears `out` and fills
/// it with `χ⁻¹(Y)` in document order.
#[allow(clippy::needless_range_loop)] // index-driven pre-order sweeps; the index is the NodeId
pub fn axis_preimage_into(
    doc: &Document,
    axis: Axis,
    y: &NodeSet,
    scratch: &mut Scratch,
    out: &mut NodeSet,
) {
    out.clear();
    if y.is_empty() {
        return;
    }
    let n = doc.len();
    scratch.grow(n);
    // Filters Y down to the members the forward axis can produce before
    // mirroring; the buffer must survive the inner image call, so it is
    // taken out of the scratch for the duration.
    macro_rules! with_non_attr {
        ($body:expr) => {{
            let mut filt = std::mem::take(&mut scratch.tmp2);
            filt.clear();
            filt.extend(y.iter().filter(|&m| !doc.kind(m).is_attribute()));
            let filt_ref: &[NodeId] = &filt;
            #[allow(clippy::redundant_closure_call)]
            ($body)(filt_ref);
            scratch.tmp2 = filt;
        }};
    }
    match axis {
        Axis::SelfAxis => out.vec_mut().extend_from_slice(y.as_slice()),
        Axis::Attribute => {
            // x has an attribute in Y  ⇔  x owns an attribute node in Y.
            let tmp = &mut scratch.tmp;
            tmp.clear();
            tmp.extend(
                y.iter()
                    .filter(|&a| doc.kind(a).is_attribute())
                    .filter_map(|a| doc.parent(a)),
            );
            tmp.sort_unstable();
            tmp.dedup();
            out.vec_mut().extend_from_slice(tmp);
        }
        Axis::Id => *out = doc.id_preimage(y),
        // The two one-hop axes are output-sensitive: each member of `Y`
        // contributes its own parent / children, collected in the flag
        // bitmap (`O(|Y| + out + |D|/64)`, no arena sweep).
        Axis::Child => {
            // child(x) never contains attributes: only the parents of
            // non-attribute members qualify.
            let flag = &mut scratch.flag;
            flag.clear();
            for m in y.iter().filter(|&m| !doc.kind(m).is_attribute()) {
                if let Some(p) = doc.parent(m) {
                    flag.insert(p);
                }
            }
            out.vec_mut().extend(flag.iter());
        }
        Axis::Parent => {
            // parent(x) is defined for attributes too: the preimage is the
            // non-attribute children of Y plus the attributes owned by Y.
            let flag = &mut scratch.flag;
            flag.clear();
            for m in y.iter() {
                flag.extend(doc.attributes(m));
                flag.extend(doc.children(m));
            }
            out.vec_mut().extend(flag.iter());
        }
        Axis::Descendant => {
            with_non_attr!(|filt| image_into(
                doc,
                Axis::Ancestor,
                filt,
                ResolvedTest::AnyNode,
                scratch,
                out
            ));
        }
        Axis::DescendantOrSelf => {
            // Ancestors-or-self of the non-attribute members, plus the
            // attribute members themselves (an attribute is its own
            // descendant-or-self and has no other preimage).
            with_non_attr!(|filt| image_into(
                doc,
                Axis::AncestorOrSelf,
                filt,
                ResolvedTest::AnyNode,
                scratch,
                out
            ));
            let o = out.vec_mut();
            o.extend(y.iter().filter(|&m| doc.kind(m).is_attribute()));
            o.sort_unstable();
            o.dedup();
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            // ancestor(x) reaches Y  ⇔  x is a proper descendant of Y —
            // *including* attribute descendants, which the mirror
            // descendant image would drop.
            let or_self = axis == Axis::AncestorOrSelf;
            let Scratch { marked, flag, .. } = scratch;
            mark(marked, y.as_slice());
            flag.clear();
            let parent = doc.parent_raw();
            for i in 1..n {
                let p = NodeId(parent[i]);
                if marked.contains(p) || flag.contains(p) {
                    flag.insert(NodeId::from_index(i));
                }
            }
            let o = out.vec_mut();
            for i in 0..n {
                let id = NodeId::from_index(i);
                if flag.contains(id) || (or_self && marked.contains(id)) {
                    o.push(id);
                }
            }
        }
        Axis::Following => {
            // following(x) ∩ Y ≠ ∅  ⇔  subtree_end(x) ≤ max non-attribute
            // member of Y; attribute origins qualify.
            let Some(m) = y
                .iter()
                .filter(|&v| !doc.kind(v).is_attribute())
                .map(|v| v.index())
                .max()
            else {
                return;
            };
            out.vec_mut().extend(
                (0..n)
                    .map(NodeId::from_index)
                    .filter(|&v| doc.subtree_end(v) <= m),
            );
        }
        Axis::Preceding => {
            // preceding(x) ∩ Y ≠ ∅  ⇔  pre(x) ≥ min subtree_end over
            // non-attribute members of Y; attribute origins qualify.
            let Some(m) = y
                .iter()
                .filter(|&v| !doc.kind(v).is_attribute())
                .map(|v| doc.subtree_end(v))
                .min()
            else {
                return;
            };
            out.vec_mut().extend((m..n).map(NodeId::from_index));
        }
        Axis::FollowingSibling => {
            // Sibling relations exclude attributes on both sides, and the
            // sibling sweeps already enforce that: plain mirror.
            image_into(
                doc,
                Axis::PrecedingSibling,
                y.as_slice(),
                ResolvedTest::AnyNode,
                scratch,
                out,
            );
        }
        Axis::PrecedingSibling => {
            image_into(
                doc,
                Axis::FollowingSibling,
                y.as_slice(),
                ResolvedTest::AnyNode,
                scratch,
                out,
            );
        }
    }
}

impl Document {
    /// The nodes reachable from the single node `from` via `axis`,
    /// filtered by `test`, **in axis order** `<doc,χ` (Section 2.1):
    /// document order for forward axes, reverse document order for reverse
    /// axes.  This ordering is what `position()` and `last()` are defined
    /// over, so the evaluators build their candidate lists with it.
    pub fn axis_nodes(&self, axis: Axis, from: NodeId, test: &NodeTest) -> Vec<NodeId> {
        let t = test.resolve(self);
        let mut out = Vec::new();
        self.axis_nodes_into(axis, from, t, &mut out);
        out
    }

    /// Allocation-reusing variant of [`Document::axis_nodes`].
    pub fn axis_nodes_into(
        &self,
        axis: Axis,
        from: NodeId,
        t: ResolvedTest,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if t == ResolvedTest::NeverMatches {
            return;
        }
        // Postings fast paths: a name test over a subtree range is a
        // binary search into the label postings instead of an arena scan.
        if let ResolvedTest::Name(nm) = t {
            match axis {
                Axis::Descendant | Axis::DescendantOrSelf => {
                    let posts = self.element_postings(nm);
                    let lo = from.index() + usize::from(axis == Axis::Descendant);
                    let hi = self.subtree_end(from);
                    let start = posts.partition_point(|p| p.index() < lo);
                    for &p in &posts[start..] {
                        if p.index() >= hi {
                            break;
                        }
                        out.push(p);
                    }
                    return;
                }
                Axis::Following => {
                    let posts = self.element_postings(nm);
                    let start = posts.partition_point(|p| p.index() < self.subtree_end(from));
                    out.extend_from_slice(&posts[start..]);
                    return;
                }
                _ => {}
            }
        }
        let keep = |n: NodeId| t.matches(self, axis, n);
        match axis {
            Axis::SelfAxis => {
                if keep(from) {
                    out.push(from);
                }
            }
            Axis::Child => out.extend(self.children(from).filter(|&c| keep(c))),
            Axis::Parent => {
                if let Some(p) = self.parent(from) {
                    if keep(p) {
                        out.push(p);
                    }
                }
            }
            Axis::Descendant => {
                out.extend(self.descendants(from).filter(|&d| keep(d)));
            }
            Axis::DescendantOrSelf => {
                if keep(from) {
                    out.push(from);
                }
                out.extend(self.descendants(from).filter(|&d| keep(d)));
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf && keep(from) {
                    out.push(from);
                }
                let mut cur = self.parent(from);
                while let Some(p) = cur {
                    if keep(p) {
                        out.push(p);
                    }
                    cur = self.parent(p);
                }
            }
            Axis::Following => {
                let start = self.subtree_end(from);
                out.extend(
                    (start..self.len())
                        .map(NodeId::from_index)
                        .filter(|&y| !self.kind(y).is_attribute() && keep(y)),
                );
            }
            Axis::Preceding => {
                // Reverse document order, skipping ancestors of `from`.
                for i in (0..from.index()).rev() {
                    let y = NodeId::from_index(i);
                    if self.subtree_end(y) <= from.index()
                        && !self.kind(y).is_attribute()
                        && keep(y)
                    {
                        out.push(y);
                    }
                }
            }
            Axis::FollowingSibling => {
                let mut cur = self.next_sibling(from);
                while let Some(s) = cur {
                    if keep(s) {
                        out.push(s);
                    }
                    cur = self.next_sibling(s);
                }
            }
            Axis::PrecedingSibling => {
                let mut cur = self.prev_sibling(from);
                while let Some(s) = cur {
                    if keep(s) {
                        out.push(s);
                    }
                    cur = self.prev_sibling(s);
                }
            }
            Axis::Attribute => out.extend(self.attributes(from).filter(|&a| keep(a))),
            Axis::Id => {
                let set = self.deref_ids(&self.string_value(from));
                out.extend(set.iter().filter(|&m| keep(m)));
            }
        }
    }

    /// Whether the pair `(x, y)` is in the axis relation `χ` — the
    /// membership test `x χ y` used by the predicate loops of MINCONTEXT.
    pub fn axis_relates(&self, axis: Axis, x: NodeId, y: NodeId) -> bool {
        match axis {
            Axis::SelfAxis => x == y,
            Axis::Child => self.parent(y) == Some(x) && !self.kind(y).is_attribute(),
            Axis::Parent => self.parent(x) == Some(y),
            Axis::Descendant => self.is_ancestor_of(x, y) && !self.kind(y).is_attribute(),
            Axis::Ancestor => self.is_ancestor_of(y, x),
            Axis::DescendantOrSelf => {
                x == y || (self.is_ancestor_of(x, y) && !self.kind(y).is_attribute())
            }
            Axis::AncestorOrSelf => x == y || self.is_ancestor_of(y, x),
            Axis::Following => y.index() >= self.subtree_end(x) && !self.kind(y).is_attribute(),
            Axis::Preceding => self.subtree_end(y) <= x.index() && !self.kind(y).is_attribute(),
            Axis::FollowingSibling => {
                self.parent(x) == self.parent(y)
                    && x < y
                    && !self.kind(y).is_attribute()
                    && !self.kind(x).is_attribute()
            }
            Axis::PrecedingSibling => {
                self.parent(x) == self.parent(y)
                    && y < x
                    && !self.kind(y).is_attribute()
                    && !self.kind(x).is_attribute()
            }
            Axis::Attribute => self.kind(y).is_attribute() && self.parent(y) == Some(x),
            Axis::Id => self.deref_ids(&self.string_value(x)).contains(y),
        }
    }
}

/// `idxχ(x, S)`: the 1-based index of `x` in `S` with respect to `<doc,χ`
/// (Section 2.1).  `S` must be sorted in document order.
pub fn idx_in_axis_order(axis: Axis, x: NodeId, s: &NodeSet) -> Option<usize> {
    let pos = s.position_of(x)?;
    Some(if axis.is_reverse() {
        s.len() - pos
    } else {
        pos + 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Brute-force reference: enumerate all pairs via `axis_relates`.
    fn brute_image(doc: &Document, axis: Axis, x: &NodeSet) -> NodeSet {
        let mut out = Vec::new();
        for y in doc.all_nodes() {
            if x.iter().any(|m| doc.axis_relates(axis, m, y)) {
                out.push(y);
            }
        }
        NodeSet::from_sorted_vec(out)
    }

    fn brute_preimage(doc: &Document, axis: Axis, y: &NodeSet) -> NodeSet {
        let mut out = Vec::new();
        for x in doc.all_nodes() {
            if y.iter().any(|m| doc.axis_relates(axis, x, m)) {
                out.push(x);
            }
        }
        NodeSet::from_sorted_vec(out)
    }

    fn doc1() -> Document {
        parse("<a><b><c/><d/></b><e>text</e><f><g/></f></a>").unwrap()
    }

    /// An attributed document: attribute nodes on several elements, mixed
    /// with text and nested structure, to exercise the attribute edge
    /// cases of both image and preimage (see DESIGN.md).
    fn doc2() -> Document {
        parse(r#"<a p="1"><b q="2"><c/><c r="3"/></b><e>t</e><f s="4" u="5"><g/></f></a>"#).unwrap()
    }

    fn all_elements(doc: &Document) -> NodeSet {
        doc.all_nodes()
            .filter(|&n| doc.kind(n).is_element())
            .collect()
    }

    #[test]
    fn image_matches_brute_force_on_all_axes() {
        for doc in [doc1(), doc2()] {
            let elems = all_elements(&doc);
            let everything: NodeSet = doc.all_nodes().collect();
            // Try every singleton (attributes and text included) and the
            // element / full sets.
            for axis in Axis::ALL {
                if axis == Axis::Id {
                    continue; // no ids in these docs; covered separately
                }
                for x in everything.iter() {
                    let xs = NodeSet::singleton(x);
                    let fast = axis_image(&doc, axis, &xs, &NodeTest::AnyNode);
                    let slow = brute_image(&doc, axis, &xs);
                    assert_eq!(fast, slow, "axis {axis} from {x}");
                }
                for set in [&elems, &everything] {
                    let fast = axis_image(&doc, axis, set, &NodeTest::AnyNode);
                    let slow = brute_image(&doc, axis, set);
                    assert_eq!(fast, slow, "axis {axis} from set of {}", set.len());
                }
            }
        }
    }

    #[test]
    fn preimage_matches_brute_force_on_all_axes() {
        // Includes the attributed document: mirror-axis images diverge
        // from χ⁻¹ when Y contains attribute nodes (and for attribute
        // *origins* of `parent` / `ancestor` / `following` / `preceding`),
        // which the direct preimage kernels must get right.
        for doc in [doc1(), doc2()] {
            let everything: NodeSet = doc.all_nodes().collect();
            for axis in Axis::ALL {
                if matches!(axis, Axis::Id) {
                    continue;
                }
                for y in everything.iter() {
                    let ys = NodeSet::singleton(y);
                    let fast = axis_preimage(&doc, axis, &ys);
                    let slow = brute_preimage(&doc, axis, &ys);
                    assert_eq!(fast, slow, "axis {axis} to {y}");
                }
                let fast = axis_preimage(&doc, axis, &everything);
                let slow = brute_preimage(&doc, axis, &everything);
                assert_eq!(fast, slow, "axis {axis} to full node set");
            }
        }
    }

    #[test]
    fn preimage_attribute_members_do_not_leak_through_tree_axes() {
        // Regression for the old mirror-axis shortcut: with Y = {an
        // attribute}, child/descendant preimages must be empty (tree axes
        // never produce attributes), parent must report the attribute
        // itself (parent(attr) = owner… i.e. x = attr has parent in Y only
        // if Y contains the owner), and descendant-or-self must report
        // exactly the attribute (its own descendant-or-self).
        let doc = doc2();
        let a = doc.document_element();
        let p_attr = doc.attributes(a).next().unwrap();
        let ys = NodeSet::singleton(p_attr);
        assert!(axis_preimage(&doc, Axis::Child, &ys).is_empty());
        assert!(axis_preimage(&doc, Axis::Descendant, &ys).is_empty());
        assert_eq!(
            axis_preimage(&doc, Axis::DescendantOrSelf, &ys),
            NodeSet::singleton(p_attr)
        );
        // Owner in Y: attributes are in the parent-axis preimage.
        let pre = axis_preimage(&doc, Axis::Parent, &NodeSet::singleton(a));
        assert!(pre.contains(p_attr));
        // Attribute origins reach forward through following/ancestor.
        let root_set = NodeSet::singleton(doc.root());
        assert!(axis_preimage(&doc, Axis::Ancestor, &root_set).contains(p_attr));
    }

    #[test]
    fn name_test_images_match_filtered_brute_force() {
        // The postings fast paths must agree with the generic sweep +
        // post-filter on every axis.
        for doc in [doc1(), doc2()] {
            let everything: NodeSet = doc.all_nodes().collect();
            let elems = all_elements(&doc);
            for label in ["a", "b", "c", "g", "q", "zzz"] {
                let test = NodeTest::name(label);
                for axis in Axis::ALL {
                    if axis == Axis::Id {
                        continue;
                    }
                    let t = test.resolve(&doc);
                    for set in [&elems, &everything] {
                        let fast = axis_image(&doc, axis, set, &test);
                        let mut slow = brute_image(&doc, axis, set);
                        slow.retain(|y| t.matches(&doc, axis, y));
                        assert_eq!(fast, slow, "axis {axis}, label {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn axis_nodes_ordering_forward_and_reverse() {
        let doc = doc1();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();

        // descendant: document order.
        let desc = doc.axis_nodes(Axis::Descendant, a, &NodeTest::Wildcard);
        let labels: Vec<_> = desc.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["b", "c", "d", "e", "f", "g"]);

        // ancestor: reverse document order (parent first).
        let anc = doc.axis_nodes(Axis::Ancestor, c, &NodeTest::AnyNode);
        assert_eq!(anc[0], b);
        assert_eq!(anc[1], a);
        assert_eq!(anc[2], doc.root());

        // preceding from <g>: reverse document order, no ancestors.
        let g = doc
            .descendants(a)
            .find(|&n| doc.label_str(n) == Some("g"))
            .unwrap();
        let prec = doc.axis_nodes(Axis::Preceding, g, &NodeTest::Wildcard);
        let labels: Vec<_> = prec.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["e", "d", "c", "b"]);
    }

    #[test]
    fn following_excludes_descendants_and_self() {
        let doc = doc1();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let foll = doc.axis_nodes(Axis::Following, b, &NodeTest::Wildcard);
        let labels: Vec<_> = foll.iter().map(|&n| doc.label_str(n).unwrap()).collect();
        assert_eq!(labels, vec!["e", "f", "g"]);
    }

    #[test]
    fn sibling_axes() {
        let doc = doc1();
        let a = doc.document_element();
        let kids: Vec<_> = doc.children(a).collect();
        let (b, e, f) = (kids[0], kids[1], kids[2]);
        let fs = doc.axis_nodes(Axis::FollowingSibling, b, &NodeTest::Wildcard);
        assert_eq!(fs, vec![e, f]);
        let ps = doc.axis_nodes(Axis::PrecedingSibling, f, &NodeTest::Wildcard);
        assert_eq!(ps, vec![e, b]); // reverse document order
    }

    #[test]
    fn wildcard_selects_elements_only() {
        let doc = parse("<a>t1<b/>t2</a>").unwrap();
        let a = doc.document_element();
        let star = doc.axis_nodes(Axis::Child, a, &NodeTest::Wildcard);
        assert_eq!(star.len(), 1);
        let any = doc.axis_nodes(Axis::Child, a, &NodeTest::AnyNode);
        assert_eq!(any.len(), 3);
        let text = doc.axis_nodes(Axis::Child, a, &NodeTest::Text);
        assert_eq!(text.len(), 2);
    }

    #[test]
    fn name_test_resolution() {
        let doc = doc1();
        let a = doc.document_element();
        let bs = doc.axis_nodes(Axis::Descendant, a, &NodeTest::name("b"));
        assert_eq!(bs.len(), 1);
        let none = doc.axis_nodes(Axis::Descendant, a, &NodeTest::name("zzz"));
        assert!(none.is_empty());
    }

    #[test]
    fn attribute_axis_and_preimage() {
        let doc = parse(r#"<a p="1"><b q="2" r="3"/></a>"#).unwrap();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let attrs_b = doc.axis_nodes(Axis::Attribute, b, &NodeTest::Wildcard);
        assert_eq!(attrs_b.len(), 2);
        let q_only = doc.axis_nodes(Axis::Attribute, b, &NodeTest::name("q"));
        assert_eq!(q_only.len(), 1);
        // Preimage: owner elements of the attribute nodes.
        let ys = NodeSet::from_unsorted(attrs_b.clone());
        let owners = axis_preimage(&doc, Axis::Attribute, &ys);
        assert_eq!(owners, NodeSet::singleton(b));
        // Attributes never appear on tree axes.
        let desc = doc.axis_nodes(Axis::Descendant, a, &NodeTest::AnyNode);
        assert!(desc.iter().all(|&n| !doc.kind(n).is_attribute()));
    }

    #[test]
    fn id_axis_image_and_preimage() {
        // b's text references id 22; c has id 22.
        let doc = parse(r#"<a id="10"><b id="11">22</b><c id="22">x</c></a>"#).unwrap();
        let a = doc.document_element();
        let b = doc.first_child(a).unwrap();
        let c = doc.last_child(a).unwrap();
        let img = axis_image(&doc, Axis::Id, &NodeSet::singleton(b), &NodeTest::AnyNode);
        assert_eq!(img, NodeSet::singleton(c));
        let pre = axis_preimage(&doc, Axis::Id, &NodeSet::singleton(c));
        assert!(pre.contains(b));
        // Per-text-node tokenization (see DESIGN.md): the text node "22"
        // under b contributes the token to every ancestor's preimage.
        assert!(pre.contains(a));
    }

    #[test]
    fn idx_in_axis_order_forward_and_reverse() {
        let s = NodeSet::from_unsorted(vec![
            NodeId::from_index(2),
            NodeId::from_index(5),
            NodeId::from_index(9),
        ]);
        assert_eq!(
            idx_in_axis_order(Axis::Child, NodeId::from_index(2), &s),
            Some(1)
        );
        assert_eq!(
            idx_in_axis_order(Axis::Child, NodeId::from_index(9), &s),
            Some(3)
        );
        // Reverse axis: first in reverse doc order gets index 1.
        assert_eq!(
            idx_in_axis_order(Axis::Ancestor, NodeId::from_index(9), &s),
            Some(1)
        );
        assert_eq!(
            idx_in_axis_order(Axis::Ancestor, NodeId::from_index(2), &s),
            Some(3)
        );
        assert_eq!(
            idx_in_axis_order(Axis::Child, NodeId::from_index(4), &s),
            None
        );
    }

    #[test]
    fn axis_inverse_round_trip() {
        for axis in Axis::ALL {
            if let Some(inv) = axis.inverse() {
                assert_eq!(inv.inverse(), Some(axis));
            }
        }
    }

    #[test]
    fn axis_parse_round_trip() {
        for axis in Axis::ALL {
            assert_eq!(Axis::from_str_opt(axis.as_str()), Some(axis));
        }
        assert_eq!(Axis::from_str_opt("sideways"), None);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "full axis x test x origin pool sweep is minutes-long under the interpreter"
    )]
    fn parallel_kernels_match_sequential_bit_for_bit() {
        // Tiny thresholds force the chunked paths even on these small
        // documents; every axis × test × origin-set combination must agree
        // with the sequential kernels exactly (ordinals included).
        let pool = WorkerPool::new(3);
        let cfg = ParConfig {
            threshold: 2,
            min_chunk: 1,
        };
        for doc in [doc1(), doc2()] {
            let everything: NodeSet = doc.all_nodes().collect();
            let elems = all_elements(&doc);
            let single = NodeSet::singleton(doc.document_element());
            let tests = [
                NodeTest::AnyNode,
                NodeTest::Wildcard,
                NodeTest::Text,
                NodeTest::name("b"),
                NodeTest::name("c"),
                NodeTest::name("q"),
                NodeTest::name("zzz"),
            ];
            let mut scratch = Scratch::new();
            for axis in Axis::ALL {
                for test in &tests {
                    let t = test.resolve(&doc);
                    for set in [&elems, &everything, &single] {
                        let mut seq = NodeSet::new();
                        axis_image_into(&doc, axis, set, t, &mut scratch, &mut seq);
                        let mut par = NodeSet::new();
                        axis_image_into_par(&doc, axis, set, t, &mut scratch, &mut par, &pool, cfg);
                        assert_eq!(par, seq, "image axis {axis} test {test}");
                    }
                    let mut seq = NodeSet::new();
                    axis_preimage_into(&doc, axis, &everything, &mut scratch, &mut seq);
                    let mut par = NodeSet::new();
                    axis_preimage_into_par(
                        &doc,
                        axis,
                        &everything,
                        &mut scratch,
                        &mut par,
                        &pool,
                        cfg,
                    );
                    assert_eq!(par, seq, "preimage axis {axis}");
                    for from in everything.iter() {
                        let mut seq = Vec::new();
                        doc.axis_nodes_into(axis, from, t, &mut seq);
                        let mut par = Vec::new();
                        axis_nodes_into_par(&doc, axis, from, t, &mut par, &pool, cfg);
                        assert_eq!(par, seq, "axis_nodes axis {axis} test {test} from {from}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "4000-element chunked sweep is minutes-long under the interpreter"
    )]
    fn parallel_kernels_engage_above_threshold() {
        // A wide flat document large enough that the chunked paths really
        // run (non-zero chunk counts), still agreeing with sequential.
        let mut xml = String::from("<r>");
        for i in 0..4000 {
            if i % 3 == 0 {
                xml.push_str("<a><b/></a>");
            } else {
                xml.push_str("<c/>");
            }
        }
        xml.push_str("</r>");
        let doc = parse(&xml).unwrap();
        let pool = WorkerPool::new(4);
        let cfg = ParConfig {
            threshold: 64,
            min_chunk: 16,
        };
        let elems = all_elements(&doc);
        let mut scratch = Scratch::new();
        let mut ran_parallel = 0usize;
        for (axis, test) in [
            (Axis::Child, NodeTest::name("b")),
            (Axis::Descendant, NodeTest::name("a")),
            (Axis::Child, NodeTest::AnyNode),
            (Axis::Preceding, NodeTest::Wildcard),
            (Axis::Following, NodeTest::AnyNode),
        ] {
            let t = test.resolve(&doc);
            let mut seq = NodeSet::new();
            axis_image_into(&doc, axis, &elems, t, &mut scratch, &mut seq);
            let mut par = NodeSet::new();
            let chunks =
                axis_image_into_par(&doc, axis, &elems, t, &mut scratch, &mut par, &pool, cfg);
            assert_eq!(par, seq, "axis {axis} test {test}");
            ran_parallel += usize::from(chunks > 0);
        }
        assert!(ran_parallel >= 4, "expected the chunked kernels to engage");
    }

    #[test]
    fn route_classification_mirrors_the_kernel_dispatch() {
        let doc = doc1();
        let name = NodeTest::name("c").resolve(&doc);
        let any = NodeTest::AnyNode.resolve(&doc);
        // Name tests over multi-node origin sets hit the postings kernels
        // exactly for the axes name_image_fast accepts…
        for axis in [
            Axis::Child,
            Axis::Attribute,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Following,
            Axis::Preceding,
        ] {
            assert_eq!(classify_image_route(axis, name, 3), AxisRoute::Postings);
        }
        // …chain kernels are local walks…
        for axis in [Axis::Parent, Axis::Ancestor, Axis::AncestorOrSelf] {
            assert_eq!(classify_image_route(axis, name, 3), AxisRoute::Walk);
        }
        // …and the rest fall through to the generic sweeps.
        for axis in [Axis::SelfAxis, Axis::FollowingSibling, Axis::Id] {
            assert_eq!(classify_image_route(axis, name, 3), AxisRoute::Sweep);
        }
        assert_eq!(classify_image_route(Axis::Child, any, 3), AxisRoute::Sweep);
        // Singleton origins take the single-node walk, whose own postings
        // fast paths cover name-tested descendant(-or-self)/following.
        assert_eq!(
            classify_image_route(Axis::Descendant, name, 1),
            AxisRoute::Postings
        );
        assert_eq!(classify_image_route(Axis::Child, name, 1), AxisRoute::Walk);
        assert_eq!(classify_image_route(Axis::Child, any, 1), AxisRoute::Walk);
        // The singleton exceptions stay on the set kernels: id, and the
        // sliced name-tested following/preceding postings.
        assert_eq!(classify_image_route(Axis::Id, any, 1), AxisRoute::Sweep);
        assert_eq!(
            classify_image_route(Axis::Preceding, name, 1),
            AxisRoute::Postings
        );
        // Empty origins and dead names never run a kernel at all.
        assert_eq!(classify_image_route(Axis::Child, name, 0), AxisRoute::Walk);
        assert_eq!(
            classify_image_route(Axis::Descendant, ResolvedTest::NeverMatches, 9),
            AxisRoute::Walk
        );
        // The per-origin classifier mirrors axis_nodes_into.
        assert_eq!(
            classify_single_route(Axis::Descendant, name),
            AxisRoute::Postings
        );
        assert_eq!(
            classify_single_route(Axis::Following, name),
            AxisRoute::Postings
        );
        assert_eq!(
            classify_single_route(Axis::Preceding, name),
            AxisRoute::Walk
        );
        assert_eq!(classify_single_route(Axis::Child, any), AxisRoute::Walk);
    }
}
