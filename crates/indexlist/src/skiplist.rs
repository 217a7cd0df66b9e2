//! The paper's IndexedSkipList (§V-C, Figure 3, Algorithm 1), generalized
//! to weighted (variable-length) blocks.
//!
//! A classic Pugh skip list stores a sorted list and searches by key. The
//! IndexedSkipList instead associates a `skip_count` with every forward
//! pointer — here a pair *(blocks skipped, characters skipped)* — so the
//! structure is searched **by position**: either by block ordinal or by
//! character index. Find, Insert, and Delete all run in expected
//! `O(log n)` time in the number of blocks, matching the analysis the
//! paper inherits from Pugh's original algorithms.

use crate::{BlockSeq, Location, Weighted};

/// Maximum tower height; 2^32 blocks is far beyond any document size.
const MAX_LEVEL: usize = 32;

/// Sentinel index representing the NIL pointer at the end of every level.
const NIL: u32 = u32::MAX;

/// A forward pointer: the paper's `forward[i].point_at` plus the
/// `skip_count` field, carried in both block and character units.
///
/// Targets and spans are `u32` (a list never holds 2^32 nodes, and a
/// single link never covers more than 2^32 blocks or characters — far
/// beyond any document this system stores), which keeps a link at 12
/// bytes and cuts the tower memory traffic on the bulk-build and walk
/// paths.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Arena index of the destination node, or [`NIL`].
    target: u32,
    /// Blocks skipped when following this link, counting the destination:
    /// `rank(target) - rank(source)`.
    span_blocks: u32,
    /// Characters skipped when following this link, counting the full
    /// destination block.
    span_weight: u32,
}

/// Narrows a span to the stored width, checked in debug builds.
#[inline]
fn span(n: usize) -> u32 {
    debug_assert!(n <= u32::MAX as usize, "span exceeds u32 range");
    n as u32
}

/// Narrows a node index to a link target; `alloc` keeps every index
/// below [`NIL`].
#[inline]
fn target(node: usize) -> u32 {
    debug_assert!(node < NIL as usize, "node index exceeds u32 range");
    node as u32
}

const NIL_LINK: Link = Link { target: NIL, span_blocks: 0, span_weight: 0 };

/// One arena slot. A node's forward links are not stored here: they are
/// the contiguous run `links[links_at..links_at + height]` of the list's
/// shared link arena, so building a node never allocates, however tall
/// its tower, and dropping the list frees two vectors instead of one
/// vector per tall tower.
#[derive(Debug)]
struct Node<T> {
    /// `None` only for the head sentinel and freed arena slots.
    value: Option<T>,
    /// Offset of this node's tower in the link arena.
    links_at: u32,
    /// Number of levels the node takes part in (the head's grows with
    /// the list; its tower is reserved at [`MAX_LEVEL`] links up front).
    height: u8,
}

/// SplitMix64: a tiny, high-quality PRNG for tower heights, embedded so the
/// data structure is deterministic given a seed.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The IndexedSkipList of §V-C: an order-statistic skip list over
/// variable-length blocks.
///
/// See the [crate docs](crate) and [`BlockSeq`] for the operation set.
/// Nodes live in an internal arena; removed slots are recycled.
///
/// # Example
///
/// ```
/// use pe_indexlist::{BlockSeq, IndexedSkipList, Weighted};
///
/// struct B(&'static str);
/// impl Weighted for B {
///     fn weight(&self) -> usize { self.0.len() }
/// }
///
/// let mut list = IndexedSkipList::with_seed(7);
/// for (i, text) in ["abc", "fgh", "ijk"].iter().enumerate() {
///     list.insert(i, B(text));
/// }
/// assert_eq!(list.total_weight(), 9);
/// assert_eq!(list.locate(5).map(|l| l.block), Some(1));
/// ```
#[derive(Debug)]
pub struct IndexedSkipList<T> {
    nodes: Vec<Node<T>>,
    /// The link arena: every node's tower, each a contiguous run.
    links: Vec<Link>,
    /// Freed node slots, reused by the next insert.
    free: Vec<usize>,
    /// Freed towers by height (`free_towers[h]` holds offsets of runs of
    /// `h` links), reused by the next node of the same height.
    free_towers: Vec<Vec<u32>>,
    len_blocks: usize,
    total_weight: usize,
    /// Number of levels currently in use (head tower height), at least 1.
    level: usize,
    rng: SplitMix64,
}

/// Per-level result of a position walk: `update[i]` is the node where the
/// walk descended at level `i`, `ranks[i]` that node's cumulative
/// (blocks, weight) rank. Fixed arrays, so walks never allocate; only the
/// first `level` entries are meaningful.
struct Walk {
    update: [usize; MAX_LEVEL],
    ranks: [(usize, usize); MAX_LEVEL],
}

impl<T: Weighted> Default for IndexedSkipList<T> {
    fn default() -> Self {
        IndexedSkipList::new()
    }
}

impl<T: Weighted> IndexedSkipList<T> {
    /// Creates an empty list with a fixed default seed (deterministic).
    pub fn new() -> IndexedSkipList<T> {
        IndexedSkipList::with_seed(0x5eed_feed_cafe_f00d)
    }

    /// Creates an empty list whose tower heights are drawn from the given
    /// seed, making the structure fully reproducible.
    pub fn with_seed(seed: u64) -> IndexedSkipList<T> {
        let head = Node { value: None, links_at: 0, height: 1 };
        IndexedSkipList {
            nodes: vec![head],
            links: vec![NIL_LINK; MAX_LEVEL],
            free: Vec::new(),
            free_towers: Vec::new(),
            len_blocks: 0,
            total_weight: 0,
            level: 1,
            rng: SplitMix64(seed),
        }
    }

    /// Draws a tower height with geometric distribution (p = 1/2).
    fn random_level(&mut self) -> usize {
        level_of(self.rng.next())
    }

    /// Node `x`'s forward link at level `i`.
    #[inline]
    fn link(&self, x: usize, i: usize) -> Link {
        let node = &self.nodes[x];
        debug_assert!(i < usize::from(node.height), "level {i} out of range");
        self.links[node.links_at as usize + i]
    }

    /// Mutable access to node `x`'s forward link at level `i`.
    #[inline]
    fn link_mut(&mut self, x: usize, i: usize) -> &mut Link {
        let node = &self.nodes[x];
        debug_assert!(i < usize::from(node.height), "level {i} out of range");
        &mut self.links[node.links_at as usize + i]
    }

    /// Raises the list to `lvl` levels; the head's new links get `fill`.
    fn grow_levels(&mut self, lvl: usize, fill: Link) {
        if lvl > self.level {
            self.links[self.level..lvl].fill(fill);
            self.level = lvl;
            self.nodes[0].height = lvl as u8;
        }
    }

    /// Walks to the node of block-rank `rank` (head has rank 0), recording
    /// for every level the node where the walk descended and that node's
    /// cumulative (blocks, weight) rank.
    fn walk_to_rank(&self, rank: usize) -> Walk {
        let mut walk = Walk { update: [0; MAX_LEVEL], ranks: [(0, 0); MAX_LEVEL] };
        let mut x = 0usize;
        let mut remaining = rank;
        let mut acc_blocks = 0usize;
        let mut acc_weight = 0usize;
        for i in (0..self.level).rev() {
            loop {
                let link = self.link(x, i);
                if link.target == NIL || link.span_blocks as usize > remaining {
                    break;
                }
                remaining -= link.span_blocks as usize;
                acc_blocks += link.span_blocks as usize;
                acc_weight += link.span_weight as usize;
                x = link.target as usize;
            }
            walk.update[i] = x;
            walk.ranks[i] = (acc_blocks, acc_weight);
        }
        debug_assert_eq!(remaining, 0, "rank walk must land exactly");
        walk
    }

    /// Allocates a node with a tower of `levels` NIL links, reusing a freed
    /// slot and a freed tower of the same height when there is one.
    fn alloc(&mut self, value: T, levels: usize) -> usize {
        let links_at = match self.free_towers.get_mut(levels).and_then(Vec::pop) {
            Some(at) => {
                let start = at as usize;
                self.links[start..start + levels].fill(NIL_LINK);
                at
            }
            None => {
                let at = self.links.len();
                self.links.resize(at + levels, NIL_LINK);
                u32::try_from(at).expect("link arena exceeds u32 range")
            }
        };
        let node = Node { value: Some(value), links_at, height: levels as u8 };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            assert!(self.nodes.len() < NIL as usize, "node arena exceeds u32 range");
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Returns node `x`'s slot and tower to the free lists.
    fn release(&mut self, x: usize) {
        let height = usize::from(self.nodes[x].height);
        if self.free_towers.len() <= height {
            self.free_towers.resize_with(height + 1, Vec::new);
        }
        self.free_towers[height].push(self.nodes[x].links_at);
        self.nodes[x].height = 0;
        self.free.push(x);
    }

    /// Sums `(span_blocks, span_weight)` along the forward chain of each
    /// level, from the head to NIL. For a consistent list every level's
    /// totals equal `(len_blocks, total_weight)` — the links at level `i`
    /// partition the sequence, whatever subset of nodes reaches level `i`.
    /// Intended for tests; O(n · level).
    #[doc(hidden)]
    pub fn level_span_totals(&self) -> Vec<(usize, usize)> {
        (0..self.level)
            .map(|i| {
                let mut x = 0usize;
                let (mut blocks, mut weight) = (0usize, 0usize);
                loop {
                    let link = self.link(x, i);
                    blocks += link.span_blocks as usize;
                    weight += link.span_weight as usize;
                    if link.target == NIL {
                        break;
                    }
                    x = link.target as usize;
                }
                (blocks, weight)
            })
            .collect()
    }

    /// Verifies every structural invariant (span consistency at all
    /// levels, length/weight accounting). Intended for tests; O(n · level).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        // Collect level-0 order and per-node (rank, weight-rank).
        let mut order = Vec::new();
        let mut x = 0usize;
        let mut rank_of = std::collections::HashMap::new();
        rank_of.insert(0usize, (0usize, 0usize));
        let mut blocks = 0usize;
        let mut weight = 0usize;
        assert_eq!(usize::from(self.nodes[0].height), self.level, "head height is the level");
        loop {
            let link = self.link(x, 0);
            assert_eq!(
                link.span_blocks as usize,
                if link.target == NIL { self.len_blocks - blocks } else { 1 }
            );
            if link.target == NIL {
                assert_eq!(link.span_weight as usize, self.total_weight - weight);
                break;
            }
            x = link.target as usize;
            let w = self.nodes[x].value.as_ref().expect("live node has a value").weight();
            assert_eq!(
                link.span_weight as usize,
                w,
                "level-0 span must equal destination weight"
            );
            blocks += 1;
            weight += w;
            rank_of.insert(x, (blocks, weight));
            order.push(x);
        }
        assert_eq!(blocks, self.len_blocks, "block count must match");
        assert_eq!(weight, self.total_weight, "weight must match");
        // Every level must chain through increasing ranks with exact spans.
        for i in 0..self.level {
            let mut x = 0usize;
            loop {
                assert!(
                    i < usize::from(self.nodes[x].height),
                    "node on chain missing level {i}"
                );
                let link = self.link(x, i);
                let (rb, rw) = rank_of[&x];
                if link.target == NIL {
                    assert_eq!(link.span_blocks as usize, self.len_blocks - rb);
                    assert_eq!(link.span_weight as usize, self.total_weight - rw);
                    break;
                }
                let (tb, tw) = rank_of[&(link.target as usize)];
                assert_eq!(link.span_blocks as usize, tb - rb, "span_blocks at level {i}");
                assert_eq!(link.span_weight as usize, tw - rw, "span_weight at level {i}");
                x = link.target as usize;
            }
        }
    }
}

/// Tower height for one PRNG draw: geometric with p = 1/2.
fn level_of(bits: u64) -> usize {
    ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

impl<T: Weighted> BlockSeq<T> for IndexedSkipList<T> {
    fn len_blocks(&self) -> usize {
        self.len_blocks
    }

    fn total_weight(&self) -> usize {
        self.total_weight
    }

    fn get(&self, ordinal: usize) -> Option<&T> {
        if ordinal >= self.len_blocks {
            return None;
        }
        let walk = self.walk_to_rank(ordinal);
        let target = self.link(walk.update[0], 0).target as usize;
        self.nodes[target].value.as_ref()
    }

    fn insert(&mut self, ordinal: usize, value: T) {
        assert!(ordinal <= self.len_blocks, "insert ordinal {ordinal} out of range");
        let w = value.weight();
        assert!(w > 0, "blocks must have positive weight");
        let lvl = self.random_level();
        // New levels span the whole list.
        self.grow_levels(
            lvl,
            Link {
                target: NIL,
                span_blocks: span(self.len_blocks),
                span_weight: span(self.total_weight),
            },
        );
        let Walk { update, ranks } = self.walk_to_rank(ordinal);
        let wk = ranks[0].1; // weight of blocks before the insertion point
        let new_idx = self.alloc(value, lvl);
        for i in 0..lvl {
            let u = update[i];
            let old = self.link(u, i);
            let nb = span(ordinal + 1 - ranks[i].0);
            let nw = span(wk + w - ranks[i].1);
            *self.link_mut(new_idx, i) = Link {
                target: old.target,
                span_blocks: old.span_blocks - (nb - 1),
                span_weight: old.span_weight - (nw - span(w)),
            };
            *self.link_mut(u, i) =
                Link { target: target(new_idx), span_blocks: nb, span_weight: nw };
        }
        for (i, &u) in update.iter().enumerate().take(self.level).skip(lvl) {
            let link = self.link_mut(u, i);
            link.span_blocks += 1;
            link.span_weight += span(w);
        }
        self.len_blocks += 1;
        self.total_weight += w;
    }

    /// Bulk append: one walk to the end seeds per-level tail pointers,
    /// then every item links in without a position search. Tail links —
    /// the per-level links that run past the end of the list — carry
    /// placeholder spans during the loop and are patched in one pass at
    /// the end, so each item costs `O(its own tower height)` instead of
    /// `O(list height)`. The node and link arenas are reserved once up
    /// front for the iterator's upper size bound (a clone of the height
    /// PRNG counts the links that many items need), so the build
    /// allocates a constant number of times however many items and tall
    /// towers it holds. Draws tower heights in the same order as
    /// sequential end-inserts, so the resulting structure is identical.
    fn extend_back<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = T>,
        Self: Sized,
    {
        let items = items.into_iter();
        let expected = match items.size_hint() {
            (_, Some(0)) => return,
            (lower, upper) => upper.unwrap_or(lower),
        };
        let mut heights = self.rng.clone();
        let tower_links: usize = (0..expected).map(|_| level_of(heights.next())).sum();
        self.nodes.reserve(expected.saturating_sub(self.free.len()));
        self.links.reserve(tower_links);
        let Walk { mut update, mut ranks } = self.walk_to_rank(self.len_blocks);
        for value in items {
            let w = value.weight();
            assert!(w > 0, "blocks must have positive weight");
            let lvl = self.random_level();
            // New head levels keep the walk's zeroed entries (the head at
            // rank 0); the final fixup below rewrites their spans.
            self.grow_levels(lvl, NIL_LINK);
            let ordinal = self.len_blocks;
            let wk = self.total_weight;
            let new_idx = self.alloc(value, lvl);
            for i in 0..lvl {
                let u = update[i];
                debug_assert_eq!(self.link(u, i).target, NIL, "tail links point past the end");
                *self.link_mut(u, i) = Link {
                    target: target(new_idx),
                    span_blocks: span(ordinal + 1 - ranks[i].0),
                    span_weight: span(wk + w - ranks[i].1),
                };
                update[i] = new_idx;
                ranks[i] = (ordinal + 1, wk + w);
            }
            self.len_blocks += 1;
            self.total_weight += w;
        }
        // Patch every tail link: it spans from its node to the (new) end.
        for i in 0..self.level {
            *self.link_mut(update[i], i) = Link {
                target: NIL,
                span_blocks: span(self.len_blocks - ranks[i].0),
                span_weight: span(self.total_weight - ranks[i].1),
            };
        }
    }

    fn remove(&mut self, ordinal: usize) -> T {
        assert!(ordinal < self.len_blocks, "remove ordinal {ordinal} out of range");
        let Walk { update, .. } = self.walk_to_rank(ordinal);
        let target = self.link(update[0], 0).target as usize;
        let w = self.nodes[target].value.as_ref().expect("live node").weight();
        let target_levels = usize::from(self.nodes[target].height);
        for (i, &u) in update.iter().enumerate().take(self.level) {
            if i < target_levels && self.link(u, i).target as usize == target {
                let t_link = self.link(target, i);
                let u_link = self.link_mut(u, i);
                u_link.target = t_link.target;
                u_link.span_blocks += t_link.span_blocks;
                u_link.span_weight += t_link.span_weight;
                u_link.span_blocks -= 1;
                u_link.span_weight -= span(w);
            } else {
                let u_link = self.link_mut(u, i);
                u_link.span_blocks -= 1;
                u_link.span_weight -= span(w);
            }
        }
        // Shrink unused levels (keep at least one).
        while self.level > 1 && self.link(0, self.level - 1).target == NIL {
            self.level -= 1;
            self.nodes[0].height -= 1;
        }
        self.len_blocks -= 1;
        self.total_weight -= w;
        let value = self.nodes[target].value.take().expect("live node");
        self.release(target);
        value
    }

    fn replace(&mut self, ordinal: usize, value: T) -> T {
        assert!(ordinal < self.len_blocks, "replace ordinal {ordinal} out of range");
        let new_w = value.weight();
        assert!(new_w > 0, "blocks must have positive weight");
        let Walk { update, .. } = self.walk_to_rank(ordinal);
        let target = self.link(update[0], 0).target as usize;
        let old_w = self.nodes[target].value.as_ref().expect("live node").weight();
        if new_w != old_w {
            // Exactly one link per level covers the target block; it is the
            // link leaving update[i].
            for (i, &u) in update.iter().enumerate().take(self.level) {
                let u_link = self.link_mut(u, i);
                u_link.span_weight = u_link.span_weight + span(new_w) - span(old_w);
            }
            self.total_weight = self.total_weight + new_w - old_w;
        }
        self.nodes[target].value.replace(value).expect("live node")
    }

    fn locate(&self, char_index: usize) -> Option<Location> {
        if char_index >= self.total_weight {
            return None;
        }
        // Algorithm 1 of the paper, with weights as the skip counts.
        let mut x = 0usize;
        let mut remaining = char_index;
        let mut acc_blocks = 0usize;
        for i in (0..self.level).rev() {
            loop {
                let link = self.link(x, i);
                if link.target == NIL || link.span_weight as usize > remaining {
                    break;
                }
                remaining -= link.span_weight as usize;
                acc_blocks += link.span_blocks as usize;
                x = link.target as usize;
            }
        }
        Some(Location { block: acc_blocks, offset: remaining })
    }

    fn weight_before(&self, ordinal: usize) -> usize {
        assert!(ordinal <= self.len_blocks, "ordinal {ordinal} out of range");
        self.walk_to_rank(ordinal).ranks[0].1
    }

    type Iter<'a>
        = SkipListIter<'a, T>
    where
        T: 'a;

    fn iter_from(&self, ordinal: usize) -> SkipListIter<'_, T> {
        let cursor = if ordinal >= self.len_blocks {
            NIL
        } else {
            self.link(self.walk_to_rank(ordinal).update[0], 0).target
        };
        SkipListIter { list: self, cursor }
    }
}

/// In-order iterator over an [`IndexedSkipList`]'s blocks (see
/// [`BlockSeq::iter_from`]): follows the level-0 links.
#[derive(Debug)]
pub struct SkipListIter<'a, T> {
    list: &'a IndexedSkipList<T>,
    cursor: u32,
}

impl<'a, T: Weighted> Iterator for SkipListIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cursor as usize];
        self.cursor = self.list.links[node.links_at as usize].target;
        node.value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecModel;

    #[derive(Debug, Clone, PartialEq)]
    struct B(String);

    impl Weighted for B {
        fn weight(&self) -> usize {
            self.0.len()
        }
    }

    fn b(s: &str) -> B {
        B(s.to_string())
    }

    fn contents(list: &IndexedSkipList<B>) -> String {
        list.iter().map(|blk| blk.0.as_str()).collect()
    }

    #[test]
    fn empty_list() {
        let list: IndexedSkipList<B> = IndexedSkipList::new();
        assert_eq!(list.len_blocks(), 0);
        assert_eq!(list.total_weight(), 0);
        assert!(list.is_empty());
        assert_eq!(list.locate(0), None);
        assert_eq!(list.get(0), None);
        list.assert_invariants();
    }

    #[test]
    fn paper_figure3_insertion() {
        // Figure 3: insert "xy" at index 3 of "abcfghijk" (blocks abc, fgh, ijk).
        let mut list = IndexedSkipList::with_seed(11);
        list.insert(0, b("abc"));
        list.insert(1, b("fgh"));
        list.insert(2, b("ijk"));
        let loc = list.locate(3).unwrap();
        assert_eq!(loc, Location { block: 1, offset: 0 });
        list.insert(loc.block, b("xy"));
        assert_eq!(contents(&list), "abcxyfghijk");
        list.assert_invariants();
    }

    #[test]
    fn sequential_appends() {
        let mut list = IndexedSkipList::with_seed(1);
        for i in 0..100 {
            list.insert(i, b(&format!("{i:03}")));
            list.assert_invariants();
        }
        assert_eq!(list.len_blocks(), 100);
        assert_eq!(list.total_weight(), 300);
        for i in 0..100 {
            assert_eq!(list.get(i).unwrap().0, format!("{i:03}"));
        }
    }

    #[test]
    fn front_inserts_reverse_order() {
        let mut list = IndexedSkipList::with_seed(2);
        for i in 0..50 {
            list.insert(0, b(&format!("{i}")));
        }
        let texts: Vec<_> = list.iter().map(|blk| blk.0.clone()).collect();
        let expect: Vec<_> = (0..50).rev().map(|i| format!("{i}")).collect();
        assert_eq!(texts, expect);
        list.assert_invariants();
    }

    #[test]
    fn locate_every_char() {
        let mut list = IndexedSkipList::with_seed(3);
        let words = ["a", "bc", "def", "ghij", "klmno"];
        for (i, word) in words.iter().enumerate() {
            list.insert(i, b(word));
        }
        let flat: String = words.concat();
        for (c, expected_char) in flat.chars().enumerate() {
            let loc = list.locate(c).unwrap();
            let block = list.get(loc.block).unwrap();
            assert_eq!(block.0.as_bytes()[loc.offset] as char, expected_char);
        }
        assert_eq!(list.locate(flat.len()), None);
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut list = IndexedSkipList::with_seed(4);
        for (i, word) in ["aa", "bb", "cc", "dd", "ee"].iter().enumerate() {
            list.insert(i, b(word));
        }
        assert_eq!(list.remove(2).0, "cc");
        list.assert_invariants();
        assert_eq!(list.remove(0).0, "aa");
        list.assert_invariants();
        assert_eq!(list.remove(list.len_blocks() - 1).0, "ee");
        list.assert_invariants();
        assert_eq!(contents(&list), "bbdd");
        assert_eq!(list.total_weight(), 4);
    }

    #[test]
    fn replace_changes_weight() {
        let mut list = IndexedSkipList::with_seed(5);
        for (i, word) in ["aa", "bb", "cc"].iter().enumerate() {
            list.insert(i, b(word));
        }
        let old = list.replace(1, b("XYZW"));
        assert_eq!(old.0, "bb");
        assert_eq!(list.total_weight(), 8);
        assert_eq!(list.locate(5).unwrap(), Location { block: 1, offset: 3 });
        assert_eq!(list.locate(6).unwrap(), Location { block: 2, offset: 0 });
        list.assert_invariants();
    }

    #[test]
    fn weight_before_matches_prefix_sums() {
        let mut list = IndexedSkipList::with_seed(6);
        let words = ["q", "we", "rty", "uiop"];
        for (i, word) in words.iter().enumerate() {
            list.insert(i, b(word));
        }
        let mut acc = 0;
        for (i, word) in words.iter().enumerate() {
            assert_eq!(list.weight_before(i), acc);
            acc += word.len();
        }
        assert_eq!(list.weight_before(words.len()), acc);
    }

    #[test]
    fn iter_from_offsets() {
        let mut list = IndexedSkipList::with_seed(7);
        for (i, word) in ["ab", "cd", "ef"].iter().enumerate() {
            list.insert(i, b(word));
        }
        let tail: String = list.iter_from(1).map(|blk| blk.0.clone()).collect();
        assert_eq!(tail, "cdef");
        assert_eq!(list.iter_from(3).count(), 0);
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut list = IndexedSkipList::with_seed(8);
        for round in 0..10 {
            for i in 0..20 {
                list.insert(i, b(&format!("r{round}i{i}")));
            }
            for _ in 0..20 {
                list.remove(0);
            }
        }
        assert!(list.is_empty());
        // The arena should not have grown linearly with total insertions.
        assert!(list.nodes.len() <= 22, "arena grew to {}", list.nodes.len());
        // Nor should the link arena: freed towers are reused by height.
        let live_links = MAX_LEVEL + 20 * 4;
        assert!(list.links.len() <= live_links, "link arena grew to {}", list.links.len());
    }

    /// Every level's chain of `(span_blocks, span_weight)` from the head.
    fn level_chains(list: &IndexedSkipList<B>) -> Vec<Vec<(u32, u32)>> {
        (0..list.level)
            .map(|i| {
                let mut chain = Vec::new();
                let mut x = 0;
                loop {
                    let link = list.link(x, i);
                    chain.push((link.span_blocks, link.span_weight));
                    if link.target == NIL {
                        break chain;
                    }
                    x = link.target as usize;
                }
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_past_end_panics() {
        let mut list = IndexedSkipList::new();
        list.insert(1, b("x"));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_block_panics() {
        let mut list = IndexedSkipList::new();
        list.insert(0, b(""));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_from_empty_panics() {
        let mut list: IndexedSkipList<B> = IndexedSkipList::new();
        list.remove(0);
    }

    #[test]
    fn extend_back_matches_sequential_inserts() {
        // Same seed → same tower heights → structurally identical lists.
        let words: Vec<B> = (0..500).map(|i| b(&format!("{:03}", i % 300))).collect();
        let mut bulk = IndexedSkipList::with_seed(77);
        bulk.extend_back(words.clone());
        let mut serial = IndexedSkipList::with_seed(77);
        for (i, word) in words.iter().cloned().enumerate() {
            serial.insert(i, word);
        }
        bulk.assert_invariants();
        assert_eq!(contents(&bulk), contents(&serial));
        assert_eq!(level_chains(&bulk), level_chains(&serial), "every span must match");
        assert_eq!(bulk.len_blocks(), 500);
        // Appending to a non-empty list continues the same structure.
        let mut grown = IndexedSkipList::with_seed(77);
        grown.extend_back(words[..100].to_vec());
        grown.extend_back(words[100..].to_vec());
        grown.assert_invariants();
        assert_eq!(contents(&grown), contents(&serial));
        assert_eq!(level_chains(&grown), level_chains(&serial));
    }

    #[test]
    fn extend_back_empty_is_noop() {
        let mut list: IndexedSkipList<B> = IndexedSkipList::with_seed(1);
        list.extend_back(Vec::new());
        assert!(list.is_empty());
        list.insert(0, b("x"));
        list.extend_back(Vec::new());
        assert_eq!(list.len_blocks(), 1);
        list.assert_invariants();
    }

    /// Randomized cross-check against the Vec reference model.
    #[test]
    fn randomized_against_model() {
        let mut rng = SplitMix64(0xfeed);
        for seed in 0..8u64 {
            let mut list = IndexedSkipList::with_seed(seed);
            let mut model: VecModel<B> = VecModel::new();
            for step in 0..400 {
                let r = rng.next();
                let n = model.len_blocks();
                match r % 4 {
                    0 | 1 => {
                        let pos = if n == 0 { 0 } else { (r >> 8) as usize % (n + 1) };
                        let len = 1 + ((r >> 40) as usize % 8);
                        let text: String =
                            (0..len).map(|k| (b'a' + ((r >> k) % 26) as u8) as char).collect();
                        list.insert(pos, b(&text));
                        model.insert(pos, b(&text));
                    }
                    2 if n > 0 => {
                        let pos = (r >> 8) as usize % n;
                        assert_eq!(list.remove(pos), model.remove(pos));
                    }
                    3 if n > 0 => {
                        let pos = (r >> 8) as usize % n;
                        let len = 1 + ((r >> 40) as usize % 8);
                        let text: String =
                            (0..len).map(|k| (b'z' - ((r >> k) % 26) as u8) as char).collect();
                        assert_eq!(list.replace(pos, b(&text)), model.replace(pos, b(&text)));
                    }
                    _ => {}
                }
                assert_eq!(list.len_blocks(), model.len_blocks());
                assert_eq!(list.total_weight(), model.total_weight());
                if step % 20 == 0 {
                    list.assert_invariants();
                    let w = model.total_weight();
                    for probe in [0, w / 3, w / 2, w.saturating_sub(1)] {
                        assert_eq!(list.locate(probe), model.locate(probe), "locate {probe}");
                    }
                    for ord in 0..model.len_blocks() {
                        assert_eq!(list.get(ord), model.get(ord));
                    }
                }
            }
            list.assert_invariants();
        }
    }
}
