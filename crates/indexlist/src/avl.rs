//! IndexedAvlTree: the deterministic balanced-tree alternative to the
//! IndexedSkipList suggested in §V-C of the paper ("the idea of indexing
//! could also be applied to any of the well-known balanced tree data
//! structures").
//!
//! Every node stores subtree aggregates *(block count, character weight)*
//! so the tree supports lookup by block ordinal and by character index,
//! plus rank-addressed insert/remove/replace — all in worst-case
//! `O(log n)`. Used by the ablation benchmarks to compare against the
//! probabilistic skip list.

use crate::{BlockSeq, Location, Weighted};

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<T> {
    /// `None` only for freed arena slots.
    value: Option<T>,
    left: usize,
    right: usize,
    height: i32,
    /// Number of blocks in this subtree (including this node).
    sub_blocks: usize,
    /// Total character weight of this subtree (including this node).
    sub_weight: usize,
}

/// A rank-indexed AVL tree over weighted blocks.
///
/// # Example
///
/// ```
/// use pe_indexlist::{BlockSeq, IndexedAvlTree, Weighted};
///
/// struct B(&'static str);
/// impl Weighted for B {
///     fn weight(&self) -> usize { self.0.len() }
/// }
///
/// let mut tree = IndexedAvlTree::new();
/// tree.insert(0, B("hello "));
/// tree.insert(1, B("world"));
/// assert_eq!(tree.total_weight(), 11);
/// assert_eq!(tree.locate(6).map(|l| l.block), Some(1));
/// ```
#[derive(Debug)]
pub struct IndexedAvlTree<T> {
    nodes: Vec<Node<T>>,
    free: Vec<usize>,
    root: usize,
}

impl<T: Weighted> Default for IndexedAvlTree<T> {
    fn default() -> Self {
        IndexedAvlTree::new()
    }
}

impl<T: Weighted> IndexedAvlTree<T> {
    /// Creates an empty tree.
    pub fn new() -> IndexedAvlTree<T> {
        IndexedAvlTree { nodes: Vec::new(), free: Vec::new(), root: NIL }
    }

    fn height(&self, n: usize) -> i32 {
        if n == NIL {
            0
        } else {
            self.nodes[n].height
        }
    }

    fn blocks(&self, n: usize) -> usize {
        if n == NIL {
            0
        } else {
            self.nodes[n].sub_blocks
        }
    }

    fn weight(&self, n: usize) -> usize {
        if n == NIL {
            0
        } else {
            self.nodes[n].sub_weight
        }
    }

    fn val(&self, n: usize) -> &T {
        self.nodes[n].value.as_ref().expect("live node has a value")
    }

    fn update(&mut self, n: usize) {
        let (l, r) = (self.nodes[n].left, self.nodes[n].right);
        self.nodes[n].height = 1 + self.height(l).max(self.height(r));
        self.nodes[n].sub_blocks = 1 + self.blocks(l) + self.blocks(r);
        self.nodes[n].sub_weight = self.val(n).weight() + self.weight(l) + self.weight(r);
    }

    fn balance_factor(&self, n: usize) -> i32 {
        self.height(self.nodes[n].left) - self.height(self.nodes[n].right)
    }

    fn rotate_right(&mut self, y: usize) -> usize {
        let x = self.nodes[y].left;
        let t2 = self.nodes[x].right;
        self.nodes[x].right = y;
        self.nodes[y].left = t2;
        self.update(y);
        self.update(x);
        x
    }

    fn rotate_left(&mut self, x: usize) -> usize {
        let y = self.nodes[x].right;
        let t2 = self.nodes[y].left;
        self.nodes[y].left = x;
        self.nodes[x].right = t2;
        self.update(x);
        self.update(y);
        y
    }

    fn rebalance(&mut self, n: usize) -> usize {
        self.update(n);
        let bf = self.balance_factor(n);
        if bf > 1 {
            if self.balance_factor(self.nodes[n].left) < 0 {
                let new_left = self.rotate_left(self.nodes[n].left);
                self.nodes[n].left = new_left;
            }
            self.rotate_right(n)
        } else if bf < -1 {
            if self.balance_factor(self.nodes[n].right) > 0 {
                let new_right = self.rotate_right(self.nodes[n].right);
                self.nodes[n].right = new_right;
            }
            self.rotate_left(n)
        } else {
            n
        }
    }

    fn alloc(&mut self, value: T) -> usize {
        let node = Node {
            value: Some(value),
            left: NIL,
            right: NIL,
            height: 1,
            sub_blocks: 1,
            sub_weight: 0, // set by update()
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.update(idx);
        idx
    }

    fn insert_at(&mut self, n: usize, rank: usize, value: T) -> usize {
        if n == NIL {
            debug_assert_eq!(rank, 0);
            return self.alloc(value);
        }
        let left_count = self.blocks(self.nodes[n].left);
        if rank <= left_count {
            let new_left = self.insert_at(self.nodes[n].left, rank, value);
            self.nodes[n].left = new_left;
        } else {
            let new_right =
                self.insert_at(self.nodes[n].right, rank - left_count - 1, value);
            self.nodes[n].right = new_right;
        }
        self.rebalance(n)
    }

    /// Removes the leftmost node of subtree `n`; returns (new subtree root,
    /// detached node index).
    fn take_min(&mut self, n: usize) -> (usize, usize) {
        if self.nodes[n].left == NIL {
            let detached = n;
            let right = self.nodes[n].right;
            return (right, detached);
        }
        let (new_left, detached) = self.take_min(self.nodes[n].left);
        self.nodes[n].left = new_left;
        (self.rebalance(n), detached)
    }

    fn remove_at(&mut self, n: usize, rank: usize) -> (usize, usize) {
        debug_assert_ne!(n, NIL);
        let left_count = self.blocks(self.nodes[n].left);
        if rank < left_count {
            let (new_left, removed) = self.remove_at(self.nodes[n].left, rank);
            self.nodes[n].left = new_left;
            (self.rebalance(n), removed)
        } else if rank > left_count {
            let (new_right, removed) =
                self.remove_at(self.nodes[n].right, rank - left_count - 1);
            self.nodes[n].right = new_right;
            (self.rebalance(n), removed)
        } else {
            // Remove this node.
            let (left, right) = (self.nodes[n].left, self.nodes[n].right);
            if right == NIL {
                (left, n)
            } else {
                let (new_right, successor) = self.take_min(right);
                self.nodes[successor].left = left;
                self.nodes[successor].right = new_right;
                (self.rebalance(successor), n)
            }
        }
    }

    /// Verifies AVL balance and aggregate invariants. Test helper.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        fn check<T: Weighted>(tree: &IndexedAvlTree<T>, n: usize) -> (i32, usize, usize) {
            if n == NIL {
                return (0, 0, 0);
            }
            let node = &tree.nodes[n];
            let (lh, lb, lw) = check(tree, node.left);
            let (rh, rb, rw) = check(tree, node.right);
            assert!((lh - rh).abs() <= 1, "AVL balance violated");
            let h = 1 + lh.max(rh);
            assert_eq!(node.height, h, "height aggregate wrong");
            assert_eq!(node.sub_blocks, 1 + lb + rb, "block aggregate wrong");
            let own = node.value.as_ref().expect("live node").weight();
            assert_eq!(node.sub_weight, own + lw + rw, "weight aggregate wrong");
            (h, node.sub_blocks, node.sub_weight)
        }
        check(self, self.root);
    }
}

impl<T: Weighted> BlockSeq<T> for IndexedAvlTree<T> {
    fn len_blocks(&self) -> usize {
        self.blocks(self.root)
    }

    fn total_weight(&self) -> usize {
        self.weight(self.root)
    }

    fn get(&self, ordinal: usize) -> Option<&T> {
        if ordinal >= self.len_blocks() {
            return None;
        }
        let mut n = self.root;
        let mut rank = ordinal;
        loop {
            let left_count = self.blocks(self.nodes[n].left);
            if rank < left_count {
                n = self.nodes[n].left;
            } else if rank > left_count {
                rank -= left_count + 1;
                n = self.nodes[n].right;
            } else {
                return Some(self.val(n));
            }
        }
    }

    fn insert(&mut self, ordinal: usize, value: T) {
        assert!(ordinal <= self.len_blocks(), "insert ordinal {ordinal} out of range");
        assert!(value.weight() > 0, "blocks must have positive weight");
        self.root = self.insert_at(self.root, ordinal, value);
    }

    fn remove(&mut self, ordinal: usize) -> T {
        assert!(ordinal < self.len_blocks(), "remove ordinal {ordinal} out of range");
        let (new_root, removed) = self.remove_at(self.root, ordinal);
        self.root = new_root;
        let value = self.nodes[removed].value.take().expect("live node");
        self.free.push(removed);
        value
    }

    fn replace(&mut self, ordinal: usize, value: T) -> T {
        assert!(ordinal < self.len_blocks(), "replace ordinal {ordinal} out of range");
        assert!(value.weight() > 0, "blocks must have positive weight");
        // Descend recording the path so aggregates can be fixed afterwards.
        let mut path = Vec::new();
        let mut n = self.root;
        let mut rank = ordinal;
        loop {
            path.push(n);
            let left_count = self.blocks(self.nodes[n].left);
            if rank < left_count {
                n = self.nodes[n].left;
            } else if rank > left_count {
                rank -= left_count + 1;
                n = self.nodes[n].right;
            } else {
                break;
            }
        }
        let old = self.nodes[n].value.replace(value).expect("live node");
        for &p in path.iter().rev() {
            self.update(p);
        }
        old
    }

    fn locate(&self, char_index: usize) -> Option<Location> {
        if char_index >= self.total_weight() {
            return None;
        }
        let mut n = self.root;
        let mut c = char_index;
        let mut acc_blocks = 0;
        loop {
            let left = self.nodes[n].left;
            let lw = self.weight(left);
            if c < lw {
                n = left;
            } else {
                let own = self.val(n).weight();
                if c < lw + own {
                    return Some(Location {
                        block: acc_blocks + self.blocks(left),
                        offset: c - lw,
                    });
                }
                c -= lw + own;
                acc_blocks += self.blocks(left) + 1;
                n = self.nodes[n].right;
            }
        }
    }

    fn weight_before(&self, ordinal: usize) -> usize {
        assert!(ordinal <= self.len_blocks(), "ordinal {ordinal} out of range");
        let mut n = self.root;
        let mut rank = ordinal;
        let mut acc = 0;
        while n != NIL {
            let left = self.nodes[n].left;
            let left_count = self.blocks(left);
            if rank < left_count {
                n = left;
            } else if rank > left_count {
                acc += self.weight(left) + self.val(n).weight();
                rank -= left_count + 1;
                n = self.nodes[n].right;
            } else {
                return acc + self.weight(left);
            }
        }
        acc
    }

    type Iter<'a>
        = AvlIter<'a, T>
    where
        T: 'a;

    fn iter_from(&self, ordinal: usize) -> AvlIter<'_, T> {
        // Build the initial stack for an in-order traversal starting at
        // `ordinal`.
        let mut stack = Vec::new();
        let mut n = self.root;
        let mut rank = ordinal.min(self.len_blocks());
        if ordinal >= self.len_blocks() {
            return AvlIter { tree: self, stack: Vec::new() };
        }
        while n != NIL {
            let left_count = self.blocks(self.nodes[n].left);
            if rank < left_count {
                stack.push(n);
                n = self.nodes[n].left;
            } else if rank > left_count {
                rank -= left_count + 1;
                n = self.nodes[n].right;
            } else {
                stack.push(n);
                break;
            }
        }
        AvlIter { tree: self, stack }
    }
}

/// In-order iterator over an [`IndexedAvlTree`]'s blocks (see
/// [`BlockSeq::iter_from`]).
#[derive(Debug)]
pub struct AvlIter<'a, T> {
    tree: &'a IndexedAvlTree<T>,
    /// Stack of nodes whose value is still to be yielded (the classic
    /// in-order iterator stack).
    stack: Vec<usize>,
}

impl<'a, T: Weighted> Iterator for AvlIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let n = self.stack.pop()?;
        // After yielding n, push the leftmost spine of its right child.
        let mut child = self.tree.nodes[n].right;
        while child != NIL {
            self.stack.push(child);
            child = self.tree.nodes[child].left;
        }
        self.tree.nodes[n].value.as_ref()
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

    fn contents(tree: &IndexedAvlTree<B>) -> String {
        tree.iter().map(|blk| blk.0.as_str()).collect()
    }

    #[test]
    fn empty_tree() {
        let tree: IndexedAvlTree<B> = IndexedAvlTree::new();
        assert_eq!(tree.len_blocks(), 0);
        assert_eq!(tree.total_weight(), 0);
        assert!(tree.is_empty());
        assert_eq!(tree.locate(0), None);
        assert_eq!(tree.get(0), None);
        tree.assert_invariants();
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut tree = IndexedAvlTree::new();
        for i in 0..1000 {
            tree.insert(i, b("x"));
        }
        tree.assert_invariants();
        // A balanced tree over 1000 nodes has height <= 1.44*log2(1001)+1 ~ 15.
        assert!(tree.height(tree.root) <= 15, "height {}", tree.height(tree.root));
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let mut tree = IndexedAvlTree::new();
        for _ in 0..1000 {
            tree.insert(0, b("x"));
        }
        tree.assert_invariants();
        assert!(tree.height(tree.root) <= 15);
    }

    #[test]
    fn in_order_iteration() {
        let mut tree = IndexedAvlTree::new();
        for (i, word) in ["ab", "cd", "ef", "gh"].iter().enumerate() {
            tree.insert(i, b(word));
        }
        assert_eq!(contents(&tree), "abcdefgh");
        let tail: String = tree.iter_from(2).map(|blk| blk.0.clone()).collect();
        assert_eq!(tail, "efgh");
        assert_eq!(tree.iter_from(4).count(), 0);
    }

    #[test]
    fn locate_and_weight_before() {
        let mut tree = IndexedAvlTree::new();
        let words = ["a", "bc", "def", "ghij"];
        for (i, word) in words.iter().enumerate() {
            tree.insert(i, b(word));
        }
        let flat: String = words.concat();
        for (c, expected) in flat.chars().enumerate() {
            let loc = tree.locate(c).unwrap();
            assert_eq!(tree.get(loc.block).unwrap().0.as_bytes()[loc.offset] as char, expected);
        }
        assert_eq!(tree.locate(flat.len()), None);
        let mut acc = 0;
        for (i, word) in words.iter().enumerate() {
            assert_eq!(tree.weight_before(i), acc);
            acc += word.len();
        }
        assert_eq!(tree.weight_before(words.len()), acc);
    }

    #[test]
    fn remove_every_position() {
        for victim in 0..7 {
            let mut tree = IndexedAvlTree::new();
            for (i, word) in ["q", "w", "e", "r", "t", "y", "u"].iter().enumerate() {
                tree.insert(i, b(word));
            }
            let removed = tree.remove(victim);
            let expect = ["q", "w", "e", "r", "t", "y", "u"][victim];
            assert_eq!(removed.0, expect);
            tree.assert_invariants();
            assert_eq!(tree.len_blocks(), 6);
        }
    }

    #[test]
    fn replace_adjusts_aggregates() {
        let mut tree = IndexedAvlTree::new();
        for (i, word) in ["aa", "bb", "cc"].iter().enumerate() {
            tree.insert(i, b(word));
        }
        assert_eq!(tree.replace(1, b("WXYZ")).0, "bb");
        assert_eq!(tree.total_weight(), 8);
        assert_eq!(tree.locate(5).unwrap(), Location { block: 1, offset: 3 });
        tree.assert_invariants();
    }

    #[test]
    fn arena_recycles_slots() {
        let mut tree = IndexedAvlTree::new();
        for round in 0..10 {
            for i in 0..20 {
                tree.insert(i, b(&format!("r{round}i{i}")));
            }
            for _ in 0..20 {
                tree.remove(0);
            }
        }
        assert!(tree.is_empty());
        assert!(tree.nodes.len() <= 21, "arena grew to {}", tree.nodes.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_past_end_panics() {
        let mut tree = IndexedAvlTree::new();
        tree.insert(1, b("x"));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_panics() {
        let mut tree = IndexedAvlTree::new();
        tree.insert(0, b(""));
    }

    /// Randomized cross-check against the Vec reference model, mirroring
    /// the skip-list test so both structures face identical scrutiny.
    #[test]
    fn randomized_against_model() {
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut tree = IndexedAvlTree::new();
        let mut model: VecModel<B> = VecModel::new();
        for step in 0..1500 {
            let r = next();
            let n = model.len_blocks();
            match r % 4 {
                0 | 1 => {
                    let pos = if n == 0 { 0 } else { (r >> 8) as usize % (n + 1) };
                    let len = 1 + ((r >> 30) as usize % 8);
                    let text: String =
                        (0..len).map(|k| (b'a' + ((r >> k) % 26) as u8) as char).collect();
                    tree.insert(pos, b(&text));
                    model.insert(pos, b(&text));
                }
                2 if n > 0 => {
                    let pos = (r >> 8) as usize % n;
                    assert_eq!(tree.remove(pos), model.remove(pos));
                }
                3 if n > 0 => {
                    let pos = (r >> 8) as usize % n;
                    let len = 1 + ((r >> 30) as usize % 8);
                    let text: String =
                        (0..len).map(|k| (b'z' - ((r >> k) % 26) as u8) as char).collect();
                    assert_eq!(tree.replace(pos, b(&text)), model.replace(pos, b(&text)));
                }
                _ => {}
            }
            assert_eq!(tree.len_blocks(), model.len_blocks());
            assert_eq!(tree.total_weight(), model.total_weight());
            if step % 25 == 0 {
                tree.assert_invariants();
                let w = model.total_weight();
                for probe in [0, w / 3, w / 2, w.saturating_sub(1)] {
                    assert_eq!(tree.locate(probe), model.locate(probe));
                }
                for ord in 0..model.len_blocks() {
                    assert_eq!(tree.get(ord), model.get(ord));
                    assert_eq!(tree.weight_before(ord), model.weight_before(ord));
                }
            }
        }
        tree.assert_invariants();
    }
}
