//! The pre-fast-path `IndexedSkipList`, vendored for the crypto
//! throughput baseline.
//!
//! The shipping list in `pe-indexlist` has since moved every tower into
//! one shared link arena and grown a bulk `extend_back` append, both of
//! which make full-document builds cheaper. The `crypto_throughput` baseline must
//! replay the *pre-PR* cost, so this module keeps the original layout
//! exactly: every node owns a heap-allocated `Vec<Link>` tower, and every
//! insert re-walks from the head, allocating fresh `update`/`ranks`
//! vectors. Only the operations the baseline exercises (`insert` at the
//! tail, `get` by ordinal, the counters) are retained.
//!
//! Nothing outside the benchmark may use this; it exists so the committed
//! `BENCH_crypto.json` compares against the genuine old data structure
//! rather than a retroactively improved one.

use pe_indexlist::Weighted;

/// Maximum tower height; 2^32 blocks is far beyond any document size.
const MAX_LEVEL: usize = 32;

/// Sentinel index representing the NIL pointer at the end of every level.
const NIL: usize = usize::MAX;

/// A forward pointer: target plus the skip counts in blocks and
/// characters.
#[derive(Debug, Clone, Copy)]
struct Link {
    target: usize,
    span_blocks: usize,
    span_weight: usize,
}

/// The original node layout: a heap-allocated `Vec<Link>` tower per node.
#[derive(Debug)]
struct Node<T> {
    value: Option<T>,
    forward: Vec<Link>,
}

/// SplitMix64, identical to the list's embedded PRNG.
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

/// The pre-PR order-statistic skip list, trimmed to the baseline's
/// operation set.
#[derive(Debug)]
pub struct PreprSkipList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<usize>,
    len_blocks: usize,
    total_weight: usize,
    level: usize,
    rng: SplitMix64,
}

impl<T: Weighted> PreprSkipList<T> {
    /// Creates an empty list with the list's historical default seed.
    pub fn new() -> PreprSkipList<T> {
        let head = Node {
            value: None,
            forward: vec![Link { target: NIL, span_blocks: 0, span_weight: 0 }],
        };
        PreprSkipList {
            nodes: vec![head],
            free: Vec::new(),
            len_blocks: 0,
            total_weight: 0,
            level: 1,
            rng: SplitMix64(0x5eed_feed_cafe_f00d),
        }
    }

    /// Number of blocks stored.
    pub fn len_blocks(&self) -> usize {
        self.len_blocks
    }

    /// Total characters across all blocks.
    pub fn total_weight(&self) -> usize {
        self.total_weight
    }

    /// Draws a tower height with geometric distribution (p = 1/2).
    fn random_level(&mut self) -> usize {
        let bits = self.rng.next();
        ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    /// Walks to block-rank `rank`, allocating the `update`/`ranks` vectors
    /// on every call — exactly as the pre-PR list did.
    fn walk_to_rank(&self, rank: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut update = vec![0usize; self.level];
        let mut ranks = vec![(0usize, 0usize); self.level];
        let mut x = 0usize;
        let mut remaining = rank;
        let mut acc_blocks = 0usize;
        let mut acc_weight = 0usize;
        for i in (0..self.level).rev() {
            loop {
                let link = self.nodes[x].forward[i];
                if link.target == NIL || link.span_blocks > remaining {
                    break;
                }
                remaining -= link.span_blocks;
                acc_blocks += link.span_blocks;
                acc_weight += link.span_weight;
                x = link.target;
            }
            update[i] = x;
            ranks[i] = (acc_blocks, acc_weight);
        }
        debug_assert_eq!(remaining, 0, "rank walk must land exactly");
        (update, ranks)
    }

    /// Allocates a node in the arena with a fresh `Vec` tower.
    fn alloc(&mut self, value: T, levels: usize) -> usize {
        let node = Node { value: Some(value), forward: Vec::with_capacity(levels) };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Returns the block at `ordinal` via the pre-PR per-call rank walk.
    pub fn get(&self, ordinal: usize) -> Option<&T> {
        if ordinal >= self.len_blocks {
            return None;
        }
        let (update, _) = self.walk_to_rank(ordinal);
        let target = self.nodes[update[0]].forward[0].target;
        self.nodes[target].value.as_ref()
    }

    /// Inserts `value` before `ordinal`, re-walking from the head exactly
    /// as the pre-PR list did on every call.
    pub fn insert(&mut self, ordinal: usize, value: T) {
        assert!(ordinal <= self.len_blocks, "insert ordinal {ordinal} out of range");
        let w = value.weight();
        assert!(w > 0, "blocks must have positive weight");
        let lvl = self.random_level();
        if lvl > self.level {
            // Grow the head tower; new levels span the whole list.
            for _ in self.level..lvl {
                self.nodes[0].forward.push(Link {
                    target: NIL,
                    span_blocks: self.len_blocks,
                    span_weight: self.total_weight,
                });
            }
            self.level = lvl;
        }
        let (update, ranks) = self.walk_to_rank(ordinal);
        let wk = ranks[0].1;
        let new_idx = self.alloc(value, lvl);
        for i in 0..lvl {
            let u = update[i];
            let old = self.nodes[u].forward[i];
            let nb = ordinal + 1 - ranks[i].0;
            let nw = wk + w - ranks[i].1;
            let out_link = Link {
                target: old.target,
                span_blocks: old.span_blocks - (nb - 1),
                span_weight: old.span_weight - (nw - w),
            };
            self.nodes[new_idx].forward.push(out_link);
            self.nodes[u].forward[i] =
                Link { target: new_idx, span_blocks: nb, span_weight: nw };
        }
        for (i, &u) in update.iter().enumerate().skip(lvl) {
            self.nodes[u].forward[i].span_blocks += 1;
            self.nodes[u].forward[i].span_weight += w;
        }
        self.len_blocks += 1;
        self.total_weight += w;
    }
}

impl<T: Weighted> Default for PreprSkipList<T> {
    fn default() -> Self {
        PreprSkipList::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_indexlist::{BlockSeq, IndexedSkipList};

    struct W(usize);

    impl Weighted for W {
        fn weight(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn matches_shipping_list_on_sequential_appends() {
        let mut old = PreprSkipList::new();
        let mut new = IndexedSkipList::new();
        for i in 0..200 {
            let w = 1 + (i * 7) % 8;
            old.insert(i, W(w));
            new.insert(i, W(w));
        }
        assert_eq!(old.len_blocks(), new.len_blocks());
        assert_eq!(old.total_weight(), new.total_weight());
        for i in 0..200 {
            assert_eq!(old.get(i).unwrap().0, new.get(i).unwrap().0);
        }
        assert!(old.get(200).is_none());
    }
}
