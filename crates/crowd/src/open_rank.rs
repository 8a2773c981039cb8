//! Order statistics over the open tasks: uniform random draws without a
//! scan of the availability vector.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::RngExt;

/// A Fenwick tree over task availability: flip and select in `O(log n)`.
#[derive(Debug, Clone)]
pub(crate) struct OpenRank {
    /// 1-based Fenwick partial sums of the availability bits.
    tree: Vec<u32>,
    /// Number of open tasks.
    open: usize,
}

impl OpenRank {
    /// The tree over `available` (catalog order), built in `O(n)`.
    pub(crate) fn new(available: &[bool]) -> Self {
        let n = available.len();
        let mut tree = vec![0u32; n + 1];
        for (i, &open) in available.iter().enumerate() {
            let node = i + 1;
            tree[node] += u32::from(open);
            let parent = node + (node & node.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[node];
            }
        }
        Self {
            tree,
            open: available.iter().filter(|&&a| a).count(),
        }
    }

    /// Number of open tasks.
    pub(crate) fn len(&self) -> usize {
        self.open
    }

    /// Record that closed task `idx` opened.
    pub(crate) fn open(&mut self, idx: usize) {
        self.open += 1;
        self.add(idx, 1);
    }

    /// Record that open task `idx` closed.
    pub(crate) fn close(&mut self, idx: usize) {
        self.open -= 1;
        self.add(idx, -1);
    }

    fn add(&mut self, idx: usize, delta: i32) {
        let mut node = idx + 1;
        while node < self.tree.len() {
            self.tree[node] = self.tree[node].wrapping_add_signed(delta);
            node += node & node.wrapping_neg();
        }
    }

    /// The open task of 0-based `rank` in ascending id order
    /// (`rank < len()`).
    fn select(&self, mut rank: usize) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0;
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n && (self.tree[next] as usize) <= rank {
                pos = next;
                rank -= self.tree[next] as usize;
            }
            step >>= 1;
        }
        pos
    }

    /// Draw `count` open tasks (at most all of them) exactly as collecting
    /// the open ids ascending and `swap_remove`-ing one `random_range` pick
    /// per draw does: the same draws, the same tasks, in the same order.
    /// Picks resolve against the availability at call time; the caller
    /// closes them afterwards.
    pub(crate) fn draw(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        // Positions of that virtual list a `swap_remove` overwrote.
        let mut moved: HashMap<usize, usize> = HashMap::new();
        let at = |moved: &HashMap<usize, usize>, pos: usize| {
            moved.get(&pos).copied().unwrap_or_else(|| self.select(pos))
        };
        let mut len = self.open;
        (0..count.min(self.open))
            .map(|_| {
                let pick = rng.random_range(0..len);
                let task = at(&moved, pick);
                len -= 1;
                let tail = at(&moved, len);
                moved.insert(pick, tail);
                task
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The draw `OpenRank::draw` replaces: collect, then `swap_remove`.
    fn draw_by_scan(available: &[bool], count: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut open: Vec<usize> = (0..available.len()).filter(|&i| available[i]).collect();
        (0..count.min(open.len()))
            .map(|_| {
                let pick = rng.random_range(0..open.len());
                open.swap_remove(pick)
            })
            .collect()
    }

    #[test]
    fn draws_match_collect_and_swap_remove() {
        let mut gen = StdRng::seed_from_u64(7);
        for case in 0..300 {
            let n = gen.random_range(0..400usize);
            let density = gen.random_range(0.0..1.0f64);
            let available: Vec<bool> = (0..n)
                .map(|_| gen.random_range(0.0..1.0) < density)
                .collect();
            let mut rank = OpenRank::new(&available);
            // Flip a few slots through the tree as the platform does.
            let mut available = available;
            for _ in 0..gen.random_range(0..20usize) {
                if n == 0 {
                    break;
                }
                let i = gen.random_range(0..n);
                if available[i] {
                    rank.close(i);
                } else {
                    rank.open(i);
                }
                available[i] = !available[i];
            }
            let open = available.iter().filter(|&&a| a).count();
            assert_eq!(rank.len(), open);
            let count = gen.random_range(0..open + 3);
            let seed = gen.random_range(0..u64::MAX);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(
                rank.draw(count, &mut a),
                draw_by_scan(&available, count, &mut b),
                "case {case}"
            );
            // Both consumed the same draws.
            assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
        }
    }

    #[test]
    fn select_walks_open_tasks_in_id_order() {
        let available = [false, true, true, false, false, true, true, true, false];
        let rank = OpenRank::new(&available);
        let got: Vec<usize> = (0..rank.len()).map(|r| rank.select(r)).collect();
        assert_eq!(got, vec![1, 2, 5, 6, 7]);
    }
}
