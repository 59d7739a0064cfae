//! The benchmark's quality yardstick: an independent reverse-reachable
//! (RR) set estimator for IC and LT.
//!
//! It walks the graph with its own code and its own random stream
//! ([`crate::rng::Rng`]), never through the library's `RrSampler`, so a
//! sampler change cannot move the yardstick it is judged by. A pool of
//! `m` sets estimates `I(S) = n · Cov(S) / m`.

use std::collections::BinaryHeap;

use sns_diffusion::Model;
use sns_graph::{Graph, NodeId};

use crate::rng::Rng;

pub struct RefPool {
    n: u32,
    sets: usize,
    /// node → ids of the sets containing it (CSR).
    index_offsets: Vec<u32>,
    index: Vec<u32>,
}

impl RefPool {
    /// Samples `sets` RR sets under `model` from the stream `(seed, stream)`.
    pub fn sample(graph: &Graph, model: Model, sets: usize, seed: u64, stream: u64) -> Self {
        let n = graph.num_nodes();
        let mut rng = Rng::new(seed, stream);
        let mut mark = vec![u32::MAX; n as usize];
        let mut queue: Vec<NodeId> = Vec::new();
        let mut members: Vec<(NodeId, u32)> = Vec::new();
        for id in 0..sets as u32 {
            let root = rng.below(u64::from(n)) as NodeId;
            mark[root as usize] = id;
            queue.clear();
            queue.push(root);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                match model {
                    Model::IndependentCascade => {
                        for (&u, &w) in graph.in_neighbors(v).iter().zip(graph.in_weights(v)) {
                            if mark[u as usize] != id && (rng.unit() as f32) < w {
                                mark[u as usize] = id;
                                queue.push(u);
                            }
                        }
                    }
                    Model::LinearThreshold => {
                        // Pick in-neighbour u with probability w(u, v);
                        // with the remaining mass the walk stops.
                        let mut r = rng.unit() as f32;
                        let next = graph.in_neighbors(v).iter().zip(graph.in_weights(v)).find(
                            |&(_, &w)| {
                                r -= w;
                                r < 0.0
                            },
                        );
                        if let Some((&u, _)) = next {
                            if mark[u as usize] != id {
                                mark[u as usize] = id;
                                queue.push(u);
                            }
                        }
                    }
                }
            }
            members.extend(queue.iter().map(|&v| (v, id)));
        }
        members.sort_unstable();
        let mut index_offsets = vec![0u32; n as usize + 1];
        for &(v, _) in &members {
            index_offsets[v as usize + 1] += 1;
        }
        for v in 0..n as usize {
            index_offsets[v + 1] += index_offsets[v];
        }
        let index = members.into_iter().map(|(_, id)| id).collect();
        RefPool { n, sets, index_offsets, index }
    }

    fn sets_of(&self, v: NodeId) -> &[u32] {
        &self.index
            [self.index_offsets[v as usize] as usize..self.index_offsets[v as usize + 1] as usize]
    }

    /// Estimated expected spread `n · Cov(S) / m`.
    pub fn influence(&self, seeds: &[NodeId]) -> f64 {
        let mut covered = vec![false; self.sets];
        let mut count = 0u64;
        for &s in seeds {
            for &id in self.sets_of(s) {
                if !std::mem::replace(&mut covered[id as usize], true) {
                    count += 1;
                }
            }
        }
        f64::from(self.n) * count as f64 / self.sets as f64
    }

    /// Lazy-greedy maximum coverage: `k` seeds maximising `Cov(S)`.
    pub fn greedy(&self, k: usize) -> Vec<NodeId> {
        let mut covered = vec![false; self.sets];
        let mut heap: BinaryHeap<(u32, std::cmp::Reverse<NodeId>, usize)> =
            (0..self.n).map(|v| (self.sets_of(v).len() as u32, std::cmp::Reverse(v), 0)).collect();
        let mut seeds = Vec::with_capacity(k);
        while seeds.len() < k {
            let Some((_, std::cmp::Reverse(v), round)) = heap.pop() else { break };
            if round == seeds.len() {
                for &id in self.sets_of(v) {
                    covered[id as usize] = true;
                }
                seeds.push(v);
            } else {
                let gain = self.sets_of(v).iter().filter(|&&id| !covered[id as usize]).count();
                heap.push((gain as u32, std::cmp::Reverse(v), seeds.len()));
            }
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_graph::{GraphBuilder, WeightModel};

    fn star(leaves: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for v in 1..=leaves {
            b.add_edge(0, v, 1.0);
        }
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn hub_reaches_everyone_under_both_models() {
        let g = star(9);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let pool = RefPool::sample(&g, model, 2000, 1, 1);
            assert_eq!(pool.greedy(1), vec![0]);
            assert!((pool.influence(&[0]) - 10.0).abs() < 1e-9);
            assert!((pool.influence(&[1]) - 1.0).abs() < 0.3);
        }
    }
}
