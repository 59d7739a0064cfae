//! Walker–Vose alias method for O(1) sampling from a fixed discrete
//! distribution.
//!
//! Used by the weighted RIS sampler (WRIS, §7.3.1 of the paper): TVM picks
//! the RR-set root proportional to per-node relevance weights, and an alias
//! table makes each pick constant-time regardless of `n`.

use rand::Rng;

use crate::GraphError;

/// Precomputed alias table over indices `0..len`.
///
/// Construction is `O(len)`; [`AliasTable::sample`] is `O(1)`.
///
/// ```
/// use sns_graph::AliasTable;
/// use rand::SeedableRng;
///
/// let t = AliasTable::new(&[1.0, 0.0, 3.0]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut counts = [0u32; 3];
/// for _ in 0..10_000 {
///     counts[t.sample(&mut rng)] += 1;
/// }
/// assert_eq!(counts[1], 0);            // zero-weight index never drawn
/// assert!(counts[2] > counts[0]);      // 3:1 ratio
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Probability of keeping the column's own index, scaled to [0,1].
    prob: Vec<f64>,
    /// Fallback index when the coin flip rejects the column index.
    alias: Vec<u32>,
    /// Total input weight, kept for consumers that need the normalizer
    /// (e.g. TVM's Γ = Σ b(v)).
    total: f64,
}

impl AliasTable {
    /// Builds the table from non-negative weights.
    ///
    /// Returns [`GraphError::ZeroTotalWeight`] if the slice is empty or
    /// sums to zero, [`GraphError::InvalidWeight`] if any weight is
    /// negative or non-finite, and [`GraphError::NonFiniteTotalWeight`]
    /// if the finite weights sum to `+inf`.
    pub fn new(weights: &[f64]) -> Result<Self, GraphError> {
        let n = weights.len();
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight {
                    from: i as u32,
                    to: i as u32,
                    weight: w as f32,
                });
            }
            total += w;
        }
        if n == 0 || total <= 0.0 {
            return Err(GraphError::ZeroTotalWeight);
        }
        if !total.is_finite() {
            return Err(GraphError::NonFiniteTotalWeight);
        }

        let scale = n as f64 / total;
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Columns with scaled weight < 1 ("small") get topped up by the
        // excess of "large" columns.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residual columns are exactly 1 up to float error.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Ok(AliasTable { prob, alias, total })
    }

    /// Draws an index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // One uniform in [0, n): integer part picks the column, fractional
        // part is the coin flip. Saves a second RNG call.
        let u: f64 = rng.gen::<f64>() * self.prob.len() as f64;
        let col = (u as usize).min(self.prob.len() - 1);
        let frac = u - col as f64;
        if frac < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }

    /// Number of categories.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a successfully built
    /// table, provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Sum of the input weights (the distribution's normalizer).
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// FNV-1a checksum over the table's exact contents (`prob` f64 bits,
    /// `alias` entries, total-weight bits). Construction is a pure
    /// deterministic function of the input weights, so two tables built
    /// from the same weight vector always agree and any content change —
    /// even one that preserves the total — changes the checksum. Used by
    /// the pool-store fingerprint to refuse serving a persisted pool
    /// under a different weight vector.
    pub fn content_checksum(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        for &p in &self.prob {
            h.write_u64(p.to_bits());
        }
        for &a in &self.alias {
            h.write_u64(u64::from(a));
        }
        h.write_u64(self.total.to_bits());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(AliasTable::new(&[]), Err(GraphError::ZeroTotalWeight)));
        assert!(matches!(AliasTable::new(&[0.0, 0.0]), Err(GraphError::ZeroTotalWeight)));
        assert!(matches!(AliasTable::new(&[1.0, -0.5]), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(AliasTable::new(&[f64::NAN]), Err(GraphError::InvalidWeight { .. })));
        // finite weights whose sum overflows: Γ = inf would make every
        // column, zero-weight ones included, equally likely
        assert!(matches!(
            AliasTable::new(&[f64::MAX, f64::MAX, 0.0, 0.0]),
            Err(GraphError::NonFiniteTotalWeight)
        ));
    }

    #[test]
    fn single_category_always_drawn() {
        let t = AliasTable::new(&[42.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!((t.total_weight() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let draws = 400_000usize;
        let mut counts = [0u64; 4];
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for i in 0..4 {
            let expected = weights[i] / total;
            let observed = counts[i] as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.005,
                "category {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn uniform_weights_behave_uniformly() {
        let t = AliasTable::new(&[1.0; 10]).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 100_000.0;
            assert!((p - 0.1).abs() < 0.01);
        }
    }

    #[test]
    fn extreme_skew_still_samples_tail() {
        let mut w = vec![1e-9; 100];
        w[0] = 1e9;
        let t = AliasTable::new(&w).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut zero = 0;
        for _ in 0..1000 {
            if t.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        assert!(zero >= 999); // overwhelming mass at index 0
    }
}
