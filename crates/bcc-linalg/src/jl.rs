//! Johnson–Lindenstrauss sketches from few shared random bits.
//!
//! Approximating leverage scores (Algorithm 6 / Lemma 4.5) requires a random
//! map `Q ∈ R^{k×m}` with `(1−η)‖x‖₂ ≤ ‖Qx‖₂ ≤ (1+η)‖x‖₂`. The usual
//! Achlioptas construction flips an independent coin per entry — infeasible
//! in the Broadcast Congested Clique because the entry for edge `e` would be
//! sampled by one endpoint and could not be communicated to the other. The
//! paper instead invokes Kane–Nelson \[KN14\]: `O(log(1/δ) log m)` random bits
//! suffice, and those few bits can be sampled by a leader and broadcast.
//!
//! This module implements that pattern: a [`JlSketch`] is generated
//! *deterministically* from a small shared seed (the broadcast bits), so every
//! vertex expands the identical matrix locally — dense Rademacher entries
//! `±1/√k`, drawn column by column and stored row by row.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A `k × m` Johnson–Lindenstrauss sketch expanded from a shared seed.
#[derive(Debug, Clone)]
pub struct JlSketch {
    k: usize,
    m: usize,
    /// Row-major entries: row `j` is `entries[j·m..(j + 1)·m]`.
    entries: Vec<f64>,
}

impl JlSketch {
    /// Number of rows `k` (the sketch dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of columns `m` (the ambient dimension).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The sketch dimension `k = Θ(log(m)/η²)` required for distortion `η`
    /// with failure probability `1/poly(m)` (Theorem 4.4).
    ///
    /// The leading constant is a laboratory value: the asymptotics are what
    /// the experiments verify.
    pub fn dimension_for(m: usize, eta: f64) -> usize {
        assert!(eta > 0.0 && eta < 1.0, "eta must lie in (0, 1)");
        let m = m.max(2) as f64;
        ((4.0 * m.ln()) / (eta * eta)).ceil() as usize
    }

    /// Number of shared random bits the construction consumes,
    /// `Θ(log²(m))` as in Algorithm 6.
    pub fn shared_bits_needed(m: usize) -> u64 {
        let lg = (m.max(2) as f64).log2().ceil() as u64;
        lg * lg
    }

    /// Expands a sketch from a shared seed: one sign per entry, drawn
    /// column by column. All vertices calling this with the same arguments
    /// obtain the same matrix.
    pub fn from_shared_seed(k: usize, m: usize, shared_seed: u64) -> Self {
        assert!(k >= 1 && m >= 1);
        let mut rng = ChaCha8Rng::seed_from_u64(shared_seed ^ 0x4A4C_5F53_4B45_5443);
        let scale = 1.0 / (k as f64).sqrt();
        let mut entries = vec![0.0; k * m];
        for col in 0..m {
            for row in 0..k {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                entries[row * m + col] = sign * scale;
            }
        }
        JlSketch { k, m, entries }
    }

    /// Row `j` of the sketch (`e_jᵀ Q`), used when sketching matrices row by
    /// row.
    pub fn row(&self, j: usize) -> &[f64] {
        assert!(j < self.k);
        &self.entries[j * self.m..(j + 1) * self.m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// `Q x`, one row at a time.
    fn apply(sketch: &JlSketch, x: &[f64]) -> Vec<f64> {
        (0..sketch.k())
            .map(|j| vector::dot(sketch.row(j), x))
            .collect()
    }

    #[test]
    fn entries_are_the_column_by_column_draws() {
        let (k, m, seed) = (5, 7, 13);
        let sketch = JlSketch::from_shared_seed(k, m, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4A4C_5F53_4B45_5443);
        let scale = 1.0 / (k as f64).sqrt();
        for col in 0..m {
            for row in 0..k {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                assert_eq!(sketch.row(row)[col].to_bits(), (sign * scale).to_bits());
            }
        }
        assert_eq!(sketch.row(k - 1).len(), m);
    }

    #[test]
    fn same_seed_gives_same_sketch() {
        let a = JlSketch::from_shared_seed(8, 32, 7);
        let b = JlSketch::from_shared_seed(8, 32, 7);
        let c = JlSketch::from_shared_seed(8, 32, 8);
        let x: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        assert_eq!(apply(&a, &x), apply(&b, &x));
        assert_ne!(apply(&a, &x), apply(&c, &x));
    }

    #[test]
    fn sketch_preserves_norms_approximately() {
        let m = 200;
        let eta = 0.5;
        let k = JlSketch::dimension_for(m, eta);
        let sketch = JlSketch::from_shared_seed(k, m, 11);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut within = 0;
        let trials = 20;
        for _ in 0..trials {
            let x: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() - 0.5).collect();
            let original = vector::norm2(&x);
            let sketched = vector::norm2(&apply(&sketch, &x));
            if sketched >= (1.0 - eta) * original && sketched <= (1.0 + eta) * original {
                within += 1;
            }
        }
        assert!(
            within >= trials - 1,
            "only {within}/{trials} norms preserved"
        );
    }

    #[test]
    fn dimension_and_bits_scale_logarithmically() {
        assert!(JlSketch::dimension_for(1 << 10, 0.5) < JlSketch::dimension_for(1 << 20, 0.5));
        assert!(JlSketch::dimension_for(1 << 10, 0.5) < JlSketch::dimension_for(1 << 10, 0.1));
        assert_eq!(JlSketch::shared_bits_needed(1024), 100);
    }
}
