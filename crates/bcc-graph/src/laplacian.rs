//! Laplacian and incidence-matrix operators.
//!
//! The Laplacian of a weighted graph `G` is `L = Bᵀ W B` where `B` is the
//! edge–vertex incidence matrix and `W` the diagonal weight matrix
//! (Section 2.2 of the paper). This module exposes the Laplacian as a
//! *matrix-free operator* — `apply`, `quadratic_form`, `triplets` — because
//! that is how the distributed algorithms use it: a vertex only ever needs
//! the rows corresponding to its incident edges.

use crate::graph::Graph;

/// Applies the Laplacian of `g` to a vector: `(L x)_u = Σ_v w(u,v)(x_u − x_v)`.
///
/// # Panics
///
/// Panics if `x.len() != g.n()`.
pub fn laplacian_apply(g: &Graph, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; g.n()];
    laplacian_apply_into(g, x, &mut y);
    y
}

/// Allocation-free variant of [`laplacian_apply`]: writes `L x` into `out`.
/// Bit-identical to the allocating form (same edge-accumulation order). The
/// one-lane instance of [`laplacian_apply_lanes_into`].
///
/// # Panics
///
/// Panics if `x.len() != g.n()` or `out.len() != g.n()`.
pub fn laplacian_apply_into(g: &Graph, x: &[f64], out: &mut [f64]) {
    laplacian_apply_lanes_into::<1>(g, x, out);
}

/// [`laplacian_apply_into`] on `L` vectors at once, stored as one
/// interleaved block: entry `i` of lane `j` sits at `i·L + j` in both `x` and
/// `out`. Each edge updates all lanes before the next edge, so every lane of
/// `out` is bit-identical to `laplacian_apply_into` on that lane alone. The
/// width is a compile-time constant, so each vertex's lanes are a
/// fixed-size array the compiler unrolls.
///
/// # Panics
///
/// Panics if `x` or `out` do not hold `g.n() · L` entries.
pub fn laplacian_apply_lanes_into<const L: usize>(g: &Graph, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), g.n() * L, "dimension mismatch");
    assert_eq!(out.len(), g.n() * L, "dimension mismatch");
    let ((x, _), (out, _)) = (x.as_chunks::<L>(), out.as_chunks_mut::<L>());
    out.fill([0.0; L]);
    for e in g.edges() {
        let (xu, xv) = (x[e.u], x[e.v]);
        let d: [f64; L] = std::array::from_fn(|j| xu[j] - xv[j]);
        for (y, d) in out[e.u].iter_mut().zip(d) {
            *y += e.weight * d;
        }
        for (y, d) in out[e.v].iter_mut().zip(d) {
            *y -= e.weight * d;
        }
    }
}

/// The Laplacian quadratic form `xᵀ L x = Σ_{(u,v)∈E} w(u,v)(x_u − x_v)²`.
pub fn quadratic_form(g: &Graph, x: &[f64]) -> f64 {
    assert_eq!(x.len(), g.n(), "dimension mismatch");
    g.edges()
        .iter()
        .map(|e| {
            let d = x[e.u] - x[e.v];
            e.weight * d * d
        })
        .sum()
}

/// The Laplacian seminorm `‖x‖_{L} = sqrt(xᵀ L x)` used in the solver error
/// guarantees of Theorem 1.3.
pub fn laplacian_norm(g: &Graph, x: &[f64]) -> f64 {
    quadratic_form(g, x).max(0.0).sqrt()
}

/// The Laplacian as COO triplets `(row, col, value)`, including the diagonal.
/// Parallel edges are merged.
pub fn laplacian_triplets(g: &Graph) -> Vec<(usize, usize, f64)> {
    let n = g.n();
    let mut diag = vec![0.0; n];
    let mut off: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for e in g.edges() {
        diag[e.u] += e.weight;
        diag[e.v] += e.weight;
        *off.entry(e.key()).or_insert(0.0) += e.weight;
    }
    let mut triplets = Vec::with_capacity(n + 2 * off.len());
    for (v, &d) in diag.iter().enumerate() {
        if d != 0.0 {
            triplets.push((v, v, d));
        }
    }
    for ((u, v), w) in off {
        triplets.push((u, v, -w));
        triplets.push((v, u, -w));
    }
    triplets
}

/// The dense Laplacian as a row-major `n × n` matrix (ground truth for small
/// instances).
pub fn laplacian_dense(g: &Graph) -> Vec<Vec<f64>> {
    let n = g.n();
    let mut m = vec![vec![0.0; n]; n];
    for (r, c, v) in laplacian_triplets(g) {
        m[r][c] += v;
    }
    m
}

/// Applies the edge–vertex incidence matrix `B ∈ R^{m×n}`: `(B x)_e =
/// x_{head(e)} − x_{tail(e)}`, with the convention `head = u`, `tail = v` for
/// an edge stored as `(u, v)`.
pub fn incidence_apply(g: &Graph, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), g.n(), "dimension mismatch");
    g.edges().iter().map(|e| x[e.u] - x[e.v]).collect()
}

/// Applies the transpose of the incidence matrix: `(Bᵀ y)_v = Σ_{e: head(e)=v}
/// y_e − Σ_{e: tail(e)=v} y_e`.
pub fn incidence_transpose_apply(g: &Graph, y: &[f64]) -> Vec<f64> {
    assert_eq!(y.len(), g.m(), "dimension mismatch");
    let mut x = vec![0.0; g.n()];
    for (i, e) in g.edges().iter().enumerate() {
        x[e.u] += y[i];
        x[e.v] -= y[i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    #[test]
    fn laplacian_of_triangle_matches_hand_computation() {
        let g = triangle();
        let dense = laplacian_dense(&g);
        let expected = [
            vec![4.0, -1.0, -3.0],
            vec![-1.0, 3.0, -2.0],
            vec![-3.0, -2.0, 5.0],
        ];
        for i in 0..3 {
            for j in 0..3 {
                assert!((dense[i][j] - expected[i][j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apply_agrees_with_dense_matrix() {
        let g = triangle();
        let x = vec![1.0, -2.0, 0.5];
        let y = laplacian_apply(&g, &x);
        let dense = laplacian_dense(&g);
        for i in 0..3 {
            let expect: f64 = (0..3).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }

    /// `L x` for one vector, edge by edge in edge order: the scalar
    /// arithmetic every lane of [`laplacian_apply_lanes_into`] must match.
    fn scalar_apply(g: &Graph, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; g.n()];
        for e in g.edges() {
            let d = x[e.u] - x[e.v];
            y[e.u] += e.weight * d;
            y[e.v] -= e.weight * d;
        }
        y
    }

    /// Every lane of the `L`-lane product against [`scalar_apply`], bit for
    /// bit, into a dirty output buffer.
    fn assert_lanes_match_scalar_apply<const L: usize>(g: &Graph) {
        let n = g.n();
        let block: Vec<f64> = (0..n * L)
            .map(|k| ((3 * (k / L) + 7 * (k % L)) as f64).sin() * 1e3)
            .collect();
        let mut out = vec![f64::NAN; n * L];
        laplacian_apply_lanes_into::<L>(g, &block, &mut out);
        for j in 0..L {
            let lane: Vec<f64> = block.iter().skip(j).step_by(L).copied().collect();
            let expected = scalar_apply(g, &lane);
            for i in 0..n {
                assert_eq!(
                    out[i * L + j].to_bits(),
                    expected[i].to_bits(),
                    "L = {L}, lane {j}, entry {i}"
                );
            }
        }
    }

    #[test]
    fn lanes_apply_is_bit_identical_to_a_scalar_edge_loop() {
        let g = Graph::from_edges(4, [(0, 1, 1.5), (1, 2, 0.1), (2, 3, 7.0), (0, 3, 1e-3)]);
        assert_lanes_match_scalar_apply::<1>(&g);
        assert_lanes_match_scalar_apply::<3>(&g);
        assert_lanes_match_scalar_apply::<10>(&g);
    }

    #[test]
    fn quadratic_form_is_consistent_with_apply() {
        let g = triangle();
        let x = vec![0.3, 1.7, -0.4];
        let lx = laplacian_apply(&g, &x);
        let xlx: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        assert!((quadratic_form(&g, &x) - xlx).abs() < 1e-12);
        assert!((laplacian_norm(&g, &x) - xlx.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_vectors_are_in_the_kernel() {
        let g = triangle();
        let ones = vec![5.0; 3];
        assert!(laplacian_apply(&g, &ones).iter().all(|&v| v.abs() < 1e-12));
        assert!(quadratic_form(&g, &ones).abs() < 1e-12);
    }

    #[test]
    fn laplacian_row_sums_are_zero() {
        let g = Graph::from_edges(4, [(0, 1, 1.5), (1, 2, 2.5), (2, 3, 0.5), (0, 3, 1.0)]);
        let dense = laplacian_dense(&g);
        for row in dense {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_edges_merge_in_triplets() {
        let g = Graph::from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)]);
        let dense = laplacian_dense(&g);
        assert!((dense[0][1] + 3.0).abs() < 1e-12);
        assert!((dense[0][0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn incidence_and_transpose_compose_to_laplacian_for_unit_weights() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]);
        let x = vec![1.0, 2.0, -1.0, 0.0];
        let bx = incidence_apply(&g, &x);
        let btbx = incidence_transpose_apply(&g, &bx);
        let lx = laplacian_apply(&g, &x);
        for (a, b) in btbx.iter().zip(&lx) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
