//! The `Connect` procedure (Algorithm 2 of the paper).
//!
//! Given the set `N` of candidate neighbors of a vertex `v` (each reachable
//! through an edge that exists with a known probability), `Connect` scans the
//! candidates in increasing order of edge weight (ties broken towards smaller
//! identifiers) and samples each edge in turn: the first edge whose sample
//! succeeds is the connection, every edge sampled *before* it is now known not
//! to exist and belongs to `N⁻`, the prefix of the sorted candidates that
//! [`connect`] leaves before the position it returns.
//!
//! The crucial property exploited by the paper is that the outcome of the
//! sampling is *deducible by the other endpoint* from the broadcast `v` makes
//! afterwards, so the negative samples never need to be communicated
//! explicitly.

use rand::Rng;

/// A candidate edge considered by [`connect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The neighboring vertex this edge leads to.
    pub neighbor: usize,
    /// Index of the edge in the working graph.
    pub edge: usize,
    /// Weight of the edge (used for the sort order).
    pub weight: f64,
    /// Probability that the edge still exists.
    pub probability: f64,
}

/// The sort order used by `Connect`: ascending weight, ties broken by the
/// smaller neighbor identifier first.
pub fn candidate_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.weight
        .partial_cmp(&b.weight)
        .expect("edge weights are finite")
        .then(a.neighbor.cmp(&b.neighbor))
}

/// Runs `Connect(N, p)` for one vertex using its private randomness.
///
/// Sorts `candidates` in place into the scan order of [`candidate_order`]
/// (stably, so parallel edges keep their given order) and samples them in
/// turn. Returns the position of the first candidate whose sample succeeds,
/// or `None` (the paper's `⊥`) if every sample failed or the set was empty.
/// The candidates before that position — all of them on `None` — form
/// `N⁻`: their edges are now known not to exist.
pub fn connect(candidates: &mut [Candidate], rng: &mut impl Rng) -> Option<usize> {
    candidates.sort_by(candidate_order);
    candidates
        .iter()
        .position(|candidate| rng.gen::<f64>() <= candidate.probability)
}

/// The deduction rule the *other* endpoint applies after hearing `v`'s
/// broadcast (the three bullet points repeated in steps 2, 3.1, 3.2, 4 of the
/// paper). `my_weight`/`my_id` describe the edge between the listener `u` and
/// the broadcaster, `accepted` is what the broadcaster announced.
///
/// Returns what the listener learns about its own edge to the broadcaster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFate {
    /// The broadcaster connected through this very edge: it is in the spanner
    /// (`F⁺`).
    InSpanner,
    /// The broadcaster's scan passed over this edge and its sample failed: the
    /// edge does not exist (`F⁻`).
    Deleted,
    /// The broadcaster accepted an edge that precedes this one in the scan
    /// order, so this edge was never sampled; nothing is learned.
    Undecided,
}

/// Applies the implicit-communication deduction rule.
pub fn deduce_fate(my_id: usize, my_weight: f64, accepted: Option<(usize, f64)>) -> EdgeFate {
    match accepted {
        None => EdgeFate::Deleted,
        Some((accepted_id, accepted_weight)) => {
            if accepted_id == my_id {
                EdgeFate::InSpanner
            } else if accepted_weight > my_weight
                || (accepted_weight == my_weight && accepted_id > my_id)
            {
                // The broadcaster scanned me before the accepted edge, so my
                // sample must have failed.
                EdgeFate::Deleted
            } else {
                EdgeFate::Undecided
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cand(neighbor: usize, weight: f64, probability: f64) -> Candidate {
        Candidate {
            neighbor,
            edge: neighbor,
            weight,
            probability,
        }
    }

    #[test]
    fn certain_edges_accept_the_lightest() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut candidates = [cand(5, 3.0, 1.0), cand(2, 1.0, 1.0), cand(9, 2.0, 1.0)];
        let accepted = connect(&mut candidates, &mut rng);
        // Nothing is rejected: the accepted candidate leads the scan.
        assert_eq!(accepted, Some(0));
        assert_eq!(candidates[0].neighbor, 2);
    }

    #[test]
    fn ties_break_towards_smaller_id() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut candidates = [cand(7, 1.0, 1.0), cand(3, 1.0, 1.0)];
        let accepted = connect(&mut candidates, &mut rng).unwrap();
        assert_eq!(candidates[accepted].neighbor, 3);
    }

    #[test]
    fn empty_candidate_set_returns_bot() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(connect(&mut [], &mut rng), None);
    }

    #[test]
    fn zero_probability_edges_are_all_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut candidates = [cand(2, 2.0, 0.0), cand(1, 1.0, 0.0)];
        assert_eq!(connect(&mut candidates, &mut rng), None);
        // Every candidate is rejected, in scan order.
        assert_eq!(candidates[0].neighbor, 1);
        assert_eq!(candidates[1].neighbor, 2);
    }

    #[test]
    fn rejected_prefix_precedes_accepted_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // First candidate never exists, second always does.
        let mut candidates = [cand(2, 2.0, 1.0), cand(1, 1.0, 0.0)];
        let accepted = connect(&mut candidates, &mut rng).unwrap();
        assert_eq!(accepted, 1);
        assert_eq!(candidates[accepted].neighbor, 2);
        assert!(candidate_order(&candidates[0], &candidates[accepted]).is_lt());
    }

    #[test]
    fn parallel_edges_keep_their_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let edge = |edge: usize, probability: f64| Candidate {
            neighbor: 4,
            edge,
            weight: 1.0,
            probability,
        };
        let mut candidates = [edge(9, 0.0), edge(3, 1.0), edge(6, 1.0)];
        assert_eq!(connect(&mut candidates, &mut rng), Some(1));
        assert_eq!(candidates.map(|c| c.edge), [9, 3, 6]);
    }

    #[test]
    fn acceptance_rate_tracks_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let trials = 4000;
        let accepted = (0..trials)
            .filter(|_| connect(&mut [cand(1, 1.0, 0.25)], &mut rng).is_some())
            .count();
        let rate = accepted as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn deduction_rules_match_the_paper() {
        // Broadcast named me.
        assert_eq!(deduce_fate(4, 2.0, Some((4, 2.0))), EdgeFate::InSpanner);
        // Broadcast was ⊥.
        assert_eq!(deduce_fate(4, 2.0, None), EdgeFate::Deleted);
        // Accepted edge is heavier: my edge was scanned first and failed.
        assert_eq!(deduce_fate(4, 2.0, Some((9, 3.0))), EdgeFate::Deleted);
        // Equal weight, accepted id larger: my edge was scanned first.
        assert_eq!(deduce_fate(4, 2.0, Some((9, 2.0))), EdgeFate::Deleted);
        // Accepted edge is lighter: my edge was never sampled.
        assert_eq!(deduce_fate(4, 2.0, Some((1, 1.0))), EdgeFate::Undecided);
        // Equal weight, accepted id smaller: never sampled.
        assert_eq!(deduce_fate(4, 2.0, Some((1, 2.0))), EdgeFate::Undecided);
    }
}
