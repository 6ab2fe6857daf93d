//! Round accounting.
//!
//! Every communication operation performed through [`crate::Network`] charges
//! rounds to a [`RoundLedger`]. The ledger is organized into named *phases*
//! (e.g. `"sparsifier preprocessing"`, `"path following"`), so experiments can
//! report where the rounds of a composite algorithm are spent — this is the
//! quantity all theorems of the paper bound.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Statistics accumulated for one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Synchronous rounds charged to this phase.
    pub rounds: u64,
    /// Total bits written to the blackboard / sent over links in this phase,
    /// summed over vertices.
    pub bits: u64,
    /// Number of communication operations (exchanges, broadcasts, ...).
    pub operations: u64,
}

/// Per-phase round and bit accounting for a simulated execution.
///
/// # Examples
///
/// ```
/// use bcc_runtime::RoundLedger;
///
/// let mut ledger = RoundLedger::new();
/// ledger.begin_phase("spanner");
/// ledger.charge(3, 120);
/// ledger.begin_phase("sparsifier");
/// ledger.charge(2, 40);
/// assert_eq!(ledger.total_rounds(), 5);
/// assert_eq!(ledger.phase_stats("spanner").unwrap().rounds, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundLedger {
    phases: BTreeMap<String, PhaseStats>,
    order: Vec<String>,
    current: Option<String>,
    total: PhaseStats,
}

impl RoundLedger {
    /// Creates an empty ledger with an implicit unnamed phase.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Starts (or resumes) a named phase; subsequent charges accrue to it.
    pub fn begin_phase(&mut self, name: &str) {
        if self.current.as_deref() == Some(name) {
            return;
        }
        if !self.phases.contains_key(name) {
            self.phases.insert(name.to_owned(), PhaseStats::default());
            self.order.push(name.to_owned());
        }
        self.current = Some(name.to_owned());
    }

    /// Name of the phase charges currently accrue to, if any.
    pub fn current_phase(&self) -> Option<&str> {
        self.current.as_deref()
    }

    /// Charges `rounds` rounds and `bits` broadcast bits to the current phase.
    ///
    /// Allocation-free on the hot path: the current phase entry already
    /// exists after the first charge, so only the first charge to a brand-new
    /// phase name pays for the `String` insert.
    pub fn charge(&mut self, rounds: u64, bits: u64) {
        self.charge_repeated(rounds, bits, 1);
    }

    /// Charges `times` operations of `rounds` rounds and `bits` bits each to
    /// the current phase in one update. The ledger ends up exactly as after
    /// `times` calls of [`RoundLedger::charge`]; for `times = 0` it is left
    /// untouched.
    pub(crate) fn charge_repeated(&mut self, rounds: u64, bits: u64, times: u64) {
        if times == 0 {
            return;
        }
        let (rounds, bits) = (rounds * times, bits * times);
        self.total.rounds += rounds;
        self.total.bits += bits;
        self.total.operations += times;
        let name = self.current.as_deref().unwrap_or("(default)");
        if !self.phases.contains_key(name) {
            self.phases.insert(name.to_owned(), PhaseStats::default());
            self.order.push(name.to_owned());
        }
        let stats = self.phases.get_mut(name).expect("phase just inserted");
        stats.rounds += rounds;
        stats.bits += bits;
        stats.operations += times;
    }

    /// Total rounds charged across all phases.
    pub fn total_rounds(&self) -> u64 {
        self.total.rounds
    }

    /// Total bits charged across all phases.
    pub fn total_bits(&self) -> u64 {
        self.total.bits
    }

    /// Total number of communication operations.
    pub fn total_operations(&self) -> u64 {
        self.total.operations
    }

    /// Statistics of a specific phase, if it exists.
    pub fn phase_stats(&self, name: &str) -> Option<PhaseStats> {
        self.phases.get(name).copied()
    }

    /// Phase names in the order they were first started.
    pub fn phase_names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    /// Merges one externally accumulated phase into this ledger: adds
    /// `stats` to the named phase (creating it at the end of the phase order
    /// if new) and to the totals, counting `stats.operations` operations.
    ///
    /// This is the primitive batch-serving layers use to fold a snapshot
    /// report (a list of `(phase, stats)` pairs produced by a worker on its
    /// own ledger) back into a cumulative ledger without access to the
    /// worker's `RoundLedger` itself.
    pub fn charge_phase(&mut self, name: &str, stats: PhaseStats) {
        if !self.phases.contains_key(name) {
            self.phases.insert(name.to_owned(), PhaseStats::default());
            self.order.push(name.to_owned());
        }
        let mine = self.phases.get_mut(name).expect("phase just inserted");
        mine.rounds += stats.rounds;
        mine.bits += stats.bits;
        mine.operations += stats.operations;
        self.total.rounds += stats.rounds;
        self.total.bits += stats.bits;
        self.total.operations += stats.operations;
    }

    /// Merges a whole snapshot breakdown — a list of `(phase, stats)` pairs,
    /// e.g. a serialized report — into this ledger via
    /// [`RoundLedger::charge_phase`].
    ///
    /// Because phase-wise addition is commutative, folding worker reports in
    /// *submission* order through this method yields the same ledger no
    /// matter in which order the workers actually completed — the property
    /// streaming engines rely on to produce deterministic cumulative
    /// accounting from out-of-order completions.
    pub fn charge_phases<'a, I>(&mut self, phases: I)
    where
        I: IntoIterator<Item = (&'a str, PhaseStats)>,
    {
        for (name, stats) in phases {
            self.charge_phase(name, stats);
        }
    }

    /// Merges another ledger into this one (phase-wise addition). Useful when
    /// sub-algorithms run on their own [`crate::Network`] clone.
    pub fn absorb(&mut self, other: &RoundLedger) {
        for name in &other.order {
            let stats = other.phases[name];
            if !self.phases.contains_key(name) {
                self.phases.insert(name.clone(), PhaseStats::default());
                self.order.push(name.clone());
            }
            let mine = self.phases.get_mut(name).expect("phase just inserted");
            mine.rounds += stats.rounds;
            mine.bits += stats.bits;
            mine.operations += stats.operations;
        }
        self.total.rounds += other.total.rounds;
        self.total.bits += other.total.bits;
        self.total.operations += other.total.operations;
    }

    /// A multi-line human-readable report, one row per phase.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<36} {:>12} {:>16} {:>10}\n",
            "phase", "rounds", "bits", "ops"
        ));
        for name in &self.order {
            let s = self.phases[name];
            out.push_str(&format!(
                "{:<36} {:>12} {:>16} {:>10}\n",
                name, s.rounds, s.bits, s.operations
            ));
        }
        out.push_str(&format!(
            "{:<36} {:>12} {:>16} {:>10}\n",
            "TOTAL", self.total.rounds, self.total.bits, self.total.operations
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_without_phase_go_to_default() {
        let mut ledger = RoundLedger::new();
        ledger.charge(2, 10);
        assert_eq!(ledger.total_rounds(), 2);
        assert_eq!(ledger.phase_stats("(default)").unwrap().bits, 10);
    }

    #[test]
    fn phases_accumulate_independently() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("a");
        ledger.charge(1, 5);
        ledger.begin_phase("b");
        ledger.charge(2, 6);
        ledger.begin_phase("a");
        ledger.charge(3, 7);
        assert_eq!(ledger.phase_stats("a").unwrap().rounds, 4);
        assert_eq!(ledger.phase_stats("b").unwrap().rounds, 2);
        assert_eq!(ledger.total_rounds(), 6);
        assert_eq!(ledger.total_bits(), 18);
        assert_eq!(ledger.total_operations(), 3);
        let names: Vec<_> = ledger.phase_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn absorb_merges_phase_wise() {
        let mut a = RoundLedger::new();
        a.begin_phase("x");
        a.charge(1, 1);
        let mut b = RoundLedger::new();
        b.begin_phase("x");
        b.charge(2, 2);
        b.begin_phase("y");
        b.charge(3, 3);
        a.absorb(&b);
        assert_eq!(a.phase_stats("x").unwrap().rounds, 3);
        assert_eq!(a.phase_stats("y").unwrap().rounds, 3);
        assert_eq!(a.total_rounds(), 6);
    }

    #[test]
    fn charge_phase_merges_external_stats() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("solve");
        ledger.charge(2, 20);
        ledger.charge_phase(
            "solve",
            PhaseStats {
                rounds: 3,
                bits: 30,
                operations: 2,
            },
        );
        ledger.charge_phase(
            "preprocess",
            PhaseStats {
                rounds: 1,
                bits: 5,
                operations: 1,
            },
        );
        assert_eq!(ledger.phase_stats("solve").unwrap().rounds, 5);
        assert_eq!(ledger.phase_stats("solve").unwrap().operations, 3);
        assert_eq!(ledger.phase_stats("preprocess").unwrap().bits, 5);
        assert_eq!(ledger.total_rounds(), 6);
        assert_eq!(ledger.total_operations(), 4);
        let names: Vec<_> = ledger.phase_names().collect();
        assert_eq!(names, vec!["solve", "preprocess"]);
    }

    #[test]
    fn charge_phases_is_completion_order_independent() {
        let reports = [
            (
                "solve",
                PhaseStats {
                    rounds: 2,
                    bits: 20,
                    operations: 1,
                },
            ),
            (
                "preprocess",
                PhaseStats {
                    rounds: 5,
                    bits: 50,
                    operations: 2,
                },
            ),
            (
                "solve",
                PhaseStats {
                    rounds: 1,
                    bits: 10,
                    operations: 1,
                },
            ),
        ];
        let mut in_order = RoundLedger::new();
        in_order.charge_phases(reports.iter().map(|(n, s)| (*n, *s)));
        let mut reversed = RoundLedger::new();
        reversed.charge_phases(reports.iter().rev().map(|(n, s)| (*n, *s)));
        assert_eq!(in_order.total_rounds(), reversed.total_rounds());
        assert_eq!(in_order.phase_stats("solve"), reversed.phase_stats("solve"));
        assert_eq!(
            in_order.phase_stats("preprocess"),
            reversed.phase_stats("preprocess")
        );
        assert_eq!(in_order.total_operations(), 4);
    }

    #[test]
    fn report_contains_phase_rows() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("solve");
        ledger.charge(7, 70);
        let report = ledger.report();
        assert!(report.contains("solve"));
        assert!(report.contains("TOTAL"));
        assert!(report.contains('7'));
    }
}
