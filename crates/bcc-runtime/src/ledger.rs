//! Round accounting.
//!
//! Every communication operation performed through [`crate::Network`] charges
//! rounds to a [`RoundLedger`]. The ledger is organized into named *phases*
//! (e.g. `"sparsifier preprocessing"`, `"path following"`), so experiments can
//! report where the rounds of a composite algorithm are spent — this is the
//! quantity all theorems of the paper bound. The ledger is a [`RoundReport`]
//! plus the phase charges currently accrue to; a report is the one record of
//! communication cost, summed across runs with [`RoundReport::add`].

use std::fmt::{self, Display};
use std::ops::AddAssign;

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

impl AddAssign for PhaseStats {
    fn add_assign(&mut self, other: PhaseStats) {
        self.rounds += other.rounds;
        self.bits += other.bits;
        self.operations += other.operations;
    }
}

/// A compact, structured summary of the communication cost of a run: totals
/// plus a per-phase breakdown in the order the phases were first started,
/// serializable for cost telemetry (e.g. `BENCH_*.json` trajectories) and
/// renderable as a human-readable table through its [`Display`] impl.
///
/// # Examples
///
/// ```
/// use bcc_runtime::{RoundLedger, RoundReport};
///
/// let mut ledger = RoundLedger::new();
/// ledger.begin_phase("solve");
/// ledger.charge(7, 70);
/// let mut total = RoundReport::default();
/// total.add(ledger.report());
/// total.add(ledger.report());
/// assert_eq!(total.total_rounds, 14);
/// assert_eq!(total.phase("solve").unwrap().bits, 140);
/// assert!(total.to_string().contains("TOTAL"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Total rounds charged.
    pub total_rounds: u64,
    /// Total bits written to the blackboard / links.
    pub total_bits: u64,
    /// Total number of communication operations.
    pub total_operations: u64,
    /// Per-phase statistics in the order the phases were first started.
    pub breakdown: Vec<(String, PhaseStats)>,
}

impl RoundReport {
    /// Statistics of a named phase, if that phase was started.
    pub fn phase(&self, name: &str) -> Option<PhaseStats> {
        self.breakdown
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, stats)| *stats)
    }

    /// Returns `true` if the run started a phase with this name.
    pub fn has_phase(&self, name: &str) -> bool {
        self.phase(name).is_some()
    }

    /// Names of the started phases in breakdown order.
    pub fn phase_names(&self) -> impl Iterator<Item = &str> {
        self.breakdown.iter().map(|(name, _)| name.as_str())
    }

    /// Adds another report phase by phase: each of its phases is added to
    /// the phase of the same name, new names join the end of the breakdown
    /// in `other`'s order, and the totals add up.
    ///
    /// Phase-wise addition is commutative, so folding reports in
    /// *submission* order yields the same totals and per-phase statistics
    /// no matter in which order they were produced — the property the
    /// serving engine relies on for deterministic cumulative accounting.
    pub fn add(&mut self, other: &RoundReport) {
        for (name, stats) in &other.breakdown {
            let index = self.index_of(name);
            self.breakdown[index].1 += *stats;
        }
        self.total_rounds += other.total_rounds;
        self.total_bits += other.total_bits;
        self.total_operations += other.total_operations;
    }

    /// The breakdown index of `name`, appending the phase with zero stats if
    /// it is new.
    fn index_of(&mut self, name: &str) -> usize {
        match self.breakdown.iter().position(|(n, _)| n == name) {
            Some(index) => index,
            None => {
                self.breakdown
                    .push((name.to_owned(), PhaseStats::default()));
                self.breakdown.len() - 1
            }
        }
    }
}

impl Display for RoundReport {
    /// One row per phase plus a `TOTAL` row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<36} {:>12} {:>16} {:>10}",
            "phase", "rounds", "bits", "ops"
        )?;
        for (name, stats) in &self.breakdown {
            writeln!(
                f,
                "{:<36} {:>12} {:>16} {:>10}",
                name, stats.rounds, stats.bits, stats.operations
            )?;
        }
        writeln!(
            f,
            "{:<36} {:>12} {:>16} {:>10}",
            "TOTAL", self.total_rounds, self.total_bits, self.total_operations
        )
    }
}

/// Per-phase round and bit accounting for a simulated execution: a
/// [`RoundReport`] plus the phase charges currently accrue to.
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
/// assert_eq!(ledger.report().phase("spanner").unwrap().rounds, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundLedger {
    report: RoundReport,
    /// Breakdown index of the current phase.
    current: Option<usize>,
}

impl RoundLedger {
    /// Creates an empty ledger; charges before the first phase go to
    /// `"(default)"`.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Starts (or resumes) a named phase; subsequent charges accrue to it. A
    /// new phase joins the report at once, with zero stats until charged.
    pub fn begin_phase(&mut self, name: &str) {
        if self.current_phase() == Some(name) {
            return;
        }
        self.current = Some(self.report.index_of(name));
    }

    /// Name of the phase charges currently accrue to, if any.
    pub fn current_phase(&self) -> Option<&str> {
        self.current
            .map(|index| self.report.breakdown[index].0.as_str())
    }

    /// Charges `rounds` rounds and `bits` broadcast bits to the current phase.
    ///
    /// Allocation-free once the phase exists: only the first charge before
    /// any phase pays for the `"(default)"` entry.
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
        let stats = PhaseStats {
            rounds: rounds * times,
            bits: bits * times,
            operations: times,
        };
        let report = &mut self.report;
        report.total_rounds += stats.rounds;
        report.total_bits += stats.bits;
        report.total_operations += stats.operations;
        let index = match self.current {
            Some(index) => index,
            None => report.index_of("(default)"),
        };
        report.breakdown[index].1 += stats;
    }

    /// Everything charged so far.
    pub fn report(&self) -> &RoundReport {
        &self.report
    }

    /// Total rounds charged across all phases.
    pub fn total_rounds(&self) -> u64 {
        self.report.total_rounds
    }

    /// Total bits charged across all phases.
    pub fn total_bits(&self) -> u64 {
        self.report.total_bits
    }

    /// Total number of communication operations.
    pub fn total_operations(&self) -> u64 {
        self.report.total_operations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rounds: u64, bits: u64, operations: u64) -> PhaseStats {
        PhaseStats {
            rounds,
            bits,
            operations,
        }
    }

    #[test]
    fn charges_without_phase_go_to_default() {
        let mut ledger = RoundLedger::new();
        ledger.charge(2, 10);
        assert_eq!(ledger.total_rounds(), 2);
        assert_eq!(ledger.report().phase("(default)").unwrap().bits, 10);
        assert_eq!(ledger.current_phase(), None);
    }

    #[test]
    fn phases_accumulate_independently_in_first_start_order() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("a");
        ledger.charge(1, 5);
        ledger.begin_phase("b");
        ledger.charge(2, 6);
        ledger.begin_phase("a");
        ledger.charge(3, 7);
        assert_eq!(ledger.current_phase(), Some("a"));
        let report = ledger.report();
        assert_eq!(report.phase("a"), Some(stats(4, 12, 2)));
        assert_eq!(report.phase("b"), Some(stats(2, 6, 1)));
        assert!(!report.has_phase("c"));
        assert_eq!(ledger.total_rounds(), 6);
        assert_eq!(ledger.total_bits(), 18);
        assert_eq!(ledger.total_operations(), 3);
        let names: Vec<_> = report.phase_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn a_started_phase_is_listed_before_it_charges() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("parent");
        ledger.begin_phase("child");
        ledger.charge(3, 30);
        let names: Vec<_> = ledger.report().phase_names().collect();
        assert_eq!(names, vec!["parent", "child"]);
        assert_eq!(ledger.report().phase("parent"), Some(PhaseStats::default()));
    }

    #[test]
    fn add_merges_phase_wise_and_appends_new_phases() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("solve");
        ledger.charge(2, 20);
        let mut other = RoundLedger::new();
        other.begin_phase("preprocess");
        other.charge(1, 5);
        other.begin_phase("solve");
        other.charge(3, 30);
        other.charge(0, 0);
        let mut total = ledger.report().clone();
        total.add(other.report());
        assert_eq!(total.phase("solve"), Some(stats(5, 50, 3)));
        assert_eq!(total.phase("preprocess"), Some(stats(1, 5, 1)));
        assert_eq!(
            (total.total_rounds, total.total_bits, total.total_operations),
            (6, 55, 4)
        );
        let names: Vec<_> = total.phase_names().collect();
        assert_eq!(names, vec!["solve", "preprocess"]);
    }

    #[test]
    fn add_is_order_independent_but_for_the_phase_order() {
        let mut reports = Vec::new();
        for (name, rounds) in [("solve", 2), ("preprocess", 5), ("solve", 1)] {
            let mut ledger = RoundLedger::new();
            ledger.begin_phase(name);
            ledger.charge(rounds, 10 * rounds);
            reports.push(ledger.report().clone());
        }
        let mut in_order = RoundReport::default();
        reports.iter().for_each(|r| in_order.add(r));
        let mut reversed = RoundReport::default();
        reports.iter().rev().for_each(|r| reversed.add(r));
        assert_eq!(in_order.total_rounds, reversed.total_rounds);
        assert_eq!(in_order.total_operations, 3);
        for name in ["solve", "preprocess"] {
            assert_eq!(in_order.phase(name), reversed.phase(name));
        }
    }

    #[test]
    fn display_renders_a_row_per_phase_and_a_total() {
        let mut ledger = RoundLedger::new();
        ledger.begin_phase("solve");
        ledger.charge(7, 70);
        let table = ledger.report().to_string();
        let lines: Vec<_> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("solve") && lines[1].contains("70"));
        assert!(lines[2].starts_with("TOTAL") && lines[2].contains('7'));
    }
}
