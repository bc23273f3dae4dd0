//! Aggregation of validation streams into the paper's Figure 2 and the §IV
//! narrative statistics.

use std::collections::{HashMap, HashSet};

use ripple_crypto::Digest256;
use serde::{Deserialize, Serialize};

use crate::stream::ValidationStream;

/// One bar pair in Figure 2: a validator's total signed pages and how many
/// ended up in the main ledger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorRow {
    /// Display label (domain, `R1`-style tag, or abbreviated key).
    pub label: String,
    /// Pages signed in the period ("Total pages").
    pub total: u64,
    /// Signed pages that were committed to the main ledger ("Valid pages").
    pub valid: u64,
}

impl ValidatorRow {
    /// Valid fraction (0 when nothing was signed).
    fn valid_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.valid as f64 / self.total as f64
        }
    }
}

/// A full Figure 2 panel: one row per observed validator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorReport {
    /// Rows sorted by label (matching the paper's alphabetical x-axis).
    pub rows: Vec<ValidatorRow>,
    /// Number of consensus rounds in the period.
    pub rounds: u64,
}

impl ValidatorReport {
    /// Builds the report from a stream and the set of committed page hashes.
    pub fn from_stream(
        stream: &ValidationStream,
        committed: &HashSet<Digest256>,
        rounds: u64,
    ) -> ValidatorReport {
        let mut tally: HashMap<&str, (u64, u64)> = HashMap::new();
        for event in stream {
            let entry = tally.entry(&event.label).or_insert((0, 0));
            entry.0 += 1;
            if committed.contains(&event.page_hash) {
                entry.1 += 1;
            }
        }
        let mut rows: Vec<ValidatorRow> = tally
            .into_iter()
            .map(|(label, (total, valid))| ValidatorRow {
                label: label.to_owned(),
                total,
                valid,
            })
            .collect();
        rows.sort_by(|a, b| a.label.cmp(&b.label));
        ValidatorReport { rows, rounds }
    }

    /// Number of validators observed in the period.
    pub fn observed(&self) -> usize {
        self.rows.len()
    }

    /// Validators whose valid-page count is at least `fraction` of the best
    /// validator's — the paper's "number of valid pages close to or
    /// comparable to those of R1–R5".
    pub fn active(&self, fraction: f64) -> Vec<&ValidatorRow> {
        let best = self.rows.iter().map(|r| r.valid).max().unwrap_or(0);
        let threshold = (best as f64 * fraction) as u64;
        self.rows
            .iter()
            .filter(|r| best > 0 && r.valid >= threshold.max(1))
            .collect()
    }

    /// Validators none of whose pages were valid (the paper's private-ledger
    /// or hopelessly-desynced cohort).
    pub fn never_valid(&self) -> Vec<&ValidatorRow> {
        self.rows
            .iter()
            .filter(|r| r.total > 0 && r.valid == 0)
            .collect()
    }

    /// Renders the report as an aligned text table (the textual equivalent
    /// of a Figure 2 panel).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>8}\n",
            "validator", "total", "valid", "valid%"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>7.1}%\n",
                row.label,
                row.total,
                row.valid,
                row.valid_fraction() * 100.0
            ));
        }
        out
    }
}

/// Labels of validators that are active (per [`ValidatorReport::active`]) in
/// **every** report — the paper: "the three periods share only 9 (over a
/// total of 70 validators seen) that appear in each of them as active
/// contributors".
pub fn persistent_actives(reports: &[&ValidatorReport], fraction: f64) -> Vec<String> {
    let mut sets: Vec<HashSet<&str>> = reports
        .iter()
        .map(|r| {
            r.active(fraction)
                .into_iter()
                .map(|row| row.label.as_str())
                .collect()
        })
        .collect();
    let Some(mut acc) = sets.pop() else {
        return Vec::new();
    };
    for set in sets {
        acc.retain(|l| set.contains(l));
    }
    let mut out: Vec<String> = acc.into_iter().map(String::from).collect();
    out.sort();
    out
}

/// Total distinct validator labels across several reports (the paper's "70
/// validators seen" across the three periods).
pub fn total_observed(reports: &[&ValidatorReport]) -> usize {
    let mut labels: HashSet<&str> = HashSet::new();
    for report in reports {
        for row in &report.rows {
            labels.insert(&row.label);
        }
    }
    labels.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, u64, u64)]) -> ValidatorReport {
        ValidatorReport {
            rows: rows
                .iter()
                .map(|&(label, total, valid)| ValidatorRow {
                    label: label.to_string(),
                    total,
                    valid,
                })
                .collect(),
            rounds: 100,
        }
    }

    #[test]
    fn active_uses_fraction_of_best() {
        let r = report(&[("R1", 100, 100), ("busy", 95, 80), ("quiet", 90, 10)]);
        let active: Vec<&str> = r.active(0.5).iter().map(|row| row.label.as_str()).collect();
        assert_eq!(active, vec!["R1", "busy"]);
    }

    #[test]
    fn never_valid_detects_private_ledgers() {
        let r = report(&[("R1", 100, 100), ("ghost", 100, 0), ("idle", 0, 0)]);
        let never: Vec<&str> = r
            .never_valid()
            .iter()
            .map(|row| row.label.as_str())
            .collect();
        assert_eq!(never, vec!["ghost"]);
    }

    #[test]
    fn persistent_actives_intersects() {
        let a = report(&[("R1", 100, 100), ("x", 100, 90), ("y", 100, 90)]);
        let b = report(&[("R1", 100, 100), ("x", 100, 95), ("z", 100, 95)]);
        let got = persistent_actives(&[&a, &b], 0.5);
        assert_eq!(got, vec!["R1".to_string(), "x".to_string()]);
    }

    #[test]
    fn total_observed_unions_labels() {
        let a = report(&[("R1", 1, 1), ("x", 1, 0)]);
        let b = report(&[("R1", 1, 1), ("y", 1, 0)]);
        assert_eq!(total_observed(&[&a, &b]), 3);
    }

    #[test]
    fn table_renders_every_row() {
        let r = report(&[("R1", 10, 10), ("x", 5, 0)]);
        let table = r.to_table();
        assert!(table.contains("R1"));
        assert!(table.contains("100.0%"));
        assert!(table.contains("0.0%"));
    }

    #[test]
    fn valid_fraction_handles_zero_total() {
        let row = ValidatorRow {
            label: "idle".into(),
            total: 0,
            valid: 0,
        };
        assert_eq!(row.valid_fraction(), 0.0);
    }
}
