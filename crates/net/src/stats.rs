//! Bandwidth and message accounting (the measurement surface of Table I).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::NetError;

/// Counters for one message label (protocol phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelStats {
    /// Messages carried.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total payload bytes delivered.
    pub total_bytes: u64,
    /// Bytes sent per party.
    pub sent_bytes: Vec<u64>,
    /// Bytes received per party.
    pub received_bytes: Vec<u64>,
    /// Per-label breakdown (sorted map for deterministic reports).
    pub per_label: BTreeMap<String, LabelStats>,
}

impl NetStats {
    /// Creates counters for `parties` parties.
    pub fn new(parties: usize) -> NetStats {
        NetStats {
            sent_bytes: vec![0; parties],
            received_bytes: vec![0; parties],
            ..NetStats::default()
        }
    }

    /// Records one delivered message.
    pub fn record(&mut self, from: usize, to: usize, label: &str, len: usize) {
        self.total_messages += 1;
        self.total_bytes += len as u64;
        self.sent_bytes[from] += len as u64;
        self.received_bytes[to] += len as u64;
        // Labels are a small fixed protocol vocabulary: allocate the key
        // on a label's first message only.
        let e = match self.per_label.get_mut(label) {
            Some(e) => e,
            None => self.per_label.entry(label.to_string()).or_default(),
        };
        e.messages += 1;
        e.bytes += len as u64;
    }

    /// Merges another stats block into this one (used when a phase runs on
    /// a separate fabric instance, or when folding per-window stats into
    /// a day-level block).
    ///
    /// # Errors
    ///
    /// [`NetError::PartyCountMismatch`] if the party counts differ; the
    /// receiver is left untouched.
    pub fn merge(&mut self, other: &NetStats) -> Result<(), NetError> {
        if self.sent_bytes.len() != other.sent_bytes.len() {
            return Err(NetError::PartyCountMismatch {
                have: self.sent_bytes.len(),
                got: other.sent_bytes.len(),
            });
        }
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        for (a, b) in self.sent_bytes.iter_mut().zip(other.sent_bytes.iter()) {
            *a += b;
        }
        for (a, b) in self
            .received_bytes
            .iter_mut()
            .zip(other.received_bytes.iter())
        {
            *a += b;
        }
        for (label, s) in &other.per_label {
            let e = self.per_label.entry(label.clone()).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
        Ok(())
    }

    /// Merges a smaller fabric's counters into this one, translating its
    /// party ids through `map` (`map[local] = global`). This is how the
    /// grid orchestrator folds per-coalition traffic into one
    /// grid-global accounting surface: each coalition runs on its own
    /// fabric with local ids `0..k`, while the grid tracks the full
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover `other`'s parties or maps outside
    /// this fabric.
    pub fn merge_mapped(&mut self, other: &NetStats, map: &[usize]) {
        assert_eq!(
            map.len(),
            other.sent_bytes.len(),
            "map must cover every party of the merged fabric"
        );
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
        for (local, &global) in map.iter().enumerate() {
            assert!(
                global < self.sent_bytes.len(),
                "mapped party {global} outside fabric of {}",
                self.sent_bytes.len()
            );
            self.sent_bytes[global] += other.sent_bytes[local];
            self.received_bytes[global] += other.received_bytes[local];
        }
        for (label, s) in &other.per_label {
            let e = self.per_label.entry(label.clone()).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
    }

    /// Sums the counters of every label starting with `prefix` — the
    /// per-phase traffic surface: protocol phases namespace their labels
    /// (`eval/`, `price/`, `dist/`, `couple/`), so a window's Protocol 2
    /// bytes and messages are `label_totals("eval/")`.
    pub fn label_totals(&self, prefix: &str) -> LabelStats {
        let mut out = LabelStats::default();
        for (label, s) in &self.per_label {
            if label.starts_with(prefix) {
                out.messages += s.messages;
                out.bytes += s.bytes;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = NetStats::new(3);
        s.record(0, 1, "phase-a", 100);
        s.record(1, 2, "phase-a", 50);
        s.record(2, 0, "phase-b", 25);
        assert_eq!(s.total_messages, 3);
        assert_eq!(s.total_bytes, 175);
        assert_eq!(s.sent_bytes, vec![100, 50, 25]);
        assert_eq!(s.received_bytes, vec![25, 100, 50]);
        assert_eq!(s.per_label["phase-a"].messages, 2);
        assert_eq!(s.per_label["phase-a"].bytes, 150);
        assert_eq!(s.per_label["phase-b"].bytes, 25);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NetStats::new(2);
        a.record(0, 1, "x", 10);
        let mut b = NetStats::new(2);
        b.record(1, 0, "x", 5);
        b.record(0, 1, "y", 7);
        a.merge(&b).expect("same party count");
        assert_eq!(a.total_bytes, 22);
        assert_eq!(a.per_label["x"].bytes, 15);
        assert_eq!(a.per_label["y"].bytes, 7);
        assert_eq!(a.sent_bytes, vec![17, 5]);
    }

    #[test]
    fn merge_rejects_party_count_mismatch() {
        let mut a = NetStats::new(2);
        a.record(0, 1, "x", 10);
        let mut b = NetStats::new(3);
        b.record(2, 0, "x", 5);
        let before = a.clone();
        let err = a.merge(&b).expect_err("party counts differ");
        assert_eq!(err, NetError::PartyCountMismatch { have: 2, got: 3 });
        assert_eq!(a, before, "failed merge must leave the receiver intact");
    }

    #[test]
    fn merge_mapped_translates_parties() {
        // Coalition fabric of 2 parties mapping onto global ids {4, 1}.
        let mut global = NetStats::new(6);
        global.record(0, 5, "pre", 3);
        let mut shard = NetStats::new(2);
        shard.record(0, 1, "x", 10);
        shard.record(1, 0, "y", 4);
        global.merge_mapped(&shard, &[4, 1]);
        assert_eq!(global.total_messages, 3);
        assert_eq!(global.total_bytes, 17);
        assert_eq!(global.sent_bytes, vec![3, 4, 0, 0, 10, 0]);
        assert_eq!(global.received_bytes, vec![0, 10, 0, 0, 4, 3]);
        assert_eq!(global.per_label["x"].bytes, 10);
        assert_eq!(global.per_label["y"].messages, 1);
    }

    #[test]
    #[should_panic(expected = "map must cover")]
    fn merge_mapped_rejects_short_map() {
        let mut global = NetStats::new(4);
        let shard = NetStats::new(3);
        global.merge_mapped(&shard, &[0, 1]);
    }

    #[test]
    fn label_prefix_totals() {
        let mut s = NetStats::new(3);
        s.record(0, 1, "couple/up", 40);
        s.record(1, 2, "couple/up", 40);
        s.record(2, 0, "couple/corridor", 8);
        s.record(0, 1, "eval/result", 1);
        let couple = s.label_totals("couple/");
        assert_eq!(couple.messages, 3);
        assert_eq!(couple.bytes, 88);
        assert_eq!(s.label_totals("price/"), LabelStats::default());
        // Whole-fabric prefix matches everything.
        assert_eq!(s.label_totals("").bytes, s.total_bytes);
    }
}
