//! Flat per-phase span profiles — the table a grid report carries.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{json_object, Event};

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name (phase or sub-phase).
    pub name: &'static str,
    /// Span category.
    pub cat: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Total wall-clock time, µs (sums across threads, so parallel
    /// shards contribute more than elapsed time).
    pub wall_us: u64,
    /// Total critical-path virtual-clock time, µs (0 when the spans
    /// carried no virtual clock, e.g. under the zero-latency model).
    pub virtual_us: u64,
}

/// A flat profile table: one row per span name, name-sorted — the
/// deterministic fold of one scope's events (e.g. a grid window).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Rows, sorted by span name.
    pub rows: Vec<ProfileRow>,
}

impl ProfileSummary {
    /// Folds events into per-name rows.
    pub fn from_events(events: &[Event]) -> ProfileSummary {
        let mut rows: BTreeMap<&'static str, ProfileRow> = BTreeMap::new();
        for e in events {
            let row = rows.entry(e.name).or_insert(ProfileRow {
                name: e.name,
                cat: e.cat,
                count: 0,
                wall_us: 0,
                virtual_us: 0,
            });
            row.count += 1;
            row.wall_us += e.dur_us;
            row.virtual_us += e.vdur_us.unwrap_or(0);
        }
        ProfileSummary {
            rows: rows.into_values().collect(),
        }
    }

    /// Folds `other` into `self` by span name (counts and times sum;
    /// a name new to `self` keeps `other`'s category), preserving the
    /// name-sorted row order — the day-level roll-up of per-window
    /// profiles, mirroring merged `NetStats`.
    pub fn merge(&mut self, other: &ProfileSummary) {
        let mut rows: BTreeMap<&'static str, ProfileRow> =
            self.rows.drain(..).map(|r| (r.name, r)).collect();
        for o in &other.rows {
            let row = rows.entry(o.name).or_insert(ProfileRow {
                name: o.name,
                cat: o.cat,
                count: 0,
                wall_us: 0,
                virtual_us: 0,
            });
            row.count += o.count;
            row.wall_us += o.wall_us;
            row.virtual_us += o.virtual_us;
        }
        self.rows = rows.into_values().collect();
    }

    /// The row named `name`, if present.
    pub fn row(&self, name: &str) -> Option<&ProfileRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The table as a JSON array, one object per row.
    pub fn to_json(&self) -> Json {
        let row = |r: &ProfileRow| {
            json_object! {
                "name": r.name, "cat": r.cat, "count": r.count,
                "wall_us": r.wall_us, "virtual_us": r.virtual_us,
            }
        };
        self.rows.iter().map(row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, dur: u64, vdur: Option<u64>) -> Event {
        Event {
            name,
            cat: "test",
            tid: 0,
            ts_us: 0,
            dur_us: dur,
            vts_us: vdur.map(|_| 0),
            vdur_us: vdur,
        }
    }

    #[test]
    fn folds_by_name_sorted() {
        let events = [
            event("price", 10, Some(4)),
            event("eval", 7, None),
            event("price", 5, Some(1)),
        ];
        let p = ProfileSummary::from_events(&events);
        assert_eq!(p.rows.len(), 2);
        assert_eq!(p.rows[0].name, "eval");
        assert_eq!(p.rows[1].name, "price");
        let price = p.row("price").expect("row");
        assert_eq!(price.count, 2);
        assert_eq!(price.wall_us, 15);
        assert_eq!(price.virtual_us, 5);
        assert_eq!(ProfileSummary::from_events(&[]), ProfileSummary::default());
        assert_eq!(
            p.to_json().to_string(),
            "[{\"cat\":\"test\",\"count\":1,\"name\":\"eval\",\"virtual_us\":0,\"wall_us\":7},\
             {\"cat\":\"test\",\"count\":2,\"name\":\"price\",\"virtual_us\":5,\"wall_us\":15}]"
        );
    }

    #[test]
    fn merge_sums_by_name_and_stays_sorted() {
        let mut a =
            ProfileSummary::from_events(&[event("price", 10, Some(4)), event("window", 20, None)]);
        let b =
            ProfileSummary::from_events(&[event("eval", 7, Some(2)), event("price", 5, Some(1))]);
        a.merge(&b);
        let names: Vec<&str> = a.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["eval", "price", "window"]);
        let price = a.row("price").expect("row");
        assert_eq!(price.count, 2);
        assert_eq!(price.wall_us, 15);
        assert_eq!(price.virtual_us, 5);
        assert_eq!(a.row("eval").expect("row").wall_us, 7);
        // Merging an empty profile is the identity.
        let before = a.clone();
        a.merge(&ProfileSummary::default());
        assert_eq!(a, before);
    }
}
