//! The weekly observation window (§4.2 "Time-window selection"): a
//! rolling 7-day retention over per-day observation buckets, so the
//! client-side counters always reflect exactly the last week.

use crate::counters::UserCounters;
use crate::{AdKey, DomainKey};
use std::collections::VecDeque;

/// Observations bucketed per day with a 7-day retention.
///
/// `advance_day` slides the window; [`Self::counters`] materializes a
/// [`UserCounters`] over the retained days. The paper chose one week
/// because (a) it spans both weekday and weekend behaviour and (b) DSPs
/// confirmed "the majority of ad-campaigns they serve last a week or
/// more".
#[derive(Debug, Clone)]
pub struct WeeklyWindow {
    /// One bucket per retained day, oldest first.
    days: VecDeque<Vec<(AdKey, DomainKey)>>,
    /// Retention length in days.
    retention: usize,
}

impl Default for WeeklyWindow {
    fn default() -> Self {
        Self::new(7)
    }
}

impl WeeklyWindow {
    /// Window retaining `retention` days (the paper uses 7).
    pub fn new(retention: usize) -> Self {
        assert!(retention >= 1, "need at least one day of retention");
        let mut days = VecDeque::with_capacity(retention);
        days.push_back(Vec::new());
        WeeklyWindow { days, retention }
    }

    /// Records an impression on the current day.
    pub fn observe(&mut self, ad: AdKey, domain: DomainKey) {
        self.days
            .back_mut()
            .expect("window always has a current day")
            .push((ad, domain));
    }

    /// Advances to the next day, evicting anything older than the
    /// retention horizon.
    pub fn advance_day(&mut self) {
        self.days.push_back(Vec::new());
        while self.days.len() > self.retention {
            self.days.pop_front();
        }
    }

    /// Total observations retained.
    pub fn len(&self) -> usize {
        self.days.iter().map(|d| d.len()).sum()
    }

    /// True when no observations are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes per-user counters over the retained window.
    pub fn counters(&self) -> UserCounters {
        let mut c = UserCounters::new();
        for day in &self.days {
            for &(ad, domain) in day {
                c.observe(ad, domain);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_evicts_old_days() {
        let mut w = WeeklyWindow::new(3);
        w.observe(1, 10); // day 0
        w.advance_day();
        w.observe(2, 20); // day 1
        w.advance_day();
        w.observe(3, 30); // day 2
        assert_eq!(w.counters().distinct_ads(), 3);

        w.advance_day(); // day 3: day 0 evicted
        let c = w.counters();
        assert_eq!(c.distinct_ads(), 2);
        assert_eq!(c.domain_count(1), 0, "day-0 observation gone");
        assert_eq!(c.domain_count(2), 1);
    }

    #[test]
    fn default_is_seven_days() {
        let mut w = WeeklyWindow::default();
        for day in 0..7u64 {
            w.observe(day, day);
            w.advance_day();
        }
        // Day 0 has just been evicted (we're now on day 7, retaining 1..7).
        let c = w.counters();
        assert_eq!(c.domain_count(0), 0);
        assert_eq!(c.domain_count(1), 1);
    }

    #[test]
    fn observations_accumulate_within_window() {
        let mut w = WeeklyWindow::new(7);
        w.observe(5, 1);
        w.advance_day();
        w.observe(5, 2);
        let c = w.counters();
        assert_eq!(c.domain_count(5), 2, "same ad across days accumulates");
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_retention_rejected() {
        WeeklyWindow::new(0);
    }
}
