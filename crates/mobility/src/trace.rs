//! Continuous-time contact traces.
//!
//! A [`ContactTrace`] is itself a [`ContactStream`] that replays its stored
//! events, so it discretizes through
//! [`ContactStream::to_time_evolving_graph`] like every generator.

use crate::stream::ContactStream;
use csn_graph::NodeId;
use serde::{Deserialize, Serialize};

/// One contact: nodes `u` and `v` are in range during `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContactEvent {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Contact start time (seconds).
    pub start: f64,
    /// Contact end time (seconds), exclusive.
    pub end: f64,
}

impl ContactEvent {
    /// Contact duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A contact trace: all contacts among `n` nodes over `[0, duration)`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ContactTrace {
    n: usize,
    duration: f64,
    events: Vec<ContactEvent>,
}

impl ContactTrace {
    /// Creates a trace; events are sorted by `(start, u, v)` and validated.
    ///
    /// The endpoint tie-break makes the stored order *canonical*: two
    /// generators that produce the same event set in different discovery
    /// orders (e.g. the grid-indexed and the all-pairs contact scans, or a
    /// `HashMap` drain whose iteration order varies across processes)
    /// construct byte-identical traces. A start-only stable sort would
    /// instead preserve the caller's order among equal-start events.
    ///
    /// # Panics
    ///
    /// Panics if an event has `end <= start`, an endpoint out of range, or
    /// `u == v`.
    pub fn new(n: usize, duration: f64, mut events: Vec<ContactEvent>) -> Self {
        for e in &events {
            assert!(e.u < n && e.v < n, "endpoint out of range");
            assert_ne!(e.u, e.v, "self-contact");
            assert!(e.end > e.start, "empty or inverted contact");
        }
        events.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .expect("finite times")
                .then_with(|| (a.u, a.v).cmp(&(b.u, b.v)))
        });
        ContactTrace { n, duration, events }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// The contact events, sorted by start time.
    pub fn events(&self) -> &[ContactEvent] {
        &self.events
    }

    /// Events touching the pair `(u, v)`, sorted by start.
    pub fn pair_events(&self, u: NodeId, v: NodeId) -> Vec<ContactEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| (e.u == u && e.v == v) || (e.u == v && e.v == u))
            .collect()
    }

    /// Whether the trace satisfies every generator contract: each event
    /// lies inside `[0, duration]`, events of one pair never overlap, and
    /// the stored order is the canonical `(start, u, v)` sort. The mobility
    /// proptest suite and the `--scenario` perf gates assert this for every
    /// generated trace.
    pub fn is_well_formed(&self) -> bool {
        use std::collections::HashMap;
        for e in &self.events {
            if !(e.start >= 0.0 && e.end > e.start && e.end <= self.duration) {
                return false;
            }
            if e.u >= self.n || e.v >= self.n || e.u == e.v {
                return false;
            }
        }
        let sorted = self
            .events
            .windows(2)
            .all(|w| (w[0].start, w[0].u, w[0].v) <= (w[1].start, w[1].u, w[1].v));
        if !sorted {
            return false;
        }
        // Per-pair non-overlap: the events of a pair, in start order, must
        // each end no later than the next begins.
        let mut last_end: HashMap<(NodeId, NodeId), f64> = HashMap::new();
        for e in &self.events {
            let key = (e.u.min(e.v), e.u.max(e.v));
            if let Some(&prev) = last_end.get(&key) {
                if e.start < prev {
                    return false;
                }
            }
            last_end.insert(key, e.end);
        }
        true
    }

    /// Contact durations of every event.
    pub fn contact_durations(&self) -> Vec<f64> {
        self.events.iter().map(ContactEvent::duration).collect()
    }

    /// Inter-contact times: for each node pair with at least two contacts,
    /// the gaps between the end of one contact and the start of the next.
    pub fn inter_contact_times(&self) -> Vec<f64> {
        use std::collections::HashMap;
        let mut per_pair: HashMap<(NodeId, NodeId), Vec<(f64, f64)>> = HashMap::new();
        for e in &self.events {
            let key = (e.u.min(e.v), e.u.max(e.v));
            per_pair.entry(key).or_default().push((e.start, e.end));
        }
        let mut gaps = Vec::new();
        for (_, mut evs) in per_pair {
            evs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            for w in evs.windows(2) {
                let gap = w[1].0 - w[0].1;
                if gap > 0.0 {
                    gaps.push(gap);
                }
            }
        }
        gaps
    }

    /// Total number of contacts per node pair, as a map keyed by the
    /// canonical `(min, max)` pair.
    pub fn contact_counts(&self) -> std::collections::HashMap<(NodeId, NodeId), usize> {
        let mut counts = std::collections::HashMap::new();
        for e in &self.events {
            *counts.entry((e.u.min(e.v), e.u.max(e.v))).or_insert(0) += 1;
        }
        counts
    }
}

/// Replays the stored events in stored (canonical) order.
impl ContactStream for ContactTrace {
    fn node_count(&self) -> usize {
        self.n
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn for_each_contact(&self, emit: &mut dyn FnMut(ContactEvent)) {
        self.events.iter().copied().for_each(emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(u: NodeId, v: NodeId, s: f64, e: f64) -> ContactEvent {
        ContactEvent { u, v, start: s, end: e }
    }

    #[test]
    fn trace_sorts_and_validates() {
        let t = ContactTrace::new(3, 10.0, vec![ev(0, 1, 5.0, 6.0), ev(1, 2, 1.0, 2.0)]);
        assert_eq!(t.events()[0].start, 1.0);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.events()[1].duration(), 1.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_event_panics() {
        ContactTrace::new(2, 10.0, vec![ev(0, 1, 5.0, 4.0)]);
    }

    #[test]
    fn discretization_covers_overlapping_units() {
        let t = ContactTrace::new(2, 10.0, vec![ev(0, 1, 1.5, 3.2)]);
        let eg = t.to_time_evolving_graph(1.0);
        assert_eq!(eg.labels(0, 1), Some(&[1, 2, 3][..]));
        assert_eq!(eg.horizon(), 10);
        // Coarser discretization.
        let eg2 = t.to_time_evolving_graph(2.0);
        assert_eq!(eg2.labels(0, 1), Some(&[0, 1][..]));
    }

    #[test]
    fn zero_duration_trace_discretizes_into_one_unit() {
        let t = ContactTrace::new(2, 0.0, vec![ev(0, 1, 0.0, 0.5)]);
        let eg = t.to_time_evolving_graph(1.0);
        assert_eq!(eg.horizon(), 1);
        assert_eq!(eg.labels(0, 1), Some(&[0][..]));
    }

    #[test]
    fn inter_contact_times_per_pair() {
        let t = ContactTrace::new(
            3,
            20.0,
            vec![ev(0, 1, 1.0, 2.0), ev(0, 1, 5.0, 6.0), ev(0, 1, 10.0, 11.0), ev(1, 2, 3.0, 4.0)],
        );
        let mut gaps = t.inter_contact_times();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(gaps, vec![3.0, 4.0]);
        assert_eq!(t.contact_durations().len(), 4);
        assert_eq!(t.contact_counts()[&(0, 1)], 3);
    }

    #[test]
    fn pair_events_are_order_insensitive() {
        let t = ContactTrace::new(3, 10.0, vec![ev(1, 0, 1.0, 2.0), ev(0, 1, 4.0, 5.0)]);
        assert_eq!(t.pair_events(0, 1).len(), 2);
        assert_eq!(t.pair_events(1, 0).len(), 2);
        assert!(t.pair_events(0, 2).is_empty());
    }
}
