//! Traffic-control primitives and the flat per-link configuration.
//!
//! `simnet` has one egress scheduler, the `htb` shaping tree. This
//! crate holds what that scheduler is built from and what its callers
//! configure and read, free of simulator types: time is a `u64`
//! microsecond count and packets are opaque payloads with a byte size.
//!
//! * a [`ClassMap`] assigns each packet to one of four
//!   [`TrafficClass`]es by destination port;
//! * a [`TokenBucket`] (configured by a [`Shaper`]) enforces a rate
//!   with a burst allowance;
//! * a [`CoDel`] controller watches sojourn times at dequeue and
//!   signals congestion early — ECN-capable packets are marked and
//!   delivered, the rest are dropped;
//! * a [`QdiscConfig`] describes a flat plane for one link: an optional
//!   link shaper, a DRR byte quantum and a bounded FIFO per class, and
//!   the CoDel constants. `htb::TreeSpec::flat` compiles it into a
//!   one-level tree (the link shaper as root, one leaf per class);
//! * the outcome types every scheduler returns, the [`SharedStats`]
//!   live counters it keeps per scheduling node, and the per-class
//!   [`QdiscStats`] view read from a flat tree's class leaves.
//!
//! Everything is integer-deterministic: the same call sequence always
//! yields the same schedule, marks, and drops.

mod class;
mod codel;
mod tbf;

pub use class::{ClassMap, TrafficClass, CLASS_COUNT};
pub use codel::{CoDel, DEFAULT_INTERVAL_US, DEFAULT_TARGET_US};
pub use tbf::{Shaper, TokenBucket};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-class scheduling parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassConfig {
    /// DRR byte quantum: the class's share per scheduling round.
    pub quantum: u32,
    /// Queue depth in packets; arrivals beyond it are tail-dropped.
    pub queue_cap_pkts: usize,
}

/// Full traffic-control configuration for one link.
#[derive(Clone, Debug, PartialEq)]
pub struct QdiscConfig {
    /// Per-class parameters, indexed by [`TrafficClass::index`].
    pub classes: [ClassConfig; CLASS_COUNT],
    /// Optional aggregate shaper for the whole link.
    pub link_shaper: Option<Shaper>,
    /// CoDel sojourn target (µs).
    pub codel_target_us: u64,
    /// CoDel observation interval (µs).
    pub codel_interval_us: u64,
    /// Port-to-class assignment.
    pub class_map: ClassMap,
}

impl QdiscConfig {
    /// A sensible default plane for a link of `rate_bps`: the link
    /// shaper enforces the rate with a 2-MTU burst; DRR quanta give
    /// `Control` 12.5%, `InteractiveMedia` 50%, `BulkMedia` 25% and
    /// `Background` 12.5% of a congested link; CoDel runs at the
    /// classic 5 ms / 100 ms.
    pub fn for_rate(rate_bps: u64) -> Self {
        let class = |quantum: u32, cap: usize| ClassConfig {
            quantum,
            queue_cap_pkts: cap,
        };
        QdiscConfig {
            classes: [
                class(1_500, 64),  // Control
                class(6_000, 256), // InteractiveMedia
                class(3_000, 256), // BulkMedia
                class(1_500, 256), // Background
            ],
            link_shaper: Some(Shaper {
                rate_bps,
                burst_bytes: 3_000,
            }),
            codel_target_us: DEFAULT_TARGET_US,
            codel_interval_us: DEFAULT_INTERVAL_US,
            class_map: ClassMap::collabqos_default(),
        }
    }

    /// Fraction of the aggregate quantum configured for `class`.
    pub fn quantum_share(&self, class: TrafficClass) -> f64 {
        let total: u64 = self.classes.iter().map(|c| c.quantum as u64).sum();
        self.classes[class.index()].quantum as f64 / total as f64
    }

    /// One-line summary (printed by the CI job on failure).
    pub fn summary(&self) -> String {
        let quanta: Vec<String> = TrafficClass::ALL
            .iter()
            .map(|c| format!("{}={}", c, self.classes[c.index()].quantum))
            .collect();
        format!(
            "quanta[{}] link_shaper={:?} codel={}us/{}us",
            quanta.join(" "),
            self.link_shaper,
            self.codel_target_us,
            self.codel_interval_us
        )
    }
}

impl fmt::Display for QdiscConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// One class's counters on a flat plane, exact (not sampled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets released to the link.
    pub dequeued: u64,
    /// Arrivals rejected because the class queue was full.
    pub tail_dropped: u64,
    /// Non-ECT packets dropped by CoDel.
    pub aqm_dropped: u64,
    /// ECN-capable packets marked by CoDel (and still delivered).
    pub ecn_marked: u64,
    /// Current queue depth in packets.
    pub backlog_pkts: u64,
    /// Current queue depth in wire bytes.
    pub backlog_bytes: u64,
    /// Wire bytes released to the link.
    pub bytes_dequeued: u64,
}

/// Snapshot of all per-class counters, read from the class leaves'
/// [`SharedStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QdiscStats {
    /// Indexed by [`TrafficClass::index`].
    pub classes: [ClassCounters; CLASS_COUNT],
}

impl QdiscStats {
    /// Counters for one class.
    pub fn class(&self, c: TrafficClass) -> &ClassCounters {
        &self.classes[c.index()]
    }

    /// Total backlog across classes, in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.backlog_bytes).sum()
    }

    /// Total backlog across classes, in packets.
    pub fn backlog_pkts(&self) -> u64 {
        self.classes.iter().map(|c| c.backlog_pkts).sum()
    }

    /// Total drops (tail + AQM) across classes.
    pub fn drops(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.tail_dropped + c.aqm_dropped)
            .sum()
    }

    /// Total ECN marks across classes.
    pub fn ecn_marks(&self) -> u64 {
        self.classes.iter().map(|c| c.ecn_marked).sum()
    }
}

impl From<&SharedStats> for ClassCounters {
    /// Read one class leaf's live counters. Every accepted packet is
    /// either released, dropped by CoDel or still queued, so
    /// `enqueued` is their sum; tail drops are the drops CoDel did not
    /// make.
    fn from(s: &SharedStats) -> ClassCounters {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (dequeued, aqm_dropped, backlog_pkts) = (
            load(&s.pkts_sent),
            load(&s.aqm_drops),
            load(&s.backlog_pkts),
        );
        ClassCounters {
            enqueued: dequeued + aqm_dropped + backlog_pkts,
            dequeued,
            tail_dropped: load(&s.drops) - aqm_dropped,
            aqm_dropped,
            ecn_marked: load(&s.ecn_marks),
            backlog_pkts,
            backlog_bytes: load(&s.backlog_bytes),
            bytes_dequeued: load(&s.bits_sent) / 8,
        }
    }
}

/// Live counters of one scheduling node, shared with observers (the
/// SNMP agent reads them through [`StatsHandle`] clones while the
/// scheduler keeps them current). A node's counters aggregate over its
/// whole subtree, except `borrowed_bits`, which belongs to the
/// borrowing leaf alone. All updates happen on the single simulation
/// thread; relaxed ordering is sufficient.
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Bytes currently queued.
    pub backlog_bytes: AtomicU64,
    /// Packets currently queued.
    pub backlog_pkts: AtomicU64,
    /// Cumulative drops, tail and AQM.
    pub drops: AtomicU64,
    /// Cumulative AQM drops (non-ECT packets CoDel dropped); the tail
    /// drops are `drops - aqm_drops`.
    pub aqm_drops: AtomicU64,
    /// Cumulative ECN marks.
    pub ecn_marks: AtomicU64,
    /// Bits a leaf sent on borrowed (ancestor) tokens.
    pub borrowed_bits: AtomicU64,
    /// Bits released to the wire.
    pub bits_sent: AtomicU64,
    /// Packets released to the wire.
    pub pkts_sent: AtomicU64,
}

/// Cloneable handle to one scheduling node's live counters.
pub type StatsHandle = Arc<SharedStats>;

/// Result of an enqueue attempt. A rejected payload is handed back so
/// the caller can account for it (and tests can inspect it).
#[derive(Debug)]
pub enum EnqueueOutcome<T> {
    /// Accepted into its queue.
    Queued,
    /// Rejected: the queue was at capacity.
    TailDropped(T),
}

/// A packet released by a scheduler's `dequeue`.
#[derive(Debug)]
pub struct Released<T> {
    /// The payload handed to `enqueue`.
    pub payload: T,
    /// Class it was queued under.
    pub class: TrafficClass,
    /// Wire size.
    pub bytes: u32,
    /// Whether CoDel marked it (ECN Congestion Experienced).
    pub ecn_marked: bool,
    /// Time spent queued, µs.
    pub sojourn_us: u64,
}

/// Result of a dequeue attempt.
#[derive(Debug)]
pub struct DequeueOutcome<T> {
    /// The packet to put on the wire, if one was eligible.
    pub released: Option<Released<T>>,
    /// Non-ECT packets CoDel dropped while selecting it.
    pub aqm_dropped: Vec<(TrafficClass, T)>,
    /// When nothing was eligible: the earliest instant a head-of-line
    /// packet conforms to its shapers (`None` when all queues are
    /// empty).
    pub next_at: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counters_split_drops_into_tail_and_aqm() {
        let s = SharedStats::default();
        let set = |a: &AtomicU64, v: u64| a.store(v, Ordering::Relaxed);
        set(&s.pkts_sent, 10);
        set(&s.bits_sent, 10 * 1_500 * 8);
        set(&s.drops, 7);
        set(&s.aqm_drops, 3);
        set(&s.ecn_marks, 2);
        set(&s.backlog_pkts, 4);
        set(&s.backlog_bytes, 4 * 1_500);
        let c = ClassCounters::from(&s);
        assert_eq!(c.tail_dropped, 4, "tail drops are the non-AQM drops");
        assert_eq!(c.aqm_dropped, 3);
        assert_eq!(c.enqueued, 10 + 3 + 4, "released + AQM-dropped + queued");
        assert_eq!(c.dequeued, 10);
        assert_eq!(c.bytes_dequeued, 15_000);
        assert_eq!(c.ecn_marked, 2);
        assert_eq!((c.backlog_pkts, c.backlog_bytes), (4, 6_000));
        let stats = QdiscStats {
            classes: [c, c, ClassCounters::default(), c],
        };
        assert_eq!(stats.drops(), 3 * 7, "QdiscStats sums both kinds");
    }
}
