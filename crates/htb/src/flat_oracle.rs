//! The flat per-link scheduler `simnet` shipped before the flat plane
//! became a one-level [`super::ShapingTree`], frozen as a test-only
//! oracle: DRR over four class FIFOs under one optional link shaper,
//! with a CoDel per class. The only edit from the shipped code is the
//! removal of the per-class shapers, a configuration knob no caller
//! ever set. The differential suite at the bottom drives it and
//! `ShapingTree::new(TreeSpec::flat(&cfg))` through the same call
//! sequences and requires identical outcomes, counters and per-class
//! statistics. Do not optimise this file.

use qdisc::{
    CoDel, DequeueOutcome, EnqueueOutcome, QdiscConfig, QdiscStats, Released, SharedStats,
    StatsHandle, TokenBucket, TrafficClass, CLASS_COUNT,
};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct Entry<T> {
    payload: T,
    bytes: u32,
    ecn_capable: bool,
    enqueued_at: u64,
}

/// The flat per-link plane: DRR over four class FIFOs.
pub(crate) struct Qdisc<T> {
    cfg: QdiscConfig,
    queues: [VecDeque<Entry<T>>; CLASS_COUNT],
    link_tbf: Option<TokenBucket>,
    codel: [CoDel; CLASS_COUNT],
    /// DRR byte deficits.
    deficit: [u64; CLASS_COUNT],
    /// Class the scheduler is currently visiting.
    cursor: usize,
    /// Whether the cursor's class already received its quantum for the
    /// current visit.
    granted: bool,
    stats: QdiscStats,
    shared: StatsHandle,
}

impl<T> Qdisc<T> {
    /// A fresh plane with empty queues and full token buckets.
    pub(crate) fn new(cfg: QdiscConfig) -> Self {
        let link_tbf = cfg.link_shaper.map(TokenBucket::new);
        let codel = std::array::from_fn(|_| CoDel::new(cfg.codel_target_us, cfg.codel_interval_us));
        Qdisc {
            cfg,
            queues: std::array::from_fn(|_| VecDeque::new()),
            link_tbf,
            codel,
            deficit: [0; CLASS_COUNT],
            cursor: 0,
            granted: false,
            stats: QdiscStats::default(),
            shared: Arc::new(SharedStats::default()),
        }
    }

    /// Class for a destination port, per the configured map.
    pub(crate) fn classify(&self, port: u16) -> TrafficClass {
        self.cfg.class_map.classify(port)
    }

    /// Snapshot of the per-class counters.
    pub(crate) fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    /// Handle to the live aggregate counters (for SNMP instrumentation).
    pub(crate) fn shared_stats(&self) -> StatsHandle {
        Arc::clone(&self.shared)
    }

    /// Total packets currently queued.
    pub(crate) fn backlog_pkts(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Mirror the aggregate backlog into the shared counters so
    /// external observers (e.g. an SNMP agent) read a live value.
    fn publish_backlog(&self) {
        self.shared
            .backlog_bytes
            .store(self.stats.backlog_bytes(), Ordering::Relaxed);
    }

    /// Offer a packet of `bytes` wire bytes to class `class` at instant
    /// `now_us`. Bounded queue: overflow hands the payload back as
    /// [`EnqueueOutcome::TailDropped`].
    pub(crate) fn enqueue(
        &mut self,
        now_us: u64,
        class: TrafficClass,
        bytes: u32,
        ecn_capable: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        let i = class.index();
        if self.queues[i].len() >= self.cfg.classes[i].queue_cap_pkts {
            self.stats.classes[i].tail_dropped += 1;
            self.shared.drops.fetch_add(1, Ordering::Relaxed);
            return EnqueueOutcome::TailDropped(payload);
        }
        self.queues[i].push_back(Entry {
            payload,
            bytes,
            ecn_capable,
            enqueued_at: now_us,
        });
        let c = &mut self.stats.classes[i];
        c.enqueued += 1;
        c.backlog_pkts += 1;
        c.backlog_bytes += bytes as u64;
        self.publish_backlog();
        EnqueueOutcome::Queued
    }

    /// Whether the head of class `i` conforms to both its shaper and
    /// the link shaper at `now`.
    fn head_conforms(&self, i: usize, now: u64) -> bool {
        let Some(head) = self.queues[i].front() else {
            return false;
        };
        self.link_tbf
            .as_ref()
            .is_none_or(|tb| tb.conforms(now, head.bytes))
    }

    /// Earliest instant `>= after_us` at which some head-of-line packet
    /// conforms to its shapers, or `None` when every queue is empty.
    pub(crate) fn next_ready(&self, after_us: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for i in 0..CLASS_COUNT {
            let Some(head) = self.queues[i].front() else {
                continue;
            };
            let mut t = after_us;
            if let Some(tb) = &self.link_tbf {
                t = t.max(tb.next_conforming(after_us, head.bytes));
            }
            best = Some(best.map_or(t, |b: u64| b.min(t)));
        }
        best
    }

    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % CLASS_COUNT;
        self.granted = false;
    }

    /// Run the scheduler at instant `now_us` and release at most one
    /// packet. CoDel may additionally drop non-ECT packets on the way;
    /// they are returned for accounting. When nothing is eligible the
    /// outcome carries `next_at` so the caller can reschedule.
    pub(crate) fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<T> {
        let mut aqm_dropped = Vec::new();
        loop {
            if !(0..CLASS_COUNT).any(|i| self.head_conforms(i, now_us)) {
                return DequeueOutcome {
                    released: None,
                    aqm_dropped,
                    next_at: self.next_ready(now_us),
                };
            }
            let i = self.cursor;
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
                self.advance_cursor();
                continue;
            }
            if !self.head_conforms(i, now_us) {
                // Shaper-blocked: the class is rate-limited elsewhere;
                // forfeit its deficit and let the others run.
                self.deficit[i] = 0;
                self.advance_cursor();
                continue;
            }
            if !self.granted {
                self.deficit[i] += self.cfg.classes[i].quantum as u64;
                self.granted = true;
            }
            let head_bytes = self.queues[i].front().expect("non-empty").bytes as u64;
            if self.deficit[i] < head_bytes {
                // Share spent for this round.
                self.advance_cursor();
                continue;
            }
            let entry = self.queues[i].pop_front().expect("non-empty");
            self.deficit[i] -= head_bytes;
            let stats = &mut self.stats.classes[i];
            stats.backlog_pkts -= 1;
            stats.backlog_bytes -= entry.bytes as u64;
            let sojourn = now_us.saturating_sub(entry.enqueued_at);
            let signal = self.codel[i].on_dequeue(now_us, sojourn);
            if signal && !entry.ecn_capable {
                stats.aqm_dropped += 1;
                self.shared.drops.fetch_add(1, Ordering::Relaxed);
                self.publish_backlog();
                aqm_dropped.push((TrafficClass::ALL[i], entry.payload));
                continue;
            }
            if signal {
                stats.ecn_marked += 1;
                self.shared.ecn_marks.fetch_add(1, Ordering::Relaxed);
            }
            stats.dequeued += 1;
            stats.bytes_dequeued += entry.bytes as u64;
            if let Some(tb) = &mut self.link_tbf {
                tb.consume(now_us, entry.bytes);
            }
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
                self.advance_cursor();
            }
            self.publish_backlog();
            return DequeueOutcome {
                released: Some(Released {
                    payload: entry.payload,
                    class: TrafficClass::ALL[i],
                    bytes: entry.bytes,
                    ecn_marked: signal,
                    sojourn_us: sojourn,
                }),
                aqm_dropped,
                next_at: None,
            };
        }
    }
}

mod tests {
    use super::Qdisc as Oracle;
    use crate::oracle::tests::Gen;
    use crate::{DequeueOutcome, EnqueueOutcome, ShapingTree, TrafficClass, TreeSpec, ROOT};
    use proptest::prelude::*;
    use qdisc::{ClassCounters, QdiscConfig, QdiscStats, Shaper, CLASS_COUNT};
    use std::sync::atomic::Ordering::Relaxed;

    /// Every port class of the test map: control, interactive media,
    /// control (RTCP), bulk media, background.
    const PORTS: [u16; 5] = [161, 5004, 5005, 7000, 9999];

    /// A random flat plane: shaped or not, random or `for_rate` quanta
    /// and caps, classic or tight CoDel.
    fn random_config(g: &mut Gen, shaped: bool, tight_codel: bool) -> QdiscConfig {
        // `for_rate` for its quanta, caps and map; the link is redrawn.
        let mut cfg = QdiscConfig::for_rate(1_000_000);
        cfg.class_map.assign(7000, TrafficClass::BulkMedia);
        cfg.link_shaper = if shaped {
            Some(Shaper {
                rate_bps: g.range(100_000, 50_000_000),
                // Sometimes below one MTU, so oversize packets clamp.
                burst_bytes: g.range(64, 9_000),
            })
        } else {
            None
        };
        if tight_codel {
            cfg.codel_target_us = g.range(200, 2_000);
            cfg.codel_interval_us = cfg.codel_target_us * g.range(2, 10);
        }
        // Keep for_rate's caps (64-packet Control, 256 elsewhere), draw
        // small ones that overflow, or never tail-drop.
        let caps = g.range(0, 3);
        for c in cfg.classes.iter_mut() {
            if g.chance(60) {
                c.quantum = if g.chance(20) {
                    g.range(1, 400) as u32
                } else {
                    g.range(400, 9_000) as u32
                };
            }
            match caps {
                0 => {}
                1 => c.queue_cap_pkts = g.range(0, 24) as usize,
                _ => c.queue_cap_pkts = usize::MAX,
            }
        }
        cfg
    }

    type Seen = (
        Option<(u32, TrafficClass, u32, bool, u64)>,
        Vec<(TrafficClass, u32)>,
        Option<u64>,
    );

    fn seen(out: DequeueOutcome<u32>) -> Seen {
        (
            out.released
                .map(|r| (r.payload, r.class, r.bytes, r.ecn_marked, r.sojourn_us)),
            out.aqm_dropped,
            out.next_at,
        )
    }

    /// The flat tree under test and the oracle, driven in lockstep;
    /// every call returns an error naming the first divergence.
    struct Lockstep {
        new: ShapingTree<u32>,
        old: Oracle<u32>,
        next_payload: u32,
    }

    impl Lockstep {
        fn new(cfg: QdiscConfig) -> Lockstep {
            Lockstep {
                new: ShapingTree::new(TreeSpec::flat(&cfg)),
                old: Oracle::new(cfg),
                next_payload: 0,
            }
        }

        /// Per-class statistics, root counters and backlog must agree.
        /// The oracle keeps per-class statistics plus backlog, drops
        /// and marks on its link; the tree's root also counts packets,
        /// bits and AQM drops, which must equal the per-class sums.
        fn check_counters(&self, what: &str) -> Result<(), String> {
            let tree = self.new.shared_stats();
            let new_stats = QdiscStats {
                classes: std::array::from_fn(|c| ClassCounters::from(&**tree.node(1 + c))),
            };
            let old_stats = self.old.stats();
            if new_stats != *old_stats {
                let c = (0..CLASS_COUNT)
                    .find(|&c| new_stats.classes[c] != old_stats.classes[c])
                    .unwrap_or(0);
                return Err(format!(
                    "{what}: class {c} stats {:?} vs oracle {:?}",
                    new_stats.classes[c], old_stats.classes[c]
                ));
            }
            let root = tree.node(ROOT);
            let link = self.old.shared_stats();
            let sum = |f: fn(&ClassCounters) -> u64| old_stats.classes.iter().map(f).sum::<u64>();
            let new = [
                root.backlog_bytes.load(Relaxed),
                root.drops.load(Relaxed),
                root.ecn_marks.load(Relaxed),
                root.backlog_pkts.load(Relaxed),
                root.pkts_sent.load(Relaxed),
                root.aqm_drops.load(Relaxed),
                root.bits_sent.load(Relaxed),
                root.borrowed_bits.load(Relaxed),
                self.new.backlog_pkts() as u64,
            ];
            let old = [
                link.backlog_bytes.load(Relaxed),
                link.drops.load(Relaxed),
                link.ecn_marks.load(Relaxed),
                sum(|c| c.backlog_pkts),
                sum(|c| c.dequeued),
                sum(|c| c.aqm_dropped),
                8 * sum(|c| c.bytes_dequeued),
                0,
                self.old.backlog_pkts() as u64,
            ];
            if new != old {
                return Err(format!(
                    "{what}: root counters {new:?} vs oracle {old:?} \
                     [backlog B, drops, marks, backlog pkts, pkts, AQM drops, bits, \
                     borrowed, backlog_pkts()]"
                ));
            }
            Ok(())
        }

        fn enqueue(&mut self, now: u64, port: u16, bytes: u32, ecn: bool) -> Result<(), String> {
            let p = self.next_payload;
            self.next_payload += 1;
            // A flat plane classifies by port alone: any destination
            // rides the class leaves.
            let a = self.new.enqueue(now, p, port, bytes, ecn, p);
            let class = self.old.classify(port);
            let b = self.old.enqueue(now, class, bytes, ecn, p);
            let what = format!("enqueue(t={now}, port={port}, {bytes} B, ect={ecn})");
            match (a, b) {
                (EnqueueOutcome::Queued, EnqueueOutcome::Queued) => {}
                (EnqueueOutcome::TailDropped(x), EnqueueOutcome::TailDropped(y)) if x == y => {}
                (a, b) => return Err(format!("{what}: {a:?} vs oracle {b:?}")),
            }
            self.check_counters(&what)
        }

        fn dequeue(&mut self, now: u64) -> Result<Seen, String> {
            let a = seen(self.new.dequeue(now));
            let b = seen(self.old.dequeue(now));
            let what = format!("dequeue(t={now})");
            if a != b {
                return Err(format!("{what}: {a:?} vs oracle {b:?}"));
            }
            self.check_counters(&what)?;
            Ok(a)
        }

        fn next_ready(&self, after: u64) -> Result<(), String> {
            let (a, b) = (self.new.next_ready(after), self.old.next_ready(after));
            if a != b {
                return Err(format!("next_ready({after}): {a:?} vs oracle {b:?}"));
            }
            Ok(())
        }
    }

    /// One random call sequence against a random flat plane.
    fn drive(seed: u64, shaped: bool, tight_codel: bool) -> Result<(), String> {
        let mut g = Gen(seed);
        let cfg = random_config(&mut g, shaped, tight_codel);
        let summary = cfg.summary();
        let caps: Vec<usize> = cfg.classes.iter().map(|c| c.queue_cap_pkts).collect();
        let mut run = Lockstep::new(cfg);
        let ect_percent = g.range(0, 101);
        // Some runs keep to a subset of the classes.
        let ports: Vec<u16> = if g.chance(30) {
            (0..g.range(1, 3)).map(|_| *g.pick(&PORTS)).collect()
        } else {
            PORTS.to_vec()
        };
        let mut t = 0u64;
        let packet = |g: &mut Gen, run: &mut Lockstep, t: u64| {
            let bytes = if g.chance(10) {
                g.range(1_600, 9_000)
            } else {
                g.range(40, 1_600)
            };
            let ecn = g.chance(ect_percent);
            run.enqueue(t, *g.pick(&ports), bytes as u32, ecn)
        };
        let context = |e: String| format!("{summary} caps={caps:?}: {e}");
        for _ in 0..1_500 {
            match g.range(0, 100) {
                0..=39 => {
                    for _ in 0..g.range(1, 5) {
                        packet(&mut g, &mut run, t).map_err(context)?;
                    }
                }
                40..=84 => {
                    let (released, _, next_at) = run.dequeue(t).map_err(context)?;
                    if let (None, Some(at)) = (released, next_at) {
                        if g.chance(70) {
                            t = at;
                        }
                    }
                }
                _ => run.next_ready(t + g.range(0, 5_000)).map_err(context)?,
            }
            if g.chance(30) {
                t += g.range(0, 3_000);
            }
        }
        // Drain what is left, so every queued packet is compared.
        for _ in 0..1_000_000 {
            match run.dequeue(t).map_err(context)? {
                (None, _, None) => return Ok(()),
                (None, _, Some(at)) => t = at,
                _ => {}
            }
        }
        Err(context("plane did not drain".to_string()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A one-level tree compiled from a flat config is bit-identical
        /// to the former flat scheduler on shaped and unshaped links,
        /// random quanta and per-class caps, ECT mixes and CoDel
        /// constants.
        #[test]
        fn flat_tree_matches_flat_scheduler_oracle(
            seed in any::<u64>(),
            shaped in any::<bool>(),
            tight_codel in any::<bool>(),
        ) {
            let verdict = drive(seed, shaped, tight_codel);
            prop_assert!(
                verdict.is_ok(),
                "seed={seed} shaped={shaped} tight_codel={tight_codel}: {}",
                verdict.unwrap_err()
            );
        }
    }

    /// `for_rate` planes as shipped, one per workload rate the session
    /// benchmark and the integration suites mount.
    #[test]
    fn for_rate_planes_match_the_oracle() {
        for (seed, rate) in [
            (1, 800_000),
            (2, 2_000_000),
            (3, 10_000_000),
            (4, 100_000_000),
        ] {
            let mut g = Gen(seed);
            let mut cfg = QdiscConfig::for_rate(rate);
            cfg.class_map.assign(7000, TrafficClass::BulkMedia);
            let mut run = Lockstep::new(cfg);
            let mut t = 0u64;
            for _ in 0..20_000 {
                if g.chance(55) {
                    let bytes = g.range(40, 1_600) as u32;
                    run.enqueue(t, *g.pick(&PORTS), bytes, g.chance(50))
                        .unwrap();
                } else if let (None, _, Some(at)) = run.dequeue(t).unwrap() {
                    t = at;
                }
                t += g.range(0, 400);
            }
        }
    }
}
