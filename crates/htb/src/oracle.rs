//! The shaping tree's scheduler as it stood before the active-leaf
//! index, frozen as a test-only oracle. It walks every leaf on every
//! scheduling step, which is slow but obviously complete; the
//! differential suite at the bottom drives it and [`super::ShapingTree`]
//! through the same call sequences and requires identical outcomes,
//! marks, drops and counters. Do not optimise this file.

use super::{NodeIdx, NodeKind, TreeShared, TreeSpec, TreeStatsHandle, ROOT};
use qdisc::{CoDel, DequeueOutcome, EnqueueOutcome, Released, Shaper, TokenBucket, TrafficClass};
use qdisc::{SharedStats, StatsHandle, CLASS_COUNT};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct Node {
    rate: TokenBucket,
    ceil: TokenBucket,
    parent: NodeIdx,
}

struct Entry<T> {
    payload: T,
    bytes: u32,
    ecn_capable: bool,
    enqueued_at: u64,
}

struct Leaf<T> {
    node: NodeIdx,
    queues: [VecDeque<Entry<T>>; CLASS_COUNT],
    codel: CoDel,
    deficit: u64,
    quantum: u64,
}

impl<T> Leaf<T> {
    fn head_class(&self) -> Option<usize> {
        (0..CLASS_COUNT).find(|&c| !self.queues[c].is_empty())
    }

    fn head_bytes(&self) -> Option<u32> {
        self.head_class().map(|c| self.queues[c][0].bytes)
    }

    fn backlog_pkts(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

fn quantum_for(assured_bps: u64) -> u64 {
    (assured_bps / 8 / 10).max(1_514)
}

/// The full-scan scheduler.
pub(crate) struct ShapingTree<T> {
    spec: TreeSpec,
    nodes: Vec<Node>,
    leaves: Vec<Leaf<T>>,
    dst_map: BTreeMap<u32, usize>,
    default_leaf: usize,
    cursor: usize,
    granted: bool,
    shared: TreeStatsHandle,
}

impl<T> ShapingTree<T> {
    pub(crate) fn new(spec: TreeSpec) -> ShapingTree<T> {
        let burst = spec.burst_bytes;
        let mut nodes = Vec::with_capacity(spec.nodes.len());
        let mut leaves = Vec::new();
        let mut dst_map = BTreeMap::new();
        let mut default_leaf = None;
        for (idx, n) in spec.nodes.iter().enumerate() {
            if let NodeKind::Leaf(dst) = n.kind {
                match dst {
                    Some(d) => {
                        dst_map.insert(d, leaves.len());
                    }
                    None => default_leaf = Some(leaves.len()),
                }
                leaves.push(Leaf {
                    node: idx,
                    queues: std::array::from_fn(|_| VecDeque::new()),
                    codel: CoDel::new(spec.codel_target_us, spec.codel_interval_us),
                    deficit: 0,
                    quantum: quantum_for(n.assured_bps),
                });
            }
            nodes.push(Node {
                rate: TokenBucket::new(Shaper {
                    rate_bps: n.assured_bps,
                    burst_bytes: burst,
                }),
                ceil: TokenBucket::new(Shaper {
                    rate_bps: n.ceil_bps,
                    burst_bytes: burst,
                }),
                parent: n.parent,
            });
        }
        let shared = Arc::new(TreeShared {
            nodes: spec.nodes.iter().map(|_| StatsHandle::default()).collect(),
            rates: spec
                .nodes
                .iter()
                .map(|n| (n.assured_bps, n.ceil_bps))
                .collect(),
        });
        ShapingTree {
            spec,
            nodes,
            leaves,
            dst_map,
            default_leaf: default_leaf.expect("spec always carries the default leaf"),
            cursor: 0,
            granted: false,
            shared,
        }
    }

    pub(crate) fn shared_stats(&self) -> TreeStatsHandle {
        Arc::clone(&self.shared)
    }

    pub(crate) fn backlog_pkts(&self) -> usize {
        self.leaves.iter().map(|l| l.backlog_pkts()).sum()
    }

    fn for_path(&self, idx: NodeIdx, mut f: impl FnMut(&SharedStats)) {
        let mut at = idx;
        loop {
            f(&self.shared.nodes[at]);
            if at == ROOT {
                break;
            }
            at = self.nodes[at].parent;
        }
    }

    pub(crate) fn enqueue(
        &mut self,
        now_us: u64,
        dst: u32,
        port: u16,
        bytes: u32,
        ecn_capable: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        let li = self.dst_map.get(&dst).copied().unwrap_or(self.default_leaf);
        let class = self.spec.class_map.classify(port).index();
        let node = self.leaves[li].node;
        if self.leaves[li].queues[class].len() >= self.spec.leaf_queue_cap_pkts {
            self.for_path(node, |s| {
                s.drops.fetch_add(1, Ordering::Relaxed);
            });
            return EnqueueOutcome::TailDropped(payload);
        }
        self.leaves[li].queues[class].push_back(Entry {
            payload,
            bytes,
            ecn_capable,
            enqueued_at: now_us,
        });
        self.for_path(node, |s| {
            s.backlog_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            s.backlog_pkts.fetch_add(1, Ordering::Relaxed);
        });
        EnqueueOutcome::Queued
    }

    fn payer_for(&self, li: usize, now: u64, bytes: u32) -> Option<NodeIdx> {
        let mut at = self.leaves[li].node;
        loop {
            if self.nodes[at].rate.conforms(now, bytes) {
                return Some(at);
            }
            if at == ROOT {
                return None;
            }
            at = self.nodes[at].parent;
        }
    }

    fn path_ceils_conform(&self, li: usize, now: u64, bytes: u32) -> bool {
        let mut at = self.leaves[li].node;
        loop {
            if !self.nodes[at].ceil.conforms(now, bytes) {
                return false;
            }
            if at == ROOT {
                return true;
            }
            at = self.nodes[at].parent;
        }
    }

    fn leaf_eligible(&self, li: usize, now: u64) -> bool {
        let Some(bytes) = self.leaves[li].head_bytes() else {
            return false;
        };
        self.path_ceils_conform(li, now, bytes) && self.payer_for(li, now, bytes).is_some()
    }

    pub(crate) fn next_ready(&self, after_us: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for leaf in &self.leaves {
            let Some(bytes) = leaf.head_bytes() else {
                continue;
            };
            let mut ceil_at = after_us;
            let mut payer_at = u64::MAX;
            let mut at = leaf.node;
            loop {
                ceil_at = ceil_at.max(self.nodes[at].ceil.next_conforming(after_us, bytes));
                payer_at = payer_at.min(self.nodes[at].rate.next_conforming(after_us, bytes));
                if at == ROOT {
                    break;
                }
                at = self.nodes[at].parent;
            }
            let t = ceil_at.max(payer_at);
            if t <= after_us {
                return Some(t);
            }
            best = Some(best.map_or(t, |b: u64| b.min(t)));
        }
        best
    }

    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % self.leaves.len();
        self.granted = false;
    }

    pub(crate) fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<T> {
        let mut aqm_dropped = Vec::new();
        loop {
            match self.next_ready(now_us) {
                Some(at) if at <= now_us => {}
                next_at => {
                    return DequeueOutcome {
                        released: None,
                        aqm_dropped,
                        next_at,
                    };
                }
            }
            let li = self.cursor;
            if self.leaves[li].head_class().is_none() {
                self.leaves[li].deficit = 0;
                self.advance_cursor();
                continue;
            }
            if !self.leaf_eligible(li, now_us) {
                self.leaves[li].deficit = 0;
                self.advance_cursor();
                continue;
            }
            if !self.granted {
                self.leaves[li].deficit += self.leaves[li].quantum;
                self.granted = true;
            }
            let class = self.leaves[li].head_class().expect("non-empty");
            let head_bytes = self.leaves[li].queues[class][0].bytes as u64;
            if self.leaves[li].deficit < head_bytes {
                self.advance_cursor();
                continue;
            }
            let entry = self.leaves[li].queues[class]
                .pop_front()
                .expect("non-empty");
            self.leaves[li].deficit -= head_bytes;
            let node = self.leaves[li].node;
            self.for_path(node, |s| {
                s.backlog_bytes
                    .fetch_sub(entry.bytes as u64, Ordering::Relaxed);
                s.backlog_pkts.fetch_sub(1, Ordering::Relaxed);
            });
            let sojourn = now_us.saturating_sub(entry.enqueued_at);
            let signal = self.leaves[li].codel.on_dequeue(now_us, sojourn);
            if signal && !entry.ecn_capable {
                self.for_path(node, |s| {
                    s.drops.fetch_add(1, Ordering::Relaxed);
                    s.aqm_drops.fetch_add(1, Ordering::Relaxed);
                });
                aqm_dropped.push((TrafficClass::ALL[class], entry.payload));
                continue;
            }
            if signal {
                self.for_path(node, |s| {
                    s.ecn_marks.fetch_add(1, Ordering::Relaxed);
                });
            }
            let bits = entry.bytes as u64 * 8;
            let payer = self
                .payer_for(li, now_us, entry.bytes)
                .expect("eligibility checked");
            let mut at = node;
            loop {
                self.nodes[at].ceil.consume(now_us, entry.bytes);
                if at == ROOT {
                    break;
                }
                at = self.nodes[at].parent;
            }
            self.nodes[payer].rate.consume(now_us, entry.bytes);
            if payer != node {
                self.shared.nodes[node]
                    .borrowed_bits
                    .fetch_add(bits, Ordering::Relaxed);
            }
            self.for_path(node, |s| {
                s.bits_sent.fetch_add(bits, Ordering::Relaxed);
                s.pkts_sent.fetch_add(1, Ordering::Relaxed);
            });
            if self.leaves[li].head_class().is_none() {
                self.leaves[li].deficit = 0;
                self.advance_cursor();
            }
            return DequeueOutcome {
                released: Some(Released {
                    payload: entry.payload,
                    class: TrafficClass::ALL[class],
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

pub(crate) mod tests {
    use super::ShapingTree as Oracle;
    use crate::{
        DequeueOutcome, EnqueueOutcome, NodeIdx, RatePlan, ShapingTree, TrafficClass, TreeShared,
        TreeSpec, ROOT,
    };
    use proptest::prelude::*;
    use qdisc::ClassMap;

    /// SplitMix64: the case generator behind one proptest seed.
    pub(crate) struct Gen(pub(crate) u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi`.
        pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo)
        }

        pub(crate) fn chance(&mut self, percent: u64) -> bool {
            self.range(0, 100) < percent
        }

        pub(crate) fn pick<'a, V>(&mut self, from: &'a [V]) -> &'a V {
            &from[self.range(0, from.len() as u64) as usize]
        }
    }

    /// Every port class of the test map: control, interactive media,
    /// control (RTCP), bulk media, background.
    const PORTS: [u16; 5] = [161, 5004, 5005, 7000, 9999];
    /// Bound to no subscriber, so it rides the default leaf.
    const UNBOUND_DST: u32 = 7;

    /// A random tree with `levels` interior levels below the root and
    /// `leaves` subscribers hung off the deepest level. Returns the
    /// spec and the subscriber destinations.
    fn random_spec(
        g: &mut Gen,
        levels: usize,
        leaves: usize,
        tight_codel: bool,
    ) -> (TreeSpec, Vec<u32>) {
        let uplink = g.range(1_000_000, 50_000_000);
        let class_map = ClassMap::builder(TrafficClass::Background)
            .route(161, TrafficClass::Control)
            .route(5005, TrafficClass::Control)
            .route(5004, TrafficClass::InteractiveMedia)
            .route(7000, TrafficClass::BulkMedia)
            .build();
        let mut spec = TreeSpec::new(uplink)
            .with_class_map(class_map)
            .with_burst_bytes(g.range(1_500, 6_000))
            .with_leaf_queue_cap(g.range(2, 48) as usize);
        if tight_codel {
            let target = g.range(200, 2_000);
            spec = spec.with_codel(target, target * g.range(2, 10));
        }
        let mut level: Vec<NodeIdx> = vec![ROOT];
        for depth in 0..levels {
            let mut next = Vec::new();
            for _ in 0..g.range(1, 5) {
                let parent = *g.pick(&level);
                let assured = g.range(uplink / 8, uplink + 1);
                let ceil = g.range(assured, uplink + 1);
                next.push(spec.add_child(
                    parent,
                    &format!("n{depth}.{}", next.len()),
                    assured,
                    ceil,
                ));
            }
            level = next;
        }
        let mut dsts = Vec::with_capacity(leaves);
        for i in 0..leaves {
            let assured = g.range(64_000, 5_000_000);
            let plan = RatePlan::new("p", assured, assured * g.range(1, 5));
            let dst = 1_000 + i as u32;
            spec.add_subscriber(*g.pick(&level), &format!("s{i}"), &plan, dst);
            dsts.push(dst);
        }
        (spec, dsts)
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

    fn counters(s: &TreeShared) -> Vec<[u64; 8]> {
        use std::sync::atomic::Ordering::Relaxed;
        s.nodes
            .iter()
            .map(|n| {
                [
                    n.backlog_bytes.load(Relaxed),
                    n.backlog_pkts.load(Relaxed),
                    n.drops.load(Relaxed),
                    n.ecn_marks.load(Relaxed),
                    n.borrowed_bits.load(Relaxed),
                    n.bits_sent.load(Relaxed),
                    n.aqm_drops.load(Relaxed),
                    n.pkts_sent.load(Relaxed),
                ]
            })
            .collect()
    }

    /// The tree under test and the oracle, driven in lockstep; every
    /// call returns an error naming the first divergence.
    struct Lockstep {
        new: ShapingTree<u32>,
        old: Oracle<u32>,
        next_payload: u32,
    }

    impl Lockstep {
        fn new(spec: TreeSpec) -> Lockstep {
            Lockstep {
                new: ShapingTree::new(spec.clone()),
                old: Oracle::new(spec),
                next_payload: 0,
            }
        }

        fn check_counters(&self, what: &str) -> Result<(), String> {
            let (a, b) = (
                counters(&self.new.shared),
                counters(&self.old.shared_stats()),
            );
            if a != b {
                let n = (0..a.len()).find(|&i| a[i] != b[i]).unwrap_or(0);
                return Err(format!(
                    "{what}: node {n} counters {:?} vs oracle {:?}",
                    a[n], b[n]
                ));
            }
            if self.new.backlog_pkts() != self.old.backlog_pkts() {
                return Err(format!(
                    "{what}: backlog_pkts {} vs oracle {}",
                    self.new.backlog_pkts(),
                    self.old.backlog_pkts()
                ));
            }
            Ok(())
        }

        fn enqueue(
            &mut self,
            now: u64,
            dst: u32,
            port: u16,
            bytes: u32,
            ecn: bool,
        ) -> Result<(), String> {
            let p = self.next_payload;
            self.next_payload += 1;
            let a = self.new.enqueue(now, dst, port, bytes, ecn, p);
            let b = self.old.enqueue(now, dst, port, bytes, ecn, p);
            let what = format!("enqueue(t={now}, dst={dst}, port={port}, {bytes} B, ect={ecn})");
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

    /// One random call sequence against a random tree.
    fn drive(
        seed: u64,
        levels: usize,
        leaves: usize,
        saturated: bool,
        tight_codel: bool,
    ) -> Result<(), String> {
        let mut g = Gen(seed);
        let (spec, dsts) = random_spec(&mut g, levels, leaves, tight_codel);
        let mut run = Lockstep::new(spec);
        // Sparse runs keep a handful of subscribers busy among idle
        // ones; saturated runs load every leaf from the start.
        let busy: Vec<u32> = if saturated {
            dsts.clone()
        } else {
            (0..g.range(1, 6)).map(|_| *g.pick(&dsts)).collect()
        };
        let ect_percent = g.range(0, 101);
        let mut t = 0u64;
        let packet = |g: &mut Gen, run: &mut Lockstep, t: u64| {
            let dst = if g.chance(5) {
                UNBOUND_DST
            } else {
                *g.pick(&busy)
            };
            let bytes = if g.chance(10) {
                g.range(1_600, 9_000)
            } else {
                g.range(40, 1_600)
            };
            let ecn = g.chance(ect_percent);
            run.enqueue(t, dst, *g.pick(&PORTS), bytes as u32, ecn)
        };
        if saturated {
            for _ in 0..g.range(1, 4) {
                for _ in 0..busy.len() {
                    packet(&mut g, &mut run, t)?;
                }
            }
        }
        for _ in 0..1_000 {
            match g.range(0, 100) {
                0..=39 => {
                    for _ in 0..g.range(1, 4) {
                        packet(&mut g, &mut run, t)?;
                    }
                }
                40..=84 => {
                    let (released, _, next_at) = run.dequeue(t)?;
                    if let (None, Some(at)) = (released, next_at) {
                        if g.chance(70) {
                            t = at;
                        }
                    }
                }
                _ => run.next_ready(t + g.range(0, 5_000))?,
            }
            if g.chance(30) {
                t += g.range(0, 3_000);
            }
        }
        // Drain what is left, so every queued packet is compared.
        for _ in 0..100_000 {
            match run.dequeue(t)? {
                (None, _, None) => return Ok(()),
                (None, _, Some(at)) => t = at,
                _ => {}
            }
        }
        Err("tree did not drain".to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The indexed scheduler is bit-identical to the full scan on
        /// random trees, plans, backlogs, ECT mixes and CoDel constants.
        #[test]
        fn indexed_scheduler_matches_full_scan_oracle(
            seed in any::<u64>(),
            levels in 1usize..4,
            leaves in 1usize..301,
            saturated in any::<bool>(),
            tight_codel in any::<bool>(),
        ) {
            let verdict = drive(seed, levels, leaves, saturated, tight_codel);
            prop_assert!(
                verdict.is_ok(),
                "seed={seed} levels={levels} leaves={leaves} saturated={saturated} \
                 tight_codel={tight_codel}: {}",
                verdict.unwrap_err()
            );
        }
    }

    /// A CoDel drop that empties the cursor's leaf leaves the cursor
    /// there with its remaining deficit and grant: when the leaf
    /// refills before the next call, it spends that deficit instead of
    /// receiving a fresh quantum — exactly as the full scan does.
    #[test]
    fn codel_drop_emptying_cursor_leaf_keeps_deficit_and_grant() {
        let mut spec = TreeSpec::new(100_000_000).with_codel(1_000, 2_000);
        let plan = RatePlan::new("p", 50_000_000, 100_000_000);
        spec.add_subscriber(ROOT, "a", &plan, 100);
        spec.add_subscriber(ROOT, "b", &plan, 101);
        let mut run = Lockstep::new(spec);
        let li = run.new.dst_map[&101];
        let quantum = run.new.leaves[li].quantum;
        // One non-ECT packet at a time, always dequeued 3 ms late: the
        // sojourn stays above target until CoDel drops the only packet.
        let mut t = 0u64;
        let retained = loop {
            assert!(t < 1_000_000, "CoDel never dropped");
            run.enqueue(t, 101, 9_999, 100, false).unwrap();
            t += 3_000;
            let (released, dropped, _) = run.dequeue(t).unwrap();
            if !dropped.is_empty() {
                assert!(released.is_none(), "the drop emptied the only busy leaf");
                assert_eq!(run.new.cursor, li, "cursor stays on the emptied leaf");
                assert!(run.new.granted, "grant survives the drop");
                break run.new.leaves[li].deficit;
            }
        };
        assert_eq!(retained, quantum - 100, "dropped packet was charged");
        // Refill with two packets before the next dequeue.
        run.enqueue(t, 101, 9_999, 100, true).unwrap();
        run.enqueue(t, 101, 9_999, 100, true).unwrap();
        let (released, _, _) = run.dequeue(t).unwrap();
        assert!(released.is_some());
        assert_eq!(run.new.cursor, li);
        assert_eq!(
            run.new.leaves[li].deficit,
            retained - 100,
            "spent the retained deficit, no second quantum"
        );
        while run.dequeue(t).unwrap().0.is_some() {}
        run.enqueue(t, 100, 9_999, 100, false).unwrap();
        assert!(run.dequeue(t).unwrap().0.is_some());
    }
}
