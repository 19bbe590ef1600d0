//! Hierarchical last-mile shaping tree: HTB-style borrowing with one
//! CoDel/ECN AQM instance per leaf. This is the one egress scheduler
//! `simnet` mounts on a link.
//!
//! An ISP's last mile is hierarchical: a shared uplink fans out to
//! sites, sites to access points, access points to subscribers, and
//! every level has both an **assured rate** (what the plan guarantees)
//! and a **ceiling** (what the plan may burst to when ancestors have
//! spare capacity). This crate models that hierarchy the way LibreQoS
//! mounts HTB + per-customer AQM on real ISP middleboxes:
//!
//! * a [`TreeSpec`] describes the topology — root uplink → sites →
//!   access points → subscriber leaves, each node carrying
//!   `assured_bps`/`ceil_bps` from a [`RatePlan`] catalog;
//! * [`ShapingTree`] compiles the spec into a tree of dual
//!   [`TokenBucket`]s (one at the assured rate, one at the ceiling)
//!   with HTB-style borrowing: a leaf spends its own assured tokens
//!   first, then borrows unused tokens from the nearest ancestor that
//!   has some, provided every ceiling on the path conforms;
//! * leaves share the uplink via Deficit Round Robin with quanta
//!   proportional to their assured rates, so borrowed surplus divides
//!   quantum-proportionally among the backlogged children;
//! * each subscriber leaf owns one [`CoDel`] controller over its
//!   per-class FIFOs, so a congested subscriber is ECN-marked (and
//!   eventually dropped) without touching its neighbours' queues.
//!
//! A flat per-link plane is the one-level case. [`TreeSpec::flat`]
//! compiles a [`QdiscConfig`] into a root that is the link shaper (or
//! never blocks, on an unshaped link) and one leaf per
//! [`TrafficClass`], each with that class's DRR quantum, FIFO depth and
//! its own CoDel. Every leaf is rated at the root's rate, so only the
//! root ever paces and the DRR over the leaves is the class scheduler.
//! A differential suite pins this tree to the former flat scheduler,
//! kept as a test-only oracle.
//!
//! All accounting is integer bit-µs (one [`TokenBucket`] type for every
//! rate and ceiling), so the schedule is exactly reproducible: same
//! enqueue/dequeue call sequence, same marks, drops, and borrow
//! ledger. The fairness invariants the bench and proptests pin:
//!
//! 1. no subscriber exceeds its ceiling over any window (beyond the
//!    configured burst);
//! 2. the children of any node never outrun the node itself (every
//!    send debits every ancestor's ceiling bucket);
//! 3. work conservation — when aggregate demand ≥ uplink capacity the
//!    root is never idle (the root is the payer of last resort);
//! 4. the first ECN mark precedes the first drop for ECT traffic.
//!
//! ## Cost model
//!
//! The tree keeps a bitmap of backlogged leaves, set when a leaf queues
//! a packet and cleared when a release or an AQM drop empties it. Every
//! scheduler path walks that index, never the whole leaf table:
//! [`ShapingTree::next_ready`] visits each backlogged leaf once, and
//! [`ShapingTree::dequeue`] moves its DRR cursor straight to the next
//! backlogged leaf. Per-packet work is therefore O(backlogged leaves ×
//! tree depth) plus one word test per 64 leaves, and an idle
//! subscriber costs nothing per packet beyond its bit. When the
//! cursor's own leaf can send, `dequeue` does not scan at all.
//!
//! A flat tree has depth two and at most four backlogged leaves, so a
//! packet costs a few token-bucket projections and one counter update
//! per node on its path (leaf and root) at enqueue and at release.

use qdisc::{
    ClassConfig, ClassMap, CoDel, QdiscConfig, Shaper, SharedStats, StatsHandle, TokenBucket,
    CLASS_COUNT, DEFAULT_INTERVAL_US, DEFAULT_TARGET_US,
};

// Re-exported so consumers of the tree can pattern-match enqueue and
// dequeue outcomes without a direct qdisc dependency.
pub use qdisc::{DequeueOutcome, EnqueueOutcome, Released, TrafficClass};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Node index within a [`TreeSpec`] / [`ShapingTree`].
pub type NodeIdx = usize;

/// The root uplink node's index.
pub const ROOT: NodeIdx = 0;

/// The implicit default leaf's index (unmatched destinations — control
/// traffic, SNMP, anything not behind a subscriber plan). In a
/// [`TreeSpec::flat`] tree, index 1 is the `Control` class leaf.
pub const DEFAULT_LEAF: NodeIdx = 1;

/// One entry of a rate-plan catalog: the service tier a subscriber
/// bought, as an assured (committed) rate plus a burst ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatePlan {
    /// Marketing name, kept for summaries and failure messages.
    pub name: String,
    /// Committed information rate in bits per second.
    pub assured_bps: u64,
    /// Burst ceiling in bits per second (`>= assured_bps`).
    pub ceil_bps: u64,
}

impl RatePlan {
    /// A plan assuring `assured_bps` with ceiling `ceil_bps`.
    pub fn new(name: &str, assured_bps: u64, ceil_bps: u64) -> RatePlan {
        assert!(assured_bps > 0, "plan must assure a positive rate");
        assert!(ceil_bps >= assured_bps, "ceiling below assured rate");
        RatePlan {
            name: name.to_string(),
            assured_bps,
            ceil_bps,
        }
    }
}

/// What a spec node is once compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
enum NodeKind {
    /// Aggregation point (root, site, access point): carries buckets,
    /// never queues packets itself.
    Interior,
    /// Subscriber leaf. `Some(dst)` binds it to a destination node id;
    /// `None` is a default leaf catching unmatched destinations.
    Leaf(Option<u32>),
}

/// One node of the topology description.
#[derive(Clone, Debug)]
struct NodeSpec {
    name: String,
    parent: NodeIdx,
    assured_bps: u64,
    ceil_bps: u64,
    kind: NodeKind,
    /// On a flat tree's default leaves: the one class the leaf catches,
    /// with that class's DRR quantum and FIFO depth. `None` elsewhere:
    /// the leaf catches every class, its quantum follows its assured
    /// rate and its FIFOs the spec-wide depth.
    class_leaf: Option<(TrafficClass, ClassConfig)>,
}

/// Topology description for a [`ShapingTree`]: root uplink → sites →
/// access points → subscriber leaves.
///
/// [`TreeSpec::new`] creates the root (index [`ROOT`], assured =
/// ceiling = the uplink rate) and a small default leaf (index
/// [`DEFAULT_LEAF`]) that carries traffic whose destination is not
/// bound to any subscriber — management and control flows keep moving
/// even when every plan is saturated. Everything else is added with
/// [`add_site`](TreeSpec::add_site) /
/// [`add_ap`](TreeSpec::add_ap) /
/// [`add_subscriber`](TreeSpec::add_subscriber).
#[derive(Clone, Debug)]
pub struct TreeSpec {
    nodes: Vec<NodeSpec>,
    class_map: ClassMap,
    codel_target_us: u64,
    codel_interval_us: u64,
    /// Per-class FIFO depth at each leaf, in packets.
    leaf_queue_cap_pkts: usize,
    /// Token-bucket depth for every rate and ceiling bucket, bytes.
    burst_bytes: u64,
    /// Destinations already bound to a subscriber leaf.
    bound_dsts: BTreeSet<u32>,
}

impl TreeSpec {
    /// A tree whose root uplink sustains `uplink_bps`, with the
    /// collabqos default classifier, classic CoDel constants (5 ms /
    /// 100 ms), 256-packet leaf FIFOs and a 2-MTU burst.
    pub fn new(uplink_bps: u64) -> TreeSpec {
        assert!(uplink_bps > 0, "uplink rate must be positive");
        // The default leaf is assured 1% of the uplink (at least
        // 64 kbit/s) so control traffic survives full subscriber load,
        // and may burst to the whole uplink when nothing else is on.
        let default_assured = (uplink_bps / 100).max(64_000).min(uplink_bps);
        TreeSpec {
            nodes: vec![
                NodeSpec {
                    name: "uplink".to_string(),
                    parent: ROOT,
                    assured_bps: uplink_bps,
                    ceil_bps: uplink_bps,
                    kind: NodeKind::Interior,
                    class_leaf: None,
                },
                NodeSpec {
                    name: "default".to_string(),
                    parent: ROOT,
                    assured_bps: default_assured,
                    ceil_bps: uplink_bps,
                    kind: NodeKind::Leaf(None),
                    class_leaf: None,
                },
            ],
            class_map: ClassMap::collabqos_default(),
            codel_target_us: DEFAULT_TARGET_US,
            codel_interval_us: DEFAULT_INTERVAL_US,
            leaf_queue_cap_pkts: 256,
            burst_bytes: 3_000,
            bound_dsts: BTreeSet::new(),
        }
    }

    /// The flat plane `cfg` describes, as a one-level tree: the root
    /// (index [`ROOT`]) is the link shaper, and nodes 1..=4 are one
    /// default leaf per class in [`TrafficClass::ALL`] order, each
    /// carrying that class's DRR quantum and FIFO depth and its own
    /// CoDel with `cfg`'s constants. Every leaf is rated at the root's
    /// rate, so only the root paces.
    ///
    /// An unshaped link (`link_shaper: None`) gets a root that never
    /// blocks: a bucket of `u64::MAX` bit/s, `u64::MAX / 8` bytes deep.
    /// Emptying it would take more than 5·10⁸ maximum-size packets
    /// within one microsecond, or a sustained 1.8·10¹⁹ bit/s.
    ///
    /// # Panics
    ///
    /// On a zero DRR quantum: the scheduler would never release that
    /// class's packets.
    pub fn flat(cfg: &QdiscConfig) -> TreeSpec {
        let link = cfg.link_shaper.unwrap_or(Shaper {
            rate_bps: u64::MAX,
            burst_bytes: u64::MAX / 8,
        });
        let node = |name: &str, kind, class_leaf| NodeSpec {
            name: name.to_string(),
            parent: ROOT,
            assured_bps: link.rate_bps,
            ceil_bps: link.rate_bps,
            kind,
            class_leaf,
        };
        let mut nodes = vec![node("link", NodeKind::Interior, None)];
        for class in TrafficClass::ALL {
            let c = cfg.classes[class.index()];
            assert!(c.quantum > 0, "{class} DRR quantum must be positive");
            nodes.push(node(class.name(), NodeKind::Leaf(None), Some((class, c))));
        }
        TreeSpec {
            nodes,
            class_map: cfg.class_map.clone(),
            codel_target_us: cfg.codel_target_us,
            codel_interval_us: cfg.codel_interval_us,
            leaf_queue_cap_pkts: 256,
            burst_bytes: link.burst_bytes,
            bound_dsts: BTreeSet::new(),
        }
    }

    /// Replace the leaf classifier (shared with per-link qdiscs via
    /// [`ClassMap::builder`]).
    pub fn with_class_map(mut self, map: ClassMap) -> TreeSpec {
        self.class_map = map;
        self
    }

    /// Override the per-leaf CoDel constants.
    pub fn with_codel(mut self, target_us: u64, interval_us: u64) -> TreeSpec {
        self.codel_target_us = target_us;
        self.codel_interval_us = interval_us;
        self
    }

    /// Override the per-class FIFO depth at each leaf.
    pub fn with_leaf_queue_cap(mut self, pkts: usize) -> TreeSpec {
        assert!(pkts > 0, "leaf queues need at least one slot");
        self.leaf_queue_cap_pkts = pkts;
        self
    }

    /// Override the token-bucket burst depth (bytes).
    pub fn with_burst_bytes(mut self, bytes: u64) -> TreeSpec {
        assert!(bytes > 0, "burst must be positive");
        self.burst_bytes = bytes;
        self
    }

    fn add_node(
        &mut self,
        parent: NodeIdx,
        name: &str,
        assured_bps: u64,
        ceil_bps: u64,
        kind: NodeKind,
    ) -> NodeIdx {
        assert!(parent < self.nodes.len(), "unknown parent node");
        assert!(
            self.nodes[parent].kind == NodeKind::Interior,
            "cannot attach under a subscriber leaf"
        );
        assert!(assured_bps > 0, "assured rate must be positive");
        assert!(ceil_bps >= assured_bps, "ceiling below assured rate");
        self.nodes.push(NodeSpec {
            name: name.to_string(),
            parent,
            assured_bps,
            ceil_bps,
            kind,
            class_leaf: None,
        });
        self.nodes.len() - 1
    }

    /// Add a site under the root uplink.
    pub fn add_site(&mut self, name: &str, assured_bps: u64, ceil_bps: u64) -> NodeIdx {
        self.add_node(ROOT, name, assured_bps, ceil_bps, NodeKind::Interior)
    }

    /// Add an access point under `site`.
    pub fn add_ap(
        &mut self,
        site: NodeIdx,
        name: &str,
        assured_bps: u64,
        ceil_bps: u64,
    ) -> NodeIdx {
        self.add_node(site, name, assured_bps, ceil_bps, NodeKind::Interior)
    }

    /// Add an aggregation node under an arbitrary interior `parent`
    /// (for deeper hierarchies than site → AP).
    pub fn add_child(
        &mut self,
        parent: NodeIdx,
        name: &str,
        assured_bps: u64,
        ceil_bps: u64,
    ) -> NodeIdx {
        self.add_node(parent, name, assured_bps, ceil_bps, NodeKind::Interior)
    }

    /// Add a subscriber leaf under `parent`, rated by `plan`, carrying
    /// all traffic whose final destination is node `dst` in the
    /// simulated network. Each destination binds at most one leaf.
    pub fn add_subscriber(
        &mut self,
        parent: NodeIdx,
        name: &str,
        plan: &RatePlan,
        dst: u32,
    ) -> NodeIdx {
        assert!(
            !self.bound_dsts.contains(&dst),
            "destination {dst} already bound to a subscriber leaf"
        );
        let idx = self.add_node(
            parent,
            name,
            plan.assured_bps,
            plan.ceil_bps,
            NodeKind::Leaf(Some(dst)),
        );
        self.bound_dsts.insert(dst);
        idx
    }

    /// Total number of nodes, including root and default leaf.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of subscriber leaves (excluding the default leaf).
    pub fn subscriber_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf(Some(_))))
            .count()
    }

    /// Every subscriber leaf as `(node index, destination node id)`,
    /// in spec order (the default leaf is excluded).
    pub fn subscriber_nodes(&self) -> Vec<(NodeIdx, u32)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                NodeKind::Leaf(Some(d)) => Some((i, d)),
                _ => None,
            })
            .collect()
    }

    /// Name of node `idx`.
    pub fn node_name(&self, idx: NodeIdx) -> &str {
        &self.nodes[idx].name
    }

    /// Parent of node `idx` (the root is its own parent).
    pub fn node_parent(&self, idx: NodeIdx) -> NodeIdx {
        self.nodes[idx].parent
    }

    /// Assured rate of node `idx`, bits per second.
    pub fn node_assured_bps(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].assured_bps
    }

    /// Ceiling of node `idx`, bits per second.
    pub fn node_ceil_bps(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].ceil_bps
    }

    /// The configured leaf classifier.
    pub fn class_map(&self) -> &ClassMap {
        &self.class_map
    }

    /// One-line summary (printed by CI jobs on failure).
    pub fn summary(&self) -> String {
        format!(
            "uplink={}bps nodes={} subscribers={} codel={}us/{}us cap={}pkt burst={}B",
            self.nodes[ROOT].ceil_bps,
            self.node_count(),
            self.subscriber_count(),
            self.codel_target_us,
            self.codel_interval_us,
            self.leaf_queue_cap_pkts,
            self.burst_bytes
        )
    }
}

impl fmt::Display for TreeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Shared view of a compiled tree: static per-node rates plus live
/// counters, indexed by [`NodeIdx`]. Backlog, drops, marks and packets
/// and bits sent aggregate over each node's whole subtree, so interior
/// rows answer "how is this site doing" directly; `borrowed_bits` is
/// attributed to the borrowing leaf alone.
#[derive(Debug)]
pub struct TreeShared {
    nodes: Vec<StatsHandle>,
    /// Static `(assured_bps, ceil_bps)` per node.
    rates: Vec<(u64, u64)>,
}

impl TreeShared {
    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Live counters for node `idx`; clone the handle to keep them.
    pub fn node(&self, idx: NodeIdx) -> &StatsHandle {
        &self.nodes[idx]
    }

    /// Assured rate of node `idx`, bits per second.
    pub fn rate_bps(&self, idx: NodeIdx) -> u64 {
        self.rates[idx].0
    }

    /// Ceiling of node `idx`, bits per second.
    pub fn ceil_bps(&self, idx: NodeIdx) -> u64 {
        self.rates[idx].1
    }

    /// Bits sent by node `idx`'s subtree so far.
    pub fn bits_sent(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].bits_sent.load(Ordering::Relaxed)
    }

    /// Current subtree backlog of node `idx`, bytes.
    pub fn backlog_bytes(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].backlog_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative subtree drops of node `idx`.
    pub fn drops(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].drops.load(Ordering::Relaxed)
    }

    /// Cumulative subtree ECN marks of node `idx`.
    pub fn ecn_marks(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].ecn_marks.load(Ordering::Relaxed)
    }

    /// Bits node `idx` sent on borrowed tokens.
    pub fn borrowed_bits(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].borrowed_bits.load(Ordering::Relaxed)
    }
}

/// Cloneable handle to a tree's live counters.
pub type TreeStatsHandle = Arc<TreeShared>;

/// A compiled tree node: dual buckets plus topology.
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

/// A leaf: per-class FIFOs behind one CoDel instance.
struct Leaf<T> {
    node: NodeIdx,
    queues: [VecDeque<Entry<T>>; CLASS_COUNT],
    codel: CoDel,
    /// DRR byte deficit.
    deficit: u64,
    /// DRR byte quantum: proportional to the assured rate on a
    /// subscriber leaf, the class's own on a flat tree's class leaf.
    quantum: u64,
    /// Depth of each per-class FIFO, in packets.
    queue_cap: usize,
}

impl<T> Leaf<T> {
    /// Class index of the head-of-line packet: strict priority across
    /// the per-class FIFOs (Control first), FIFO within a class.
    fn head_class(&self) -> Option<usize> {
        (0..CLASS_COUNT).find(|&c| !self.queues[c].is_empty())
    }

    fn head_bytes(&self) -> Option<u32> {
        self.head_class().map(|c| self.queues[c][0].bytes)
    }
}

/// DRR byte quantum for a leaf assured `assured_bps`: HTB's `r2q`
/// heuristic (`rate in bytes/s ÷ r2q`, r2q = 10) with a one-MTU floor,
/// so surplus splits in proportion to the assured rates — a 4 Mbit
/// plan gets 4× the bytes per round of a 1 Mbit plan.
fn quantum_for(assured_bps: u64) -> u64 {
    (assured_bps / 8 / 10).max(1_514)
}

/// The compiled shaping tree. See the crate docs for the model; the
/// driving contract is `enqueue` at arrival, `dequeue` whenever the
/// wire is free, and a reschedule at `next_at` when nothing conforms.
pub struct ShapingTree<T> {
    spec: TreeSpec,
    nodes: Vec<Node>,
    leaves: Vec<Leaf<T>>,
    /// Destination node id → leaf table index.
    dst_map: BTreeMap<u32, usize>,
    /// Leaf table index of the default leaf for each class: one leaf
    /// for all four on a subscriber tree, one per class on a flat tree.
    default_leaf: [usize; CLASS_COUNT],
    /// DRR position over the leaf table.
    cursor: usize,
    /// Whether the cursor's leaf already received its quantum this
    /// visit.
    granted: bool,
    /// One bit per leaf table index, set exactly while that leaf has a
    /// packet queued.
    active: Vec<u64>,
    shared: TreeStatsHandle,
}

impl<T> ShapingTree<T> {
    /// Compile `spec` into a runnable tree with full buckets and empty
    /// queues.
    pub fn new(spec: TreeSpec) -> ShapingTree<T> {
        let burst = spec.burst_bytes;
        let mut nodes = Vec::with_capacity(spec.nodes.len());
        let mut leaves = Vec::new();
        let mut dst_map = BTreeMap::new();
        let mut default_leaf = [None; CLASS_COUNT];
        for (idx, n) in spec.nodes.iter().enumerate() {
            if let NodeKind::Leaf(dst) = n.kind {
                let li = leaves.len();
                match (dst, n.class_leaf) {
                    (Some(d), _) => {
                        dst_map.insert(d, li);
                    }
                    (None, Some((class, _))) => default_leaf[class.index()] = Some(li),
                    (None, None) => default_leaf = [Some(li); CLASS_COUNT],
                }
                let (quantum, queue_cap) = match n.class_leaf {
                    Some((_, c)) => (c.quantum as u64, c.queue_cap_pkts),
                    None => (quantum_for(n.assured_bps), spec.leaf_queue_cap_pkts),
                };
                leaves.push(Leaf {
                    node: idx,
                    queues: std::array::from_fn(|_| VecDeque::new()),
                    codel: CoDel::new(spec.codel_target_us, spec.codel_interval_us),
                    deficit: 0,
                    quantum,
                    queue_cap,
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
            active: vec![0; leaves.len().div_ceil(64)],
            leaves,
            dst_map,
            default_leaf: default_leaf
                .map(|li| li.expect("spec carries a default leaf for every class")),
            cursor: 0,
            granted: false,
            shared,
        }
    }

    /// The spec this tree was compiled from.
    pub fn spec(&self) -> &TreeSpec {
        &self.spec
    }

    /// Handle to the live per-node counters (for SNMP instrumentation).
    pub fn shared_stats(&self) -> TreeStatsHandle {
        Arc::clone(&self.shared)
    }

    /// Class for a destination port, per the spec's map.
    pub fn classify(&self, port: u16) -> TrafficClass {
        self.spec.class_map.classify(port)
    }

    /// The tree node whose leaf carries traffic for destination `dst`
    /// (the default leaf when `dst` is not bound to a subscriber; on a
    /// flat tree, the leaf of the class map's default class).
    pub fn leaf_for_dst(&self, dst: u32) -> NodeIdx {
        let class = self.spec.class_map.default_class().index();
        let li = self.dst_map.get(&dst).copied();
        self.leaves[li.unwrap_or(self.default_leaf[class])].node
    }

    /// Total packets currently queued across all leaves (the root's
    /// subtree gauge).
    pub fn backlog_pkts(&self) -> usize {
        self.shared.nodes[ROOT].backlog_pkts.load(Ordering::Relaxed) as usize
    }

    /// Walk `idx` → root applying `f` to every node on the path
    /// (including both endpoints).
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

    /// Offer a packet of `bytes` wire bytes for destination node `dst`
    /// on destination `port` at instant `now_us`. Bounded per-class
    /// FIFO at the leaf: overflow hands the payload back.
    pub fn enqueue(
        &mut self,
        now_us: u64,
        dst: u32,
        port: u16,
        bytes: u32,
        ecn_capable: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        let class = self.spec.class_map.classify(port).index();
        let li = self.dst_map.get(&dst).copied();
        let li = li.unwrap_or(self.default_leaf[class]);
        let node = self.leaves[li].node;
        if self.leaves[li].queues[class].len() >= self.leaves[li].queue_cap {
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
        self.active[li / 64] |= 1 << (li % 64);
        self.for_path(node, |s| {
            s.backlog_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            s.backlog_pkts.fetch_add(1, Ordering::Relaxed);
        });
        EnqueueOutcome::Queued
    }

    /// The node that will pay assured-rate tokens for the head packet
    /// of leaf `li` at `now`: the first node on the leaf → root path
    /// whose rate bucket conforms (self first — borrow only when own
    /// tokens are spent). `None` when every ancestor is also dry.
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

    /// Whether every ceiling bucket on leaf `li`'s path conforms.
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

    /// Whether leaf `li`'s head packet could be released at `now`.
    fn leaf_eligible(&self, li: usize, now: u64) -> bool {
        let Some(bytes) = self.leaves[li].head_bytes() else {
            return false;
        };
        self.path_ceils_conform(li, now, bytes) && self.payer_for(li, now, bytes).is_some()
    }

    /// Earliest instant `>= after_us` at which some leaf's head packet
    /// becomes eligible, or `None` when every queue is empty. Exact:
    /// ceiling conformance needs *all* path buckets (latest of their
    /// thresholds), a payer needs *any* rate bucket (earliest), and
    /// both thresholds are sharp because tokens only grow until the
    /// next consume. Visits only backlogged leaves, in table order.
    pub fn next_ready(&self, after_us: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for (w, &word) in self.active.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let li = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let leaf = &self.leaves[li];
                let bytes = leaf.head_bytes().expect("active leaf has a queued packet");
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
                    // Every candidate is >= after_us, so an eligible-now
                    // leaf is already the minimum: stop scanning.
                    return Some(t);
                }
                best = Some(best.map_or(t, |b: u64| b.min(t)));
            }
        }
        best
    }

    /// Move the DRR cursor to the first backlogged leaf after `li` in
    /// table order, wrapping around (back to `li` when it is the only
    /// one). A plain DRR walk would visit every leaf in between, but
    /// those are all empty and their deficits already zero, so the
    /// jump leaves the same state. Callers guarantee a backlogged leaf.
    fn jump_past(&mut self, li: usize) {
        let from = (li + 1) % self.leaves.len();
        let words = self.active.len();
        let mut w = from / 64;
        let mut bits = self.active[w] & (u64::MAX << (from % 64));
        for _ in 0..words {
            if bits != 0 {
                break;
            }
            w = (w + 1) % words;
            bits = self.active[w];
        }
        assert!(bits != 0, "DRR jump with no backlogged leaf");
        self.cursor = w * 64 + bits.trailing_zeros() as usize;
        self.granted = false;
    }

    /// Run the scheduler at instant `now_us` and release at most one
    /// packet. CoDel may additionally drop non-ECT packets on the way;
    /// they are returned for accounting. When nothing is eligible the
    /// outcome carries `next_at` so the caller can reschedule.
    pub fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<T> {
        let mut aqm_dropped = Vec::new();
        // Whether `next_ready` has shown some leaf eligible at `now_us`
        // since the queues last changed. Cursor moves and quantum
        // grants touch no bucket and no queue, so only a pop (here, an
        // AQM drop) can change the answer.
        let mut some_eligible = false;
        loop {
            let li = self.cursor;
            // An eligible cursor leaf is itself proof that something is
            // eligible now, so the common case prices nothing.
            if !self.leaf_eligible(li, now_us) {
                if !some_eligible {
                    // `next_ready` is exact, so one scan both decides
                    // whether any leaf is eligible *now* and prices the
                    // reschedule.
                    match self.next_ready(now_us) {
                        Some(at) if at <= now_us => some_eligible = true,
                        next_at => {
                            return DequeueOutcome {
                                released: None,
                                aqm_dropped,
                                next_at,
                            };
                        }
                    }
                }
                // Empty, ceiling-blocked, or the whole path is out of
                // assured tokens: forfeit the deficit and let the others
                // run.
                self.leaves[li].deficit = 0;
                self.jump_past(li);
                continue;
            }
            if !self.granted {
                self.leaves[li].deficit += self.leaves[li].quantum;
                self.granted = true;
            }
            let class = self.leaves[li].head_class().expect("non-empty");
            let head_bytes = self.leaves[li].queues[class][0].bytes as u64;
            if self.leaves[li].deficit < head_bytes {
                // Share spent for this round.
                self.jump_past(li);
                continue;
            }
            let entry = self.leaves[li].queues[class]
                .pop_front()
                .expect("non-empty");
            self.leaves[li].deficit -= head_bytes;
            let emptied = self.leaves[li].head_class().is_none();
            if emptied {
                self.active[li / 64] &= !(1 << (li % 64));
            }
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
                // The cursor stays put, keeping the leaf's deficit and
                // grant should it refill before the next call.
                some_eligible = false;
                continue;
            }
            if signal {
                self.for_path(node, |s| {
                    s.ecn_marks.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Charge the send: every ceiling on the path, plus the
            // payer's assured-rate bucket. A payer above the leaf means
            // the leaf ran on borrowed tokens.
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
            if emptied {
                // Step, not jump: no leaf may be backlogged now, and the
                // next call skips any empty leaves from here.
                self.leaves[li].deficit = 0;
                self.cursor = (li + 1) % self.leaves.len();
                self.granted = false;
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

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod flat_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 Mbit/s uplink (1 byte/µs), one site, one AP, two subscribers.
    fn two_sub_spec() -> (TreeSpec, NodeIdx, NodeIdx) {
        let mut spec = TreeSpec::new(8_000_000);
        let site = spec.add_site("site-0", 8_000_000, 8_000_000);
        let ap = spec.add_ap(site, "ap-0", 8_000_000, 8_000_000);
        let gold = RatePlan::new("gold", 4_000_000, 8_000_000);
        let bronze = RatePlan::new("bronze", 1_000_000, 2_000_000);
        let a = spec.add_subscriber(ap, "sub-a", &gold, 100);
        let b = spec.add_subscriber(ap, "sub-b", &bronze, 101);
        (spec, a, b)
    }

    #[test]
    fn spec_builds_expected_shape() {
        let (spec, a, b) = two_sub_spec();
        assert_eq!(spec.node_count(), 6, "root + default + site + ap + 2 subs");
        assert_eq!(spec.subscriber_count(), 2);
        assert_eq!(spec.node_name(ROOT), "uplink");
        assert_eq!(spec.node_name(DEFAULT_LEAF), "default");
        assert_eq!(spec.node_parent(a), spec.node_parent(b));
        assert_eq!(spec.node_assured_bps(a), 4_000_000);
        assert_eq!(spec.node_ceil_bps(b), 2_000_000);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_destination_rejected() {
        let (mut spec, _, _) = two_sub_spec();
        let plan = RatePlan::new("dup", 1_000_000, 1_000_000);
        spec.add_subscriber(ROOT, "dup", &plan, 100);
    }

    #[test]
    #[should_panic(expected = "under a subscriber leaf")]
    fn cannot_nest_under_leaf() {
        let (mut spec, a, _) = two_sub_spec();
        spec.add_child(a, "bad", 1_000, 1_000);
    }

    #[test]
    fn unmatched_destination_rides_the_default_leaf() {
        let (spec, _, _) = two_sub_spec();
        let tree: ShapingTree<u32> = ShapingTree::new(spec);
        assert_eq!(tree.leaf_for_dst(100), 4);
        assert_eq!(tree.leaf_for_dst(9999), DEFAULT_LEAF);
    }

    #[test]
    fn fifo_within_a_leaf_and_strict_priority_between_classes() {
        let (spec, _, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        // Background first, then control: control must come out first.
        tree.enqueue(0, 100, 9_999, 100, false, 1);
        tree.enqueue(0, 100, 9_999, 100, false, 2);
        tree.enqueue(0, 100, 161, 100, false, 3);
        let order: Vec<u32> = (0..3)
            .map(|_| tree.dequeue(0).released.unwrap().payload)
            .collect();
        assert_eq!(order, vec![3, 1, 2], "control preempts background");
    }

    #[test]
    fn ceiling_paces_a_lone_subscriber() {
        // bronze: ceil 2 Mbit/s = 0.25 byte/µs, burst 3000 B.
        let (spec, _, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        for n in 0..10 {
            tree.enqueue(0, 101, 5004, 1_500, false, n);
        }
        // Two packets ride the burst; the third waits for ceiling
        // tokens even though assured + ancestors have plenty.
        assert!(tree.dequeue(0).released.is_some());
        assert!(tree.dequeue(0).released.is_some());
        let out = tree.dequeue(0);
        assert!(out.released.is_none());
        // 1500 B = 12_000 bits at 2 Mbit/s = 6_000 µs.
        assert_eq!(out.next_at, Some(6_000));
        assert!(tree.dequeue(5_999).released.is_none());
        assert!(tree.dequeue(6_000).released.is_some());
    }

    #[test]
    fn leaf_borrows_parent_surplus_and_ledger_records_it() {
        let (spec, a, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        // Gold assures 4 Mbit/s but ceils at the full 8 Mbit/s uplink:
        // once its own bucket is dry it borrows from the AP upward.
        for n in 0..40 {
            tree.enqueue(0, 100, 5004, 1_500, false, n);
        }
        let mut t = 0u64;
        let mut sent = 0u64;
        while sent < 30 {
            let out = tree.dequeue(t);
            match out.released {
                Some(_) => sent += 1,
                None => t = out.next_at.expect("backlogged"),
            }
        }
        // 30 × 12_000 bits at ≤ 8 Mbit/s needs ≥ (360_000 − burst) / 8.
        assert!(t >= 42_000, "ceiling respected: t={t}");
        assert!(
            stats.borrowed_bits(a) > 0,
            "gold ran past its assured rate on borrowed tokens"
        );
        assert_eq!(stats.borrowed_bits(ROOT), 0, "root never borrows");
        assert_eq!(stats.bits_sent(ROOT), 30 * 12_000, "root sees all sends");
    }

    #[test]
    fn drr_splits_surplus_by_assured_rate() {
        // Both subscribers ceil at the uplink; gold assures 4×
        // bronze's rate, so a fully backlogged round should serve
        // roughly 4 gold bytes per bronze byte.
        let mut spec = TreeSpec::new(8_000_000);
        let ap = spec.add_ap(ROOT, "ap", 8_000_000, 8_000_000);
        let gold = RatePlan::new("gold", 4_000_000, 8_000_000);
        let bronze = RatePlan::new("bronze", 1_000_000, 8_000_000);
        let a = spec.add_subscriber(ap, "a", &gold, 1);
        let b = spec.add_subscriber(ap, "b", &bronze, 2);
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        for n in 0..600 {
            tree.enqueue(0, 1, 5004, 1_000, true, n);
            tree.enqueue(0, 2, 5004, 1_000, true, n);
        }
        let mut t = 0u64;
        for _ in 0..400 {
            let out = tree.dequeue(t);
            if out.released.is_none() {
                t = out.next_at.expect("backlogged");
            }
        }
        let stats = tree.shared_stats();
        let (sa, sb) = (stats.bits_sent(a) as f64, stats.bits_sent(b) as f64);
        let ratio = sa / sb;
        assert!(
            (2.5..6.0).contains(&ratio),
            "gold:bronze service ratio {ratio:.2}, want ~4"
        );
    }

    #[test]
    fn tail_drop_hands_back_payload_and_counts_on_path() {
        let (spec, a, _) = two_sub_spec();
        let spec = spec.with_leaf_queue_cap(2);
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        assert!(matches!(
            tree.enqueue(0, 100, 5004, 100, false, 1),
            EnqueueOutcome::Queued
        ));
        assert!(matches!(
            tree.enqueue(0, 100, 5004, 100, false, 2),
            EnqueueOutcome::Queued
        ));
        match tree.enqueue(0, 100, 5004, 100, false, 3) {
            EnqueueOutcome::TailDropped(p) => assert_eq!(p, 3),
            EnqueueOutcome::Queued => panic!("expected tail drop"),
        }
        let stats = tree.shared_stats();
        assert_eq!(stats.drops(a), 1);
        assert_eq!(stats.drops(ROOT), 1, "drops aggregate to the root");
        assert_eq!(stats.backlog_bytes(ROOT), 200);
    }

    #[test]
    fn codel_marks_ect_and_drops_non_ect_per_subscriber() {
        let (spec, a, b) = two_sub_spec();
        let spec = spec.with_codel(1_000, 2_000);
        let mut tree: ShapingTree<&'static str> = ShapingTree::new(spec);
        // Only subscriber A is congested; B sends one packet late.
        for n in 0..30 {
            tree.enqueue(
                0,
                100,
                5004,
                1_000,
                n % 2 == 0,
                if n % 2 == 0 { "ect" } else { "not" },
            );
        }
        tree.enqueue(149_000, 101, 5004, 1_000, true, "b");
        let mut marked = 0;
        let mut dropped = 0;
        let mut t = 150_000;
        loop {
            let out = tree.dequeue(t);
            dropped += out.aqm_dropped.len();
            match out.released {
                Some(rel) => {
                    if rel.ecn_marked {
                        assert_eq!(rel.payload, "ect", "only ECT packets are marked");
                        marked += 1;
                    }
                }
                None => match out.next_at {
                    Some(at) => t = at.max(t + 500),
                    None => break,
                },
            }
        }
        assert!(marked >= 1, "expected ECN marks, got {marked}");
        assert!(dropped >= 1, "expected non-ECT AQM drops, got {dropped}");
        let stats = tree.shared_stats();
        assert_eq!(stats.ecn_marks(a), marked as u64);
        assert_eq!(
            stats.ecn_marks(b),
            0,
            "B's fresh queue shares no CoDel state with A"
        );
        assert_eq!(stats.drops(a), dropped as u64);
    }

    #[test]
    fn deterministic_schedule() {
        let run = || {
            let (spec, _, _) = two_sub_spec();
            let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
            let mut trace = Vec::new();
            for n in 0..80u32 {
                let dst = if n % 3 == 0 { 100 } else { 101 };
                let port = if n % 5 == 0 { 161 } else { 5004 };
                tree.enqueue(
                    (n as u64) * 120,
                    dst,
                    port,
                    400 + (n % 7) * 90,
                    n % 2 == 0,
                    n,
                );
            }
            let mut t = 0u64;
            for _ in 0..400 {
                let out = tree.dequeue(t);
                if let Some(rel) = out.released {
                    trace.push((t, rel.payload, rel.class, rel.ecn_marked));
                    t += 80;
                } else {
                    match out.next_at {
                        Some(at) => t = at.max(t + 1),
                        None => break,
                    }
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backlog_gauges_follow_the_queues() {
        let (spec, a, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        tree.enqueue(0, 100, 5004, 700, false, 0);
        assert_eq!(stats.backlog_bytes(a), 700);
        assert_eq!(stats.backlog_bytes(ROOT), 700);
        assert_eq!(tree.backlog_pkts(), 1);
        tree.dequeue(0);
        assert_eq!(stats.backlog_bytes(ROOT), 0);
        assert_eq!(tree.backlog_pkts(), 0);
    }
}

/// The flat plane's scheduling, shaping and AQM behaviour, driven
/// through the one-level tree [`TreeSpec::flat`] compiles.
#[cfg(test)]
mod flat_tests {
    use super::*;
    use qdisc::{QdiscStats, CLASS_COUNT};

    /// A destination port for each class under [`flat`]'s map.
    fn port(class: TrafficClass) -> u16 {
        [161, 5004, 7000, 9999][class.index()]
    }

    /// `cfg` as a flat tree, with a port routed to the `BulkMedia`
    /// class the default map leaves unused.
    fn flat<T>(cfg: &QdiscConfig) -> ShapingTree<T> {
        let mut cfg = cfg.clone();
        cfg.class_map
            .assign(port(TrafficClass::BulkMedia), TrafficClass::BulkMedia);
        ShapingTree::new(TreeSpec::flat(&cfg))
    }

    /// Offer a packet of `class`; a flat tree ignores the destination.
    fn enqueue<T>(
        q: &mut ShapingTree<T>,
        now: u64,
        class: TrafficClass,
        bytes: u32,
        ecn: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        q.enqueue(now, 0, port(class), bytes, ecn, payload)
    }

    /// Per-class counters, read from the class leaves.
    fn stats<T>(q: &ShapingTree<T>) -> QdiscStats {
        let shared = q.shared_stats();
        QdiscStats {
            classes: std::array::from_fn(|c| (&**shared.node(1 + c)).into()),
        }
    }

    /// A config with no shapers and an effectively inert CoDel, for
    /// pure scheduling tests.
    fn drr_only() -> QdiscConfig {
        let mut cfg = QdiscConfig::for_rate(1_000_000);
        cfg.link_shaper = None;
        cfg.codel_target_us = u64::MAX / 2;
        cfg
    }

    #[test]
    fn empty_dequeue_reports_empty() {
        let mut q: ShapingTree<u32> = flat(&drr_only());
        let out = q.dequeue(0);
        assert!(out.released.is_none());
        assert!(out.aqm_dropped.is_empty());
        assert_eq!(out.next_at, None);
    }

    #[test]
    fn fifo_within_class() {
        let mut q: ShapingTree<u32> = flat(&drr_only());
        for n in 0..5u32 {
            enqueue(&mut q, 0, TrafficClass::Background, 100, false, n);
        }
        let got: Vec<u32> = (0..5)
            .map(|_| q.dequeue(0).released.unwrap().payload)
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drr_shares_follow_quanta() {
        let cfg = drr_only();
        let mut q: ShapingTree<u32> = flat(&cfg);
        // Keep every class deeply backlogged with unequal packet sizes.
        let sizes = [700u32, 1000, 500, 900];
        for _ in 0..200 {
            for (ci, &sz) in sizes.iter().enumerate() {
                enqueue(&mut q, 0, TrafficClass::ALL[ci], sz, false, 0);
            }
        }
        let mut served = [0u64; CLASS_COUNT];
        for _ in 0..400 {
            let rel = q.dequeue(0).released.expect("backlogged");
            served[rel.class.index()] += rel.bytes as u64;
        }
        let total: u64 = served.iter().sum();
        let quanta: u64 = cfg.classes.iter().map(|c| c.quantum as u64).sum();
        for (ci, &s) in served.iter().enumerate() {
            let expected = total as f64 * cfg.classes[ci].quantum as f64 / quanta as f64;
            let slack = (cfg.classes[ci].quantum + 1000) as f64;
            assert!(
                (s as f64 - expected).abs() <= slack,
                "class {ci}: served {s}, expected ~{expected:.0} ± {slack}"
            );
        }
    }

    #[test]
    fn tail_drop_returns_payload() {
        let mut cfg = drr_only();
        cfg.classes[TrafficClass::Control.index()].queue_cap_pkts = 2;
        let mut q: ShapingTree<u32> = flat(&cfg);
        assert!(matches!(
            enqueue(&mut q, 0, TrafficClass::Control, 10, false, 1),
            EnqueueOutcome::Queued
        ));
        assert!(matches!(
            enqueue(&mut q, 0, TrafficClass::Control, 10, false, 2),
            EnqueueOutcome::Queued
        ));
        match enqueue(&mut q, 0, TrafficClass::Control, 10, false, 3) {
            EnqueueOutcome::TailDropped(p) => assert_eq!(p, 3),
            EnqueueOutcome::Queued => panic!("expected tail drop"),
        }
        assert_eq!(stats(&q).class(TrafficClass::Control).tail_dropped, 1);
        assert_eq!(stats(&q).drops(), 1);
    }

    #[test]
    fn link_shaper_paces_and_next_ready_predicts() {
        let mut cfg = drr_only();
        cfg.link_shaper = Some(Shaper {
            rate_bps: 8_000_000, // 1 byte/µs
            burst_bytes: 1_000,
        });
        let mut q: ShapingTree<u32> = flat(&cfg);
        for n in 0..3u32 {
            enqueue(&mut q, 0, TrafficClass::Background, 1_000, false, n);
        }
        // First packet rides the burst.
        assert!(q.dequeue(0).released.is_some());
        // Bucket empty: next conforms 1000 µs later.
        let out = q.dequeue(0);
        assert!(out.released.is_none());
        assert_eq!(out.next_at, Some(1_000));
        assert!(q.dequeue(999).released.is_none());
        assert!(q.dequeue(1_000).released.is_some());
        assert_eq!(q.next_ready(1_000), Some(2_000));
    }

    #[test]
    fn codel_marks_ecn_and_drops_non_ect() {
        let mut cfg = drr_only();
        cfg.codel_target_us = 5_000;
        cfg.codel_interval_us = 2_000;
        let mut q: ShapingTree<&'static str> = flat(&cfg);
        // Everything queued at t=0, drained starting well past the
        // interval: sojourn is persistently above target.
        for n in 0..20 {
            let ecn = n % 3 == 0;
            enqueue(
                &mut q,
                0,
                TrafficClass::BulkMedia,
                100,
                ecn,
                if ecn { "ect" } else { "not" },
            );
        }
        let mut marked = 0;
        let mut dropped = 0;
        let mut t = 150_000;
        loop {
            let out = q.dequeue(t);
            dropped += out.aqm_dropped.len();
            match out.released {
                Some(rel) => {
                    if rel.ecn_marked {
                        assert_eq!(rel.payload, "ect", "only ECT packets are marked");
                        marked += 1;
                    }
                }
                None => break,
            }
            t += 1_000;
        }
        assert!(marked >= 1, "expected ECN marks, got {marked}");
        assert!(dropped >= 1, "expected non-ECT drops, got {dropped}");
        assert_eq!(stats(&q).ecn_marks(), marked as u64);
        assert_eq!(
            stats(&q).class(TrafficClass::BulkMedia).aqm_dropped,
            dropped as u64
        );
    }

    #[test]
    fn shared_stats_track_backlog_and_drops() {
        let mut cfg = drr_only();
        cfg.classes[TrafficClass::Background.index()].queue_cap_pkts = 1;
        let mut q: ShapingTree<u32> = flat(&cfg);
        let h = Arc::clone(q.shared_stats().node(ROOT));
        enqueue(&mut q, 0, TrafficClass::Background, 500, false, 0);
        assert_eq!(h.backlog_bytes.load(Ordering::Relaxed), 500);
        enqueue(&mut q, 0, TrafficClass::Background, 500, false, 1);
        assert_eq!(h.drops.load(Ordering::Relaxed), 1);
        q.dequeue(0);
        assert_eq!(h.backlog_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn deterministic_schedule() {
        let run = || {
            let mut q: ShapingTree<u32> = flat(&QdiscConfig::for_rate(1_000_000));
            let mut trace = Vec::new();
            for n in 0..50u32 {
                let class = TrafficClass::ALL[(n % 4) as usize];
                let bytes = 300 + (n % 7) * 90;
                enqueue(&mut q, (n as u64) * 100, class, bytes, n % 3 == 0, n);
            }
            let mut t = 0u64;
            for _ in 0..200 {
                let out = q.dequeue(t);
                if let Some(rel) = out.released {
                    trace.push((t, rel.payload, rel.class, rel.ecn_marked));
                    t += 100;
                } else {
                    match out.next_at {
                        Some(at) => t = at.max(t + 1),
                        None => break,
                    }
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    /// A zero quantum never lets its class's deficit cover a packet,
    /// so a scheduler with only that class backlogged would spin
    /// forever. The flat spec refuses it.
    #[test]
    #[should_panic(expected = "background DRR quantum must be positive")]
    fn zero_quantum_is_rejected() {
        let mut cfg = QdiscConfig::for_rate(1_000_000);
        cfg.classes[TrafficClass::Background.index()].quantum = 0;
        let mut q: ShapingTree<u32> = flat(&cfg);
        enqueue(&mut q, 0, TrafficClass::Background, 100, false, 0);
        q.dequeue(0);
    }
}
