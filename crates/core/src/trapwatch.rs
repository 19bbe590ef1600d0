//! Trap-driven (event-driven) state dissemination.
//!
//! Polling the MIB (the [`crate::netstate`] path) costs a round trip
//! per sample. SNMP's other half is the asynchronous **trap**: the
//! paper's embedded extension agent can notify the management station
//! the moment a parameter crosses a threshold. A [`TrapWatch`] is one
//! edge-triggered threshold on one variable — host load, RTP loss,
//! ECN-echo congestion, custody-store bytes or plan-ceiling
//! utilisation; the caller samples the value and the watch sends one
//! SNMPv2 trap per fresh crossing carrying it. [`decision_from_trap`]
//! lets an inference engine react to the trap payload directly —
//! adaptation latency becomes one one-way message instead of a poll
//! interval.

use crate::inference::AdaptationDecision;
use crate::policy::AdaptationPolicy;
use simnet::Network;
use snmp::oid::{arcs, Oid};
use snmp::pdu::{Message, VarBind};
use snmp::transport::AgentRuntime;
use snmp::SnmpValue;
use std::collections::BTreeMap;

/// Trap OID for a QoS alert from the host extension agent
/// (tasslQosAlert = 1.3.6.1.4.1.99999.10).
pub fn qos_alert_trap_oid() -> Oid {
    arcs::tassl().child(10)
}

/// Trap OID for a congestion alert from the traffic-control plane
/// (tasslQosCongestionAlert = 1.3.6.1.4.1.99999.11): ECN marking
/// crossed a threshold while loss may still be zero.
pub fn qos_congestion_alert_trap_oid() -> Oid {
    arcs::tassl().child(11)
}

/// Trap OID for a custody-store alert from a federated broker
/// (tasslQosStoreAlert = 1.3.6.1.4.1.99999.12): stored bytes crossed
/// the quota high watermark — the partition is outlasting the store's
/// capacity and eviction of unexpired bundles is imminent.
pub fn qos_store_alert_trap_oid() -> Oid {
    arcs::tassl().child(12)
}

/// Trap OID for a rate-plan alert from the hierarchical shaping tree
/// (tasslQosPlanAlert = 1.3.6.1.4.1.99999.13): a subscriber leaf has
/// been saturating its plan ceiling over a sustained window — the
/// subscriber is paying for less capacity than they are trying to use.
pub fn qos_plan_alert_trap_oid() -> Oid {
    arcs::tassl().child(13)
}

/// Crossing direction that arms a watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Fire when the metric rises to or above the threshold.
    Rising,
    /// Fire when the metric falls to or below the threshold.
    Falling,
}

/// One edge-triggered threshold watch: it fires at most once per
/// crossing, re-arms when the value returns to the other side, and
/// each firing sends one trap carrying the observed value as a single
/// `Gauge32` varbind.
///
/// The named constructors pair each trap OID with the variable it
/// reports, so that pairing is decided here and nowhere else.
#[derive(Debug, Clone)]
pub struct TrapWatch {
    trap: Oid,
    var: Oid,
    threshold: f64,
    direction: Direction,
    armed: bool,
    /// Traps emitted so far.
    pub traps_sent: u64,
}

impl TrapWatch {
    /// Fire `trap` when the value rises to or above `threshold`.
    pub fn rising(trap: Oid, var: Oid, threshold: f64) -> TrapWatch {
        TrapWatch {
            trap,
            var,
            threshold,
            direction: Direction::Rising,
            armed: true,
            traps_sent: 0,
        }
    }

    /// Fire `trap` when the value falls to or below `threshold`.
    pub fn falling(trap: Oid, var: Oid, threshold: f64) -> TrapWatch {
        TrapWatch {
            direction: Direction::Falling,
            ..TrapWatch::rising(trap, var, threshold)
        }
    }

    /// `qosAlert` when host variable `var` (e.g.
    /// [`arcs::host_page_faults`]) rises to or above `threshold`.
    pub fn host(var: Oid, threshold: f64) -> TrapWatch {
        TrapWatch::rising(qos_alert_trap_oid(), var, threshold)
    }

    /// `qosAlert` when the receiver-report loss percentage rises to or
    /// above `threshold_pct` — the §5.1 recovery layer feeding the
    /// §5.2 adaptation loop: sustained loss the NACK path cannot hide
    /// lets the inference engine switch modality.
    pub fn loss(threshold_pct: f64) -> TrapWatch {
        TrapWatch::rising(qos_alert_trap_oid(), arcs::host_rtp_loss(), threshold_pct)
    }

    /// `qosCongestionAlert` when the echoed ECN-CE percentage
    /// ([`simnet::rtp::ReceiverReport::fraction_ecn_ce`]) rises to or
    /// above `threshold_pct` — the pre-loss half of the feedback loop,
    /// so policy can shift modality *before* the first packet is lost.
    pub fn congestion(threshold_pct: f64) -> TrapWatch {
        TrapWatch::rising(
            qos_congestion_alert_trap_oid(),
            arcs::host_congestion(),
            threshold_pct,
        )
    }

    /// `qosStoreAlert` when broker `broker`'s stored custody bytes rise
    /// to `threshold_bytes` (typically
    /// [`dtn::StoreConfig::high_watermark_bytes`]): the partition is
    /// outlasting the store, and eviction of unexpired bundles is next.
    pub fn store(broker: u32, threshold_bytes: u64) -> TrapWatch {
        TrapWatch::rising(
            qos_store_alert_trap_oid(),
            arcs::store_bytes(broker),
            threshold_bytes as f64,
        )
    }

    /// `qosPlanAlert` when shaping-tree leaf `node`'s windowed ceiling
    /// utilisation ([`ceil_utilization_pct`]) rises to or above
    /// `threshold_pct`.
    pub fn plan(node: u32, threshold_pct: f64) -> TrapWatch {
        TrapWatch::rising(
            qos_plan_alert_trap_oid(),
            arcs::htb_node_util(node),
            threshold_pct,
        )
    }

    /// Whether `value` is a fresh crossing; updates the armed state.
    fn evaluate(&mut self, value: f64) -> bool {
        let beyond = match self.direction {
            Direction::Rising => value >= self.threshold,
            Direction::Falling => value <= self.threshold,
        };
        let fire = beyond && self.armed;
        self.armed = !beyond;
        fire
    }

    /// Evaluate `value`; on a fresh crossing send one trap through
    /// `agent_rt` towards `sink`. Returns true when a trap was sent.
    pub fn observe(
        &mut self,
        value: f64,
        net: &mut Network,
        agent_rt: &mut AgentRuntime,
        sink: simnet::NodeId,
    ) -> bool {
        if !self.evaluate(value) {
            return false;
        }
        let gauge = value.round().clamp(0.0, u32::MAX as f64) as u32;
        agent_rt.send_trap(
            net,
            sink,
            self.trap.clone(),
            vec![VarBind::bound(self.var.clone(), SnmpValue::Gauge32(gauge))],
        );
        self.traps_sent += 1;
        true
    }
}

/// Ceiling utilisation (percent) of shaping-tree node `node` over the
/// window from `window = (bits_sent, at_us)` to `now_us`, computed from
/// the delta of the node's `bits_sent` counter; advances the window.
/// The polling cadence *is* the averaging window: call it once per
/// reporting interval, starting the window when the tree is mounted.
pub fn ceil_utilization_pct(
    stats: &htb::TreeShared,
    node: usize,
    window: &mut (u64, u64),
    now_us: u64,
) -> f64 {
    let bits = stats.bits_sent(node);
    let delta_bits = bits.saturating_sub(window.0);
    let dt_us = now_us.saturating_sub(window.1);
    *window = (bits, now_us);
    let ceil = stats.ceil_bps(node);
    if dt_us == 0 || ceil == 0 {
        return 0.0;
    }
    delta_bits as f64 * 1e6 * 100.0 / (ceil as f64 * dt_us as f64)
}

/// Expose a mounted traffic-control plane's live counters as MIB
/// variables on `agent`: `qdiscBacklog.{link}` (Gauge32, queued
/// bytes), `qdiscDrops.{link}` (Counter32, tail + AQM drops) and
/// `qdiscEcnMarks.{link}` (Counter32). The handle comes from
/// [`simnet::Network::attach_qdisc`]; the agent samples it at query
/// time, so GETs always see the current values.
pub fn install_qdisc_metrics(
    agent: &mut snmp::SnmpAgent,
    link: simnet::LinkId,
    stats: &simnet::qdisc::StatsHandle,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let mib = agent.mib_mut();
    let s = stats.clone();
    mib.register_gauge(arcs::qdisc_backlog(link.0), move || {
        s.backlog_bytes.load(Relaxed)
    });
    let s = stats.clone();
    mib.register_counter(arcs::qdisc_drops(link.0), move || s.drops.load(Relaxed));
    let s = stats.clone();
    mib.register_counter(arcs::qdisc_ecn_marks(link.0), move || {
        s.ecn_marks.load(Relaxed)
    });
}

/// Expose a mounted shaping tree's per-node counters as MIB table rows
/// on `agent` (`tassl.24.<col>.<node>`): `htbNodeRate` / `htbNodeCeil`
/// (Gauge32, kbit/s so multi-gigabit uplinks fit, ifHighSpeed-style),
/// `htbNodeBacklog` (Gauge32, queued bytes in the subtree),
/// `htbNodeDrops`, `htbNodeEcnMarks` and `htbNodeBorrowedBits`
/// (Counter32). The handle comes from
/// [`simnet::Network::attach_tree`]; the agent samples it at query
/// time, so GETs always see the current values.
pub fn install_tree_metrics(agent: &mut snmp::SnmpAgent, stats: &htb::TreeStatsHandle) {
    let mib = agent.mib_mut();
    for node in 0..stats.node_count() {
        let n = node as u32;
        let s = stats.clone();
        mib.register_gauge(arcs::htb_node_rate(n), move || s.rate_bps(node) / 1_000);
        let s = stats.clone();
        mib.register_gauge(arcs::htb_node_ceil(n), move || s.ceil_bps(node) / 1_000);
        let s = stats.clone();
        mib.register_gauge(arcs::htb_node_backlog(n), move || s.backlog_bytes(node));
        let s = stats.clone();
        mib.register_counter(arcs::htb_node_drops(n), move || s.drops(node));
        let s = stats.clone();
        mib.register_counter(arcs::htb_node_ecn_marks(n), move || s.ecn_marks(node));
        let s = stats.clone();
        mib.register_counter(arcs::htb_node_borrowed_bits(n), move || {
            s.borrowed_bits(node)
        });
    }
}

/// Expose a bus endpoint's compiled-selector cache counters as MIB
/// scalars on `agent`: `cacheHits.0`, `cacheMisses.0`, and
/// `cacheEvictions.0` (all Counter32, `tassl.22.*`). The handle comes
/// from [`sempubsub::BusEndpoint::cache_stats`]; the agent samples it
/// at query time, so GETs always see the current values.
pub fn install_cache_metrics(agent: &mut snmp::SnmpAgent, stats: &sempubsub::CacheStatsHandle) {
    let mib = agent.mib_mut();
    let s = stats.clone();
    mib.register_counter(arcs::cache_hits(), move || s.hits());
    let s = stats.clone();
    mib.register_counter(arcs::cache_misses(), move || s.misses());
    let s = stats.clone();
    mib.register_counter(arcs::cache_evictions(), move || s.evictions());
}

/// Interpret a received QoS-alert or congestion-alert trap: extract
/// the known host metrics from its varbinds and run the engine on
/// them. Returns `None` for traps that are neither alert kind or carry
/// no known metric.
pub fn decision_from_trap(
    engine: &dyn AdaptationPolicy,
    trap: &Message,
) -> Option<AdaptationDecision> {
    // varbind[1] is snmpTrapOID.0 per the SNMPv2 trap layout.
    let trap_oid = trap.pdu.varbinds.get(1)?;
    let known = trap_oid.value == SnmpValue::Oid(qos_alert_trap_oid())
        || trap_oid.value == SnmpValue::Oid(qos_congestion_alert_trap_oid())
        || trap_oid.value == SnmpValue::Oid(qos_plan_alert_trap_oid());
    if !known {
        return None;
    }
    let mut state = BTreeMap::new();
    for vb in &trap.pdu.varbinds[2..] {
        let name = if vb.name == arcs::host_page_faults() {
            "page_faults"
        } else if vb.name == arcs::host_cpu_load() {
            "cpu_load"
        } else if vb.name == arcs::host_mem_avail() {
            "mem_avail_kb"
        } else if vb.name == arcs::host_rtp_loss() {
            "loss_pct"
        } else if vb.name == arcs::host_congestion() {
            "congestion_pct"
        } else if vb.name.starts_with(&arcs::htb().child(7)) {
            // htbNodeUtil.<node>: plan-ceiling saturation feeds the
            // same congestion band as ECN-echo marking.
            "congestion_pct"
        } else {
            continue;
        };
        if let Some(v) = vb.value.as_f64() {
            state.insert(name.to_string(), v);
        }
    }
    if state.is_empty() {
        return None;
    }
    Some(engine.decide(&state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::QosContract;
    use crate::inference::InferenceEngine;
    use crate::policy::PolicyDb;
    use simnet::{LinkSpec, Ticks};
    use snmp::transport::TrapSink;
    use snmp::SnmpAgent;
    use sysmon::{HostState, SimHost};

    fn world() -> (Network, AgentRuntime, TrapSink, SimHost, simnet::NodeId) {
        let mut net = Network::new(3);
        let (_sw, nodes) = net.lan(&["station", "host"], LinkSpec::lan());
        let host = SimHost::idle("host");
        let mut agent = SnmpAgent::new("host", "public", None);
        sysmon::install_host_agent(&host.shared(), &mut agent);
        let rt = AgentRuntime::bind(&mut net, nodes[1], agent).unwrap();
        let sink = TrapSink::bind(&mut net, nodes[0]).unwrap();
        (net, rt, sink, host, nodes[0])
    }

    /// The standard host pair: page faults rising past 80, CPU rising
    /// past 90.
    fn standard_host_watches() -> [TrapWatch; 2] {
        [
            TrapWatch::host(arcs::host_page_faults(), 80.0),
            TrapWatch::host(arcs::host_cpu_load(), 90.0),
        ]
    }

    /// Observe `host`'s current page faults and CPU load with the
    /// standard pair; returns the number of traps sent.
    fn service_host(
        watches: &mut [TrapWatch; 2],
        host: &SimHost,
        net: &mut Network,
        rt: &mut AgentRuntime,
        station: simnet::NodeId,
    ) -> usize {
        let state = host.state();
        let [faults, cpu] = watches;
        usize::from(faults.observe(state.page_faults, net, rt, station))
            + usize::from(cpu.observe(state.cpu_load, net, rt, station))
    }

    #[test]
    fn crossing_fires_exactly_once() {
        let (mut net, mut rt, mut sink, mut host, station) = world();
        let mut watcher = standard_host_watches();
        // Below threshold: nothing.
        assert_eq!(
            service_host(&mut watcher, &host, &mut net, &mut rt, station),
            0
        );
        // Cross: one trap, and only one even if checked repeatedly.
        host.force(HostState {
            cpu_load: 20.0,
            page_faults: 85.0,
            mem_avail_kb: 1024.0,
        });
        assert_eq!(
            service_host(&mut watcher, &host, &mut net, &mut rt, station),
            1
        );
        assert_eq!(
            service_host(&mut watcher, &host, &mut net, &mut rt, station),
            0,
            "edge-triggered"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
    }

    #[test]
    fn rearms_after_recovery() {
        let (mut net, mut rt, mut sink, mut host, station) = world();
        let mut watcher = standard_host_watches();
        let spike = HostState {
            cpu_load: 20.0,
            page_faults: 95.0,
            mem_avail_kb: 1024.0,
        };
        let calm = HostState {
            cpu_load: 20.0,
            page_faults: 10.0,
            mem_avail_kb: 1024.0,
        };
        host.force(spike);
        service_host(&mut watcher, &host, &mut net, &mut rt, station);
        host.force(calm);
        service_host(&mut watcher, &host, &mut net, &mut rt, station);
        host.force(spike);
        assert_eq!(
            service_host(&mut watcher, &host, &mut net, &mut rt, station),
            1,
            "re-armed"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2);
        assert_eq!(watcher.iter().map(|w| w.traps_sent).sum::<u64>(), 2);
    }

    #[test]
    fn trap_payload_drives_the_engine() {
        let (mut net, mut rt, mut sink, mut host, station) = world();
        let mut watcher = standard_host_watches();
        host.force(HostState {
            cpu_load: 20.0,
            page_faults: 90.0,
            mem_avail_kb: 1024.0,
        });
        service_host(&mut watcher, &host, &mut net, &mut rt, station);
        net.run_for(Ticks::from_millis(5));
        sink.service(&mut net);
        let engine =
            InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("qos alert");
        assert_eq!(decision.max_packets, 1, "90 faults -> pf-extreme band");
    }

    #[test]
    fn foreign_traps_ignored() {
        let engine = InferenceEngine::new(PolicyDb::new(), QosContract::default());
        let mut agent = SnmpAgent::new("x", "public", None);
        let raw = agent.build_trap(0, arcs::tassl().child(77), vec![]);
        let msg = Message::decode(&raw).unwrap();
        assert!(decision_from_trap(&engine, &msg).is_none());
    }

    #[test]
    fn loss_trap_switches_modality() {
        use simnet::rtp::ReceiverReport;
        let (mut net, mut rt, mut sink, _host, station) = world();
        let mut watcher = TrapWatch::loss(10.0);
        let calm = ReceiverReport {
            received: 99,
            lost: 1,
            fraction_lost: 0.01,
            ..Default::default()
        };
        assert!(!watcher.observe(calm.fraction_lost * 100.0, &mut net, &mut rt, station));
        // Wireless-grade burst loss the NACK budget could not hide.
        let bursty = ReceiverReport {
            received: 80,
            lost: 20,
            fraction_lost: 0.2,
            ..Default::default()
        };
        assert!(watcher.observe(bursty.fraction_lost * 100.0, &mut net, &mut rt, station));
        assert!(
            !watcher.observe(bursty.fraction_lost * 100.0, &mut net, &mut rt, station),
            "edge-triggered"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
        let engine = InferenceEngine::new(PolicyDb::loss_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("qos alert");
        assert_eq!(
            decision.modality,
            crate::inference::ModalityChoice::Sketch,
            "20% loss -> loss-heavy band"
        );
        // Recovery re-arms the watch.
        assert!(!watcher.observe(calm.fraction_lost * 100.0, &mut net, &mut rt, station));
        assert!(watcher.observe(bursty.fraction_lost * 100.0, &mut net, &mut rt, station));
        assert_eq!(watcher.traps_sent, 2);
    }

    #[test]
    fn congestion_trap_downgrades_before_loss() {
        use simnet::rtp::ReceiverReport;
        let (mut net, mut rt, mut sink, _host, station) = world();
        let mut watcher = TrapWatch::congestion(10.0);
        // Lightly marked stream with ZERO loss: below threshold.
        let calm = ReceiverReport {
            received: 100,
            ecn_ce: 2,
            fraction_ecn_ce: 0.02,
            ..Default::default()
        };
        assert!(!watcher.observe(calm.fraction_ecn_ce * 100.0, &mut net, &mut rt, station));
        // AQM marking a quarter of the stream — still zero loss.
        let marked = ReceiverReport {
            received: 100,
            ecn_ce: 25,
            fraction_ecn_ce: 0.25,
            ..Default::default()
        };
        assert!(watcher.observe(marked.fraction_ecn_ce * 100.0, &mut net, &mut rt, station));
        assert!(
            !watcher.observe(marked.fraction_ecn_ce * 100.0, &mut net, &mut rt, station),
            "edge-triggered"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
        let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("congestion alert");
        assert_eq!(
            decision.modality,
            crate::inference::ModalityChoice::Sketch,
            "25% CE -> congestion-heavy band, despite fraction_lost == 0"
        );
        // Recovery re-arms the watch.
        assert!(!watcher.observe(calm.fraction_ecn_ce * 100.0, &mut net, &mut rt, station));
        assert!(watcher.observe(marked.fraction_ecn_ce * 100.0, &mut net, &mut rt, station));
        assert_eq!(watcher.traps_sent, 2);
    }

    #[test]
    fn qdisc_metrics_visible_over_snmp() {
        use simnet::qdisc::{QdiscConfig, TrafficClass};
        use simnet::Port;
        use snmp::manager::SnmpManager;
        use snmp::oid::arcs;

        let mut net = Network::new(5);
        let a = net.add_node("edge");
        let b = net.add_node("peer");
        let link = net.connect(a, b, LinkSpec::lan());
        let mut cfg = QdiscConfig::for_rate(800_000);
        cfg.codel_target_us = 2_000;
        cfg.codel_interval_us = 10_000;
        cfg.classes[TrafficClass::Background.index()].queue_cap_pkts = 8;
        let handle = net.attach_qdisc(link, cfg);

        let mut agent = snmp::SnmpAgent::new("edge", "public", None);
        install_qdisc_metrics(&mut agent, link, &handle);
        let mut rt = AgentRuntime::bind(&mut net, a, agent).unwrap();

        // Overload the link so the plane accumulates backlog and drops.
        let src = net.bind(a, Port(7000)).unwrap();
        let _dst = net.bind(b, Port(7000)).unwrap();
        for _ in 0..40 {
            net.send(src, simnet::Addr::unicast(b, Port(7000)), vec![0u8; 900])
                .unwrap();
        }
        net.run_for(Ticks::from_millis(5));

        let mgr_node = net.add_node("mgr");
        net.connect(mgr_node, a, LinkSpec::lan());
        let mut mgr = SnmpManager::bind(&mut net, mgr_node, Port(30000), "public").unwrap();
        let mut refs: Vec<&mut AgentRuntime> = vec![&mut rt];
        let backlog = mgr
            .get_f64(&mut net, &mut refs, a, &arcs::qdisc_backlog(link.0))
            .unwrap();
        let drops = mgr
            .get_f64(&mut net, &mut refs, a, &arcs::qdisc_drops(link.0))
            .unwrap();
        assert!(backlog > 0.0, "queued bytes visible over SNMP");
        assert!(drops > 0.0, "tail drops visible over SNMP");
        // The MIB samples the live handle: drain the queue and re-read.
        net.run_to_quiescence();
        let drained = mgr
            .get_f64(&mut net, &mut refs, a, &arcs::qdisc_backlog(link.0))
            .unwrap();
        assert_eq!(drained, 0.0, "backlog gauge follows the live queue");
    }

    /// Shared-uplink world for the shaping-tree tests: a core node
    /// whose access link carries one bronze subscriber (1M assured /
    /// 2M ceiling), plus a management station off to the side.
    /// Returns `(net, stats, rt, sink, station, core, sub)`; the
    /// subscriber leaf is node 3 (0 root, 1 default, 2 site, 3 sub).
    fn tree_world() -> (
        Network,
        htb::TreeStatsHandle,
        AgentRuntime,
        TrapSink,
        simnet::NodeId,
        simnet::NodeId,
        simnet::NodeId,
    ) {
        let mut net = Network::new(21);
        let core = net.add_node("core");
        let sub = net.add_node("sub");
        let station = net.add_node("station");
        let uplink = net.connect(core, sub, LinkSpec::lan());
        net.connect(core, station, LinkSpec::lan());

        let mut spec = htb::TreeSpec::new(8_000_000);
        let site = spec.add_site("site", 8_000_000, 8_000_000);
        let plan = htb::RatePlan::new("bronze", 1_000_000, 2_000_000);
        spec.add_subscriber(site, "sub", &plan, sub.0);
        let stats = net.attach_tree(uplink, spec);

        let mut agent = SnmpAgent::new("core", "public", None);
        install_tree_metrics(&mut agent, &stats);
        let rt = AgentRuntime::bind(&mut net, core, agent).unwrap();
        let sink = TrapSink::bind(&mut net, station).unwrap();
        (net, stats, rt, sink, station, core, sub)
    }

    /// Saturate the bronze leaf's ceiling from `core` towards `sub`
    /// for `ms` milliseconds of simulated time.
    fn saturate(net: &mut Network, core: simnet::NodeId, sub: simnet::NodeId, port: u16, ms: u64) {
        use simnet::{Addr, Port};
        let src = net.bind(core, Port(port)).unwrap();
        let _dst = net.bind(sub, Port(port)).unwrap();
        for _ in 0..120 {
            net.send(src, Addr::unicast(sub, Port(port)), vec![0u8; 1_000])
                .unwrap();
        }
        net.run_for(Ticks::from_millis(ms));
    }

    #[test]
    fn plan_alert_fires_on_sustained_ceiling_saturation() {
        let (mut net, stats, mut rt, mut sink, station, core, sub) = tree_world();
        let node = 3;
        let mut watcher = TrapWatch::plan(node as u32, 95.0);
        let mut window = (0, 0);
        let mut service = |net: &mut Network, rt: &mut AgentRuntime| {
            let pct = ceil_utilization_pct(&stats, node, &mut window, net.now().as_micros());
            watcher.observe(pct, net, rt, station)
        };

        // Idle window: utilisation zero, nothing fires.
        net.run_for(Ticks::from_millis(10));
        assert!(!service(&mut net, &mut rt));

        // 120 kB offered against a 2 Mbit/s ceiling saturates the
        // leaf for the whole 100 ms window.
        saturate(&mut net, core, sub, 7100, 100);
        assert!(service(&mut net, &mut rt));
        assert!(
            !service(&mut net, &mut rt),
            "edge-triggered: the crossing already fired"
        );

        // Let the backlog drain and the subscriber go quiet: the next
        // window is far below threshold, which re-arms the watch.
        net.run_to_quiescence();
        net.run_for(Ticks::from_millis(500));
        assert!(!service(&mut net, &mut rt));
        saturate(&mut net, core, sub, 7101, 100);
        assert!(service(&mut net, &mut rt), "re-armed");
        assert_eq!(watcher.traps_sent, 2);

        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2);
        assert_eq!(
            sink.traps[0].pdu.varbinds[1].value,
            SnmpValue::Oid(qos_plan_alert_trap_oid())
        );
        assert_eq!(sink.traps[0].pdu.varbinds[2].name, arcs::htb_node_util(3));
        // The saturation trap feeds the existing congestion band: a
        // leaf pinned at its ceiling downgrades modality exactly like
        // heavy ECN-echo marking would.
        let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("plan alert");
        assert_eq!(
            decision.modality,
            crate::inference::ModalityChoice::Text,
            "~100% ceiling utilisation lands in the heaviest congestion band"
        );
    }

    #[test]
    fn tree_rows_visible_over_snmp() {
        use simnet::Port;
        use snmp::manager::SnmpManager;

        let (mut net, _stats, mut rt, _sink, _station, core, sub) = tree_world();
        saturate(&mut net, core, sub, 7100, 400);
        net.run_to_quiescence();

        let mgr_node = net.add_node("mgr");
        net.connect(mgr_node, core, LinkSpec::lan());
        let mut mgr = SnmpManager::bind(&mut net, mgr_node, Port(30010), "public").unwrap();
        let mut refs: Vec<&mut AgentRuntime> = vec![&mut rt];
        let get = |mgr: &mut SnmpManager,
                   net: &mut Network,
                   refs: &mut Vec<&mut AgentRuntime>,
                   oid: &Oid| { mgr.get_f64(net, refs, core, oid).unwrap() };

        // Static plan columns, in kbit/s (ifHighSpeed-style).
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_rate(3)),
            1_000.0
        );
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_ceil(3)),
            2_000.0
        );
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_ceil(0)),
            8_000.0
        );

        // 120 kB at 1 Mbit/s assured takes ~960 ms; the run was capped
        // at 400 ms, so the second half rode on borrowed site tokens
        // and the ledger says so over SNMP.
        let borrowed = get(
            &mut mgr,
            &mut net,
            &mut refs,
            &arcs::htb_node_borrowed_bits(3),
        );
        assert!(borrowed > 0.0, "sustained over-assured sending borrows");
        // Drained queue: the backlog gauge follows the live tree.
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_backlog(0)),
            0.0
        );
    }

    #[test]
    fn falling_watch_direction() {
        let mut w = TrapWatch::falling(qos_alert_trap_oid(), arcs::host_mem_avail(), 512.0);
        assert!(!w.evaluate(1024.0));
        assert!(w.evaluate(256.0));
        assert!(!w.evaluate(128.0), "still below: no re-fire");
        assert!(!w.evaluate(2048.0), "recovery alone does not fire");
        assert!(w.evaluate(100.0), "re-armed after recovery");
    }

    #[test]
    fn trap_varbind_saturates_at_the_gauge32_range() {
        let (mut net, mut rt, mut sink, _host, station) = world();
        let mut high = TrapWatch::rising(qos_alert_trap_oid(), arcs::host_page_faults(), 80.0);
        let mut low = TrapWatch::falling(qos_alert_trap_oid(), arcs::host_mem_avail(), 512.0);
        assert!(high.observe(5e9, &mut net, &mut rt, station));
        assert!(low.observe(-3.0, &mut net, &mut rt, station));
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2);
        let varbind = |i: usize| sink.traps[i].pdu.varbinds[2].clone();
        assert_eq!(
            varbind(0),
            VarBind::bound(arcs::host_page_faults(), SnmpValue::Gauge32(4_294_967_295))
        );
        assert_eq!(
            varbind(1),
            VarBind::bound(arcs::host_mem_avail(), SnmpValue::Gauge32(0))
        );
    }

    #[test]
    fn store_watcher_alerts_on_watermark_and_rearms() {
        use dtn::{Bundle, CustodyStore, StoreConfig};

        let (mut net, mut rt, mut sink, _host, station) = world();
        let cfg = StoreConfig {
            max_bytes: 4096,
            max_bundles: 64,
            lifetime: Ticks::from_secs(60),
            high_watermark_pct: 50,
            ..StoreConfig::default()
        };
        let mut store = CustodyStore::new(cfg);
        let stats = store.stats();
        let mut watcher = TrapWatch::store(0, cfg.high_watermark_bytes());
        let mut service = |net: &mut Network, rt: &mut AgentRuntime| {
            watcher.observe(stats.stored_bytes() as f64, net, rt, station)
        };

        // Empty store: below the watermark, no trap.
        assert!(!service(&mut net, &mut rt));

        // Fill past 50% of the byte quota.
        let now = net.now();
        let mut seq = 0;
        while store.bytes() < cfg.high_watermark_bytes() {
            let b = Bundle {
                source: "client-0".into(),
                seq,
                src_domain: 0,
                dst_domain: 1,
                created_at: now,
                lifetime: cfg.lifetime,
                custody: true,
                payload: vec![0u8; 400],
            };
            assert!(store.insert(b, now).stored);
            seq += 1;
        }
        assert!(service(&mut net, &mut rt));
        assert!(
            !service(&mut net, &mut rt),
            "edge-triggered: one trap per crossing"
        );

        // Drain the store (partition healed), then re-fill: re-armed.
        for b in store.due_for(1, now) {
            store.release(&b.source, b.seq);
        }
        assert_eq!(store.bytes(), 0);
        assert!(!service(&mut net, &mut rt));
        while store.bytes() < cfg.high_watermark_bytes() {
            let b = Bundle {
                source: "client-0".into(),
                seq,
                src_domain: 0,
                dst_domain: 1,
                created_at: now,
                lifetime: cfg.lifetime,
                custody: true,
                payload: vec![0u8; 400],
            };
            assert!(store.insert(b, now).stored);
            seq += 1;
        }
        assert!(service(&mut net, &mut rt), "re-armed");
        assert_eq!(watcher.traps_sent, 2);

        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2, "sink receives both alerts");
        // Second varbind of a v2 trap is snmpTrapOID.0.
        assert_eq!(
            sink.traps[0].pdu.varbinds[1].value,
            snmp::SnmpValue::Oid(qos_store_alert_trap_oid())
        );
    }
}
