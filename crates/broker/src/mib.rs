//! SNMP instrumentation of the overlay: per-broker rows under
//! `tassl.21.*`, served by the same embedded extension agent the hosts
//! run, so the management station watches overlay health with the
//! tooling it already has (GET/GETNEXT, golden BER fixtures).

use crate::overlay::BrokerStatsHandle;
use snmp::oid::arcs;

/// Register broker `index`'s live counters on an agent:
/// `brokerTableSize.{index}` (Gauge32), `brokerForwarded.{index}`,
/// `brokerSuppressed.{index}` and `brokerAdvertsMerged.{index}`
/// (Counter32) — mirroring the qdisc metric rows.
pub fn install_broker_metrics(agent: &mut snmp::SnmpAgent, index: u32, stats: &BrokerStatsHandle) {
    let mib = agent.mib_mut();
    let s = stats.clone();
    mib.register_gauge(arcs::broker_table_size(index), move || s.table_size());
    let s = stats.clone();
    mib.register_counter(arcs::broker_forwarded(index), move || s.forwarded());
    let s = stats.clone();
    mib.register_counter(arcs::broker_suppressed(index), move || s.suppressed());
    let s = stats.clone();
    mib.register_counter(arcs::broker_adverts_merged(index), move || {
        s.adverts_merged()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use snmp::{SnmpAgent, SnmpValue};

    #[test]
    fn rows_serve_live_counters() {
        let stats = BrokerStatsHandle::default();
        let mut agent = SnmpAgent::new("broker-0", "public", None);
        install_broker_metrics(&mut agent, 0, &stats);
        let (oids, values): (Vec<_>, Vec<_>) = [
            arcs::broker_table_size(0),
            arcs::broker_forwarded(0),
            arcs::broker_suppressed(0),
            arcs::broker_adverts_merged(0),
        ]
        .into_iter()
        .map(|oid| {
            let v = agent.mib_mut().get(&oid).expect("row registered");
            (oid, v)
        })
        .unzip();
        assert_eq!(oids.len(), 4);
        assert_eq!(values[0], SnmpValue::Gauge32(0));
        assert_eq!(values[1], SnmpValue::Counter32(0));
        assert_eq!(values[2], SnmpValue::Counter32(0));
        assert_eq!(values[3], SnmpValue::Counter32(0));
    }
}
