//! SNMP instrumentation of the custody store: per-broker rows under
//! `tassl.23.*`, served by the same embedded extension agent the
//! brokers already run for their `tassl.21` overlay rows.

use crate::store::StoreStatsHandle;
use snmp::oid::arcs;

/// Register broker `index`'s live store counters on an agent:
/// `storedBundles.{index}` and `storedBytes.{index}` (Gauge32),
/// `custodyTransfers.{index}`, `storeExpired.{index}` and
/// `storeEvicted.{index}` (Counter32) — mirroring the broker overlay
/// metric rows.
pub fn install_store_metrics(agent: &mut snmp::SnmpAgent, index: u32, stats: &StoreStatsHandle) {
    let mib = agent.mib_mut();
    let s = stats.clone();
    mib.register_gauge(arcs::store_bundles(index), move || s.stored_bundles());
    let s = stats.clone();
    mib.register_gauge(arcs::store_bytes(index), move || s.stored_bytes());
    let s = stats.clone();
    mib.register_counter(arcs::store_custody_transfers(index), move || {
        s.custody_transfers()
    });
    let s = stats.clone();
    mib.register_counter(arcs::store_expired(index), move || s.expired());
    let s = stats.clone();
    mib.register_counter(arcs::store_evicted(index), move || s.evicted());
}

#[cfg(test)]
mod tests {
    use super::*;
    use snmp::{SnmpAgent, SnmpValue};

    #[test]
    fn rows_serve_live_counters() {
        let stats = StoreStatsHandle::default();
        let mut agent = SnmpAgent::new("broker-0", "public", None);
        install_store_metrics(&mut agent, 0, &stats);
        stats.note_custody_transfer();
        assert_eq!(
            agent.mib_mut().get(&arcs::store_bundles(0)),
            Some(SnmpValue::Gauge32(0))
        );
        assert_eq!(
            agent.mib_mut().get(&arcs::store_bytes(0)),
            Some(SnmpValue::Gauge32(0))
        );
        assert_eq!(
            agent.mib_mut().get(&arcs::store_custody_transfers(0)),
            Some(SnmpValue::Counter32(1))
        );
        assert_eq!(
            agent.mib_mut().get(&arcs::store_expired(0)),
            Some(SnmpValue::Counter32(0))
        );
        assert_eq!(
            agent.mib_mut().get(&arcs::store_evicted(0)),
            Some(SnmpValue::Counter32(0))
        );
    }
}
