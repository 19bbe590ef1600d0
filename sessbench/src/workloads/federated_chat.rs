//! `federated_chat`: an 8-domain brokered session with custody, where
//! broker routing, selector matching, multicast and custody dominate.
//!
//! 256 clients carry role, zone (their domain) and interest
//! attributes. Each round publishes 64 chats and strokes whose
//! selectors mix broadcast, zone-local and conjunctive forms, then
//! pumps, adapts and services the custody-store alerts. Mid-run the
//! inter-broker link between domains 3 and 4 goes down for 8 simulated
//! seconds. No media, no shaping tree.

use super::{
    common_layer, deliveries, digest_decisions, recipients, rotating_engine, timed_round, Meter,
    Rep, Row, Sel, Workload,
};
use crate::gen::{Digest, Rng};
use cqos_core::{CollaborationSession, PolicyDb, SessionConfig};
use simnet::{FaultAction, FaultPlan, Ticks};
use std::collections::BTreeSet;
use std::time::Instant;
use sysmon::{LoadProfile, SimHost};

const DOMAINS: usize = 8;
const CLIENTS: usize = 256;
const ROUNDS: usize = 60;
const EVENTS: usize = 64;
const PUMP: Ticks = Ticks::from_millis(200);
/// The 3–4 link fails this long after the first round starts...
const OUTAGE_AT: Ticks = Ticks::from_secs(2);
/// ...for this long.
const OUTAGE: Ticks = Ticks::from_secs(8);
const ROLES: [&str; 4] = ["medic", "engineer", "logistics", "command"];
const TOPICS: [&str; 4] = ["triage", "supply", "weather", "traffic"];
/// Host CPU loads, one multiset per engine, spread over clients by the
/// seed.
const LOADS: [f64; 4] = [10.0, 50.0, 75.0, 90.0];

/// One published event.
struct Event {
    sender: usize,
    sel: Sel,
    /// Strokes draw on their own object, so each is traceable.
    stroke: bool,
}

pub struct Inputs {
    seed: u64,
    table: Vec<Row>,
    loads: Vec<f64>,
    events: Vec<Event>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        // Client i lives in domain i % 8 (the session's round-robin);
        // within a domain the seed shuffles a balanced set of
        // (role, topic pair) attributes, so every selector form
        // addresses the same number of clients whatever the seed.
        let per_domain = CLIENTS / DOMAINS;
        let mut table = vec![
            Row {
                role: ROLES[0],
                zone: 0,
                interests: Vec::new(),
            };
            CLIENTS
        ];
        for d in 0..DOMAINS {
            for (j, slot) in rng.permutation(per_domain).into_iter().enumerate() {
                let t = (slot / ROLES.len()) % TOPICS.len();
                table[j * DOMAINS + d] = Row {
                    role: ROLES[slot % ROLES.len()],
                    zone: d as u32,
                    interests: vec![TOPICS[t], TOPICS[(t + 1 + slot / 16) % TOPICS.len()]],
                };
            }
        }
        let mut loads = vec![0.0; CLIENTS];
        for engine in 0..3 {
            let group: Vec<usize> = (engine..CLIENTS).step_by(3).collect();
            for (k, slot) in rng.permutation(group.len()).into_iter().enumerate() {
                loads[group[k]] = LOADS[slot % LOADS.len()];
            }
        }
        let mut events = Vec::with_capacity(ROUNDS * EVENTS);
        for _ in 0..ROUNDS {
            for k in 0..EVENTS {
                let sender = rng.below(CLIENTS);
                let role = ROLES[rng.below(ROLES.len())];
                let zone = rng.below(DOMAINS) as u32;
                let sel = match k % 8 {
                    0 | 1 => Sel::All,
                    2..=4 => Sel::Zone(table[sender].zone),
                    5 | 6 => Sel::RoleZone(role, zone),
                    _ => Sel::RoleInterest(role, TOPICS[rng.below(TOPICS.len())]),
                };
                events.push(Event {
                    sender,
                    sel,
                    stroke: k % 2 == 1,
                });
            }
        }
        Inputs {
            seed,
            table,
            loads,
            events,
        }
    }
}

impl Workload for Inputs {
    fn run(&self, workers: usize, meter: &mut Meter) -> Rep {
        let mut rep = Rep::default();
        let setup = Instant::now();
        let mut session = CollaborationSession::new(SessionConfig {
            seed: self.seed,
            workers,
            domains: Some(DOMAINS),
            custody: Some(dtn::StoreConfig::default()),
            ..SessionConfig::default()
        });
        for (i, row) in self.table.iter().enumerate() {
            let name = format!("member-{i}");
            let host = SimHost::new(
                &name,
                LoadProfile::Constant(self.loads[i]),
                LoadProfile::Constant(20.0),
                LoadProfile::Constant(65_536.0),
            );
            let engine = rotating_engine(i, PolicyDb::paper_cpu_load_policy());
            session
                .add_wired_client(row.profile(&name), engine, host)
                .expect("member joins its domain");
        }
        let nms = session
            .add_router("nms", 100_000_000)
            .expect("management station attaches");
        rep.setup_s = setup.elapsed().as_secs_f64();

        let link = session
            .inter_broker_link(3, 4)
            .expect("domains 3 and 4 are adjacent");
        let down = session.net.now() + OUTAGE_AT;
        session.net.set_fault_plan(
            FaultPlan::new()
                .at(down, FaultAction::LinkDown(link))
                .at(down + OUTAGE, FaultAction::LinkUp(link)),
        );

        let mut digest = Digest::default();
        let mut last = Vec::new();
        let (mut traps, mut snmp_errors, mut changes, mut decisions) = (0u64, 0u64, 0u64, 0u64);
        let sim0 = session.net.now();
        for r in 0..ROUNDS {
            let events = &self.events[r * EVENTS..(r + 1) * EVENTS];
            let (decided, ms) = timed_round(meter, |tr| {
                for (k, ev) in events.iter().enumerate() {
                    let id = (r * EVENTS + k) as u64;
                    let sel = ev.sel.text();
                    let res = tr.span("core.share_event", |_| {
                        if ev.stroke {
                            session
                                .share_stroke(ev.sender, id, vec![(0, 0), (1, 1)], 1, &sel)
                                .map(|_| ())
                        } else {
                            session.share_chat(ev.sender, &format!("e{id}"), &sel)
                        }
                    });
                    rep.call("share", res);
                }
                tr.span("core.pump", |_| session.pump(PUMP));
                let decided = tr.span("core.adapt_all", |_| session.adapt_all());
                traps +=
                    tr.span("core.service_alerts", |_| session.service_store_alerts(nms)) as u64;
                decided
            });
            rep.round_ms.push(ms);
            decisions += decided.len() as u64;
            changes += digest_decisions(&mut digest, &decided, &mut last);
            snmp_errors += (0..CLIENTS)
                .map(|id| session.client(id).netstate.last_errors.len() as u64)
                .sum::<u64>();
        }
        rep.sim_s = (session.net.now() - sim0).as_micros() as f64 / 1e6;
        if session.net.now() < down + OUTAGE {
            rep.fail(format!(
                "rounds ended at {:?}, before the link came back at {:?}",
                session.net.now(),
                down + OUTAGE
            ));
        }
        self.check(&session, &mut rep);
        rep.deliveries = deliveries(&session, &mut digest);
        rep.digest = digest.finish();

        common_layer(&session, &mut rep);
        let brokers: Vec<_> = (0..DOMAINS)
            .filter_map(|i| session.broker_stats(i))
            .collect();
        let stores: Vec<_> = (0..DOMAINS)
            .filter_map(|i| session.store_stats(i))
            .collect();
        let forwarded: u64 = brokers.iter().map(|b| b.forwarded()).sum();
        let suppressed: u64 = brokers.iter().map(|b| b.suppressed()).sum();
        let l = &mut rep.layer;
        l.insert("broker.forwarded", forwarded as f64);
        l.insert(
            "broker.suppression_ratio",
            suppressed as f64 / (forwarded + suppressed).max(1) as f64,
        );
        l.insert(
            "broker.table_size",
            brokers.iter().map(|b| b.table_size()).sum::<u64>() as f64,
        );
        l.insert(
            "broker.dedup_dropped",
            brokers.iter().map(|b| b.dedup_dropped()).sum::<u64>() as f64,
        );
        l.insert(
            "dtn.custody_transfers",
            stores.iter().map(|s| s.custody_transfers()).sum::<u64>() as f64,
        );
        l.insert(
            "dtn.peak_bytes",
            stores.iter().map(|s| s.peak_bytes()).max().unwrap_or(0) as f64,
        );
        l.insert(
            "dtn.refused",
            stores.iter().map(|s| s.custody_refused()).sum::<u64>() as f64,
        );
        l.insert(
            "dtn.evicted",
            stores.iter().map(|s| s.evicted()).sum::<u64>() as f64,
        );
        l.insert(
            "dtn.expired",
            stores.iter().map(|s| s.expired()).sum::<u64>() as f64,
        );
        l.insert("snmp.errors", snmp_errors as f64);
        l.insert("core.decision_changes", changes as f64);
        l.insert("core.traps_sent", traps as f64);
        rep.add_work("adapt.decisions", decisions as f64);
        rep
    }
}

impl Inputs {
    /// Each event reached exactly the clients, other than its sender,
    /// whose attributes its selector matches.
    fn check(&self, session: &CollaborationSession, rep: &mut Rep) {
        let texts: Vec<String> = (0..self.events.len()).map(|id| format!("e{id}")).collect();
        for (c, row) in self.table.iter().enumerate() {
            let client = session.client(c);
            let chats: BTreeSet<&str> = client.chat.log.iter().map(|(_, t)| t.as_str()).collect();
            let mut want_chats = 0;
            for (id, ev) in self.events.iter().enumerate() {
                if ev.sender == c {
                    continue;
                }
                let want = ev.sel.matches(row);
                let got = if ev.stroke {
                    !client.whiteboard.strokes(id as u64).is_empty()
                } else {
                    want_chats += want as usize;
                    chats.contains(texts[id].as_str())
                };
                if want {
                    rep.expect(got, || {
                        format!("member {c} missed event {id} ({:?})", ev.sel)
                    });
                } else if got {
                    rep.fail(format!("member {c} got event {id} ({:?})", ev.sel));
                }
            }
            if client.chat.log.len() != want_chats {
                rep.fail(format!(
                    "member {c} holds {} chats, expected {want_chats}",
                    client.chat.log.len()
                ));
            }
        }
        // In aggregate: the bus accepted exactly the closed-form number
        // of addressed copies.
        let addressed: u64 = self
            .events
            .iter()
            .map(|ev| recipients(&self.table, ev.sel, Some(ev.sender)) as u64)
            .sum();
        let accepted: u64 = (0..CLIENTS)
            .map(|c| session.client(c).bus.stats().accepted)
            .sum();
        if accepted != addressed {
            rep.fail(format!(
                "members accepted {accepted} events, selectors address {addressed}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The balanced table makes every selector form address a fixed
    /// number of clients, whatever the seed.
    #[test]
    fn closed_form_recipient_counts() {
        for seed in [1, 2, 99] {
            let inputs = Inputs::generate(seed);
            let t = &inputs.table;
            let per_domain = CLIENTS / DOMAINS;
            assert_eq!(recipients(t, Sel::All, None), CLIENTS);
            assert_eq!(recipients(t, Sel::All, Some(7)), CLIENTS - 1);
            for z in 0..DOMAINS as u32 {
                assert_eq!(recipients(t, Sel::Zone(z), None), per_domain);
                for role in ROLES {
                    let n = recipients(t, Sel::RoleZone(role, z), None);
                    assert_eq!(n, per_domain / ROLES.len());
                }
            }
            for role in ROLES {
                for topic in TOPICS {
                    let n = recipients(t, Sel::RoleInterest(role, topic), None);
                    assert_eq!(n, CLIENTS / ROLES.len() / 2, "{role} {topic}");
                }
            }
            // A sender the selector addresses is not its own recipient.
            let sender = 5;
            let sel = Sel::Zone(t[sender].zone);
            assert_eq!(recipients(t, sel, Some(sender)), per_domain - 1);
        }
    }

    /// The selector texts mean to the program's matcher what the
    /// benchmark's own expectation says they mean.
    #[test]
    fn expected_recipients_agree_with_the_selector_language() {
        let inputs = Inputs::generate(3);
        let profiles: Vec<_> = inputs
            .table
            .iter()
            .enumerate()
            .map(|(i, row)| row.profile(&format!("member-{i}")))
            .collect();
        for ev in inputs.events.iter().take(4 * EVENTS) {
            let sel = sempubsub::Selector::parse(&ev.sel.text()).expect("selector parses");
            for (row, profile) in inputs.table.iter().zip(&profiles) {
                assert_eq!(
                    sel.matches(profile.attrs()).expect("selector evaluates"),
                    ev.sel.matches(row),
                    "{:?} on {row:?}",
                    ev.sel
                );
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (Inputs::generate(11), Inputs::generate(11));
        assert_eq!(a.table, b.table);
        assert_eq!(a.loads, b.loads);
        let key = |i: &Inputs| -> Vec<(usize, String, bool)> {
            i.events
                .iter()
                .map(|e| (e.sender, e.sel.text(), e.stroke))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&Inputs::generate(12)));
    }
}
