//! `lan_media`: a flat LAN session whose rounds are dominated by
//! per-client EZW decoding in the pump's apply phase.
//!
//! Twelve wired adaptive clients (engines rotate threshold → fuzzy →
//! Bayes) sit behind 100 Mbit/s egress planes. A rotating client
//! shares a 128×128 colour scene each round: fresh on three rounds in
//! four (a `MediaCache` miss), an earlier scene on the fourth (a
//! hit). Eight chats and eight strokes ride along, and every fourth
//! round an admitted wireless client contributes through the base
//! station.

use super::{
    common_layer, deliveries, digest_decisions, digest_image, flat_pump, rotating_engine,
    timed_round, Meter, Psnr, Rep, Row, Sel, Workload,
};
use crate::gen::{Digest, Rng};
use cqos_core::{CollaborationSession, PolicyDb, SessionConfig};
use media::image::{synthetic_scene, Scene};
use simnet::qdisc::{QdiscConfig, SharedStats};
use simnet::Ticks;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use sysmon::{LoadProfile, SimHost};
use wireless::{Modality, ModalityThresholds, PathLossModel};

const CLIENTS: usize = 12;
const ROUNDS: usize = 40;
const CHATS: usize = 8;
const STROKES: usize = 8;
const SCENE_SIDE: usize = 128;
const WIRELESS_SIDE: usize = 64;
/// Distances (m) of the wireless candidates from the base station.
const WIRELESS_LADDER_M: [f64; 6] = [15.0, 24.0, 40.0, 50.0, 60.0, 80.0];
const PUMP: Ticks = Ticks::from_millis(500);
const ACCESS_RATE_BPS: u64 = 100_000_000;

/// Host load ladder (CPU %, page faults): the same multiset for each
/// engine, so the seed moves loads between clients but never changes
/// how much decoding a session does. It spans the full image down to
/// the text fallback.
const LOADS: [(f64, f64); 4] = [(10.0, 10.0), (50.0, 50.0), (75.0, 65.0), (99.0, 95.0)];

const CHAT_SELS: [Sel; 4] = [
    Sel::Interest("chat"),
    Sel::RoleInterest("analyst", "chat"),
    Sel::All,
    Sel::Interest("chat"),
];
const IMAGE_SEL: Sel = Sel::Interest("image");
const STROKE_SEL: Sel = Sel::Interest("whiteboard");

pub struct Inputs {
    seed: u64,
    table: Vec<Row>,
    loads: Vec<(f64, f64)>,
    fresh: Vec<Scene>,
    /// Fresh-scene index each round shares.
    shares: Vec<usize>,
    wireless: Vec<(String, f64)>,
    wireless_scenes: Vec<Scene>,
    strokes: Vec<Vec<(i16, i16)>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let roles = ["lead", "analyst", "field"];
        let table: Vec<Row> = (0..CLIENTS)
            .map(|i| {
                let mut interests = vec!["image"];
                if i % 4 != 3 {
                    interests.push("chat");
                }
                if i % 2 == 0 {
                    interests.push("whiteboard");
                }
                Row {
                    role: roles[i % 3],
                    zone: 0,
                    interests,
                }
            })
            .collect();
        // Clients i, i+3, i+6, i+9 share an engine; each such group
        // gets the ladder in a seeded order.
        let mut loads = vec![(0.0, 0.0); CLIENTS];
        for engine in 0..3 {
            for (slot, &l) in rng.permutation(LOADS.len()).iter().zip(&LOADS) {
                loads[engine + 3 * slot] = l;
            }
        }
        let mut fresh = Vec::new();
        let mut shares = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            if r % 4 == 3 {
                // Re-share one of the three scenes just shared.
                shares.push(fresh.len() - 1 - rng.below(3));
            } else {
                shares.push(fresh.len());
                fresh.push(synthetic_scene(
                    SCENE_SIDE,
                    SCENE_SIDE,
                    3,
                    6,
                    rng.next_u64(),
                ));
            }
        }
        // Each candidate stands within half a metre of its rung of the
        // distance ladder, so the seed moves radios without changing
        // who admission control lets in or what modality they get.
        let wireless = WIRELESS_LADDER_M
            .iter()
            .enumerate()
            .map(|(i, d)| (format!("mobile-{i}"), d + rng.range_f64(-0.5, 0.5)))
            .collect();
        let wireless_scenes = (0..4)
            .map(|_| synthetic_scene(WIRELESS_SIDE, WIRELESS_SIDE, 3, 4, rng.next_u64()))
            .collect();
        let strokes = (0..ROUNDS * STROKES)
            .map(|_| {
                (0..4)
                    .map(|_| (rng.below(SCENE_SIDE) as i16, rng.below(SCENE_SIDE) as i16))
                    .collect()
            })
            .collect();
        Inputs {
            seed,
            table,
            loads,
            fresh,
            shares,
            wireless,
            wireless_scenes,
            strokes,
        }
    }
}

/// An event whose recipients are checked after the run.
enum Sent {
    Image {
        sender: Option<usize>,
        object: u64,
    },
    Sketch {
        object: u64,
    },
    Chat {
        sender: usize,
        sel: Sel,
        text: String,
    },
    Stroke {
        sender: usize,
        object: u64,
    },
}

impl Workload for Inputs {
    fn run(&self, workers: usize, meter: &mut Meter) -> Rep {
        let mut rep = Rep::default();
        let setup = Instant::now();
        let mut session = CollaborationSession::new(SessionConfig {
            seed: self.seed,
            workers,
            color_transform: true,
            // Cap the embedded stream so even a full budget of a wired
            // share is lossy and has a finite PSNR.
            full_stream_bpp: Some(6.0),
            ..SessionConfig::default()
        });
        let mut qdiscs = Vec::with_capacity(CLIENTS);
        let mut links = Vec::with_capacity(CLIENTS);
        for (i, row) in self.table.iter().enumerate() {
            let name = format!("client-{i}");
            let (cpu, faults) = self.loads[i];
            let host = SimHost::new(
                &name,
                LoadProfile::Constant(cpu),
                LoadProfile::Constant(faults),
                LoadProfile::Constant(65_536.0),
            );
            let engine = rotating_engine(i, PolicyDb::paper_cpu_load_policy());
            let id = session
                .add_wired_client(row.profile(&name), engine, host)
                .expect("wired client joins");
            qdiscs.push(session.attach_qdisc(id, QdiscConfig::for_rate(ACCESS_RATE_BPS)));
            links.push(session.client(id).link);
        }
        session
            .attach_base_station(PathLossModel::default(), ModalityThresholds::default())
            .expect("base station attaches");
        let mut admitted = Vec::new();
        let mut refused = 0;
        for (id, distance) in &self.wireless {
            match session.wireless_join(id, *distance, 100.0) {
                Ok(_) => admitted.push(id.clone()),
                Err(_) => refused += 1,
            }
        }
        rep.setup_s = setup.elapsed().as_secs_f64();

        let cache = session.media_cache_stats();
        let mut digest = Digest::default();
        let mut last = Vec::new();
        let mut sent: Vec<Sent> = Vec::new();
        let mut sources: BTreeMap<u64, &Scene> = BTreeMap::new();
        let mut next_object = None;
        let mut psnr = Psnr::default();
        let (mut backlog_max, mut snmp_errors, mut changes) = (0u64, 0u64, 0u64);
        let (mut run_deliveries, mut decisions, mut misses) = (0u64, 0u64, 0u64);
        let sim0 = session.net.now();
        for r in 0..ROUNDS {
            let sharer = r % CLIENTS;
            let scene = &self.fresh[self.shares[r]];
            let fresh = r % 4 != 3;
            let misses_before = cache.misses();
            let (round, ms) = timed_round(meter, |tr| {
                let span = if fresh {
                    "core.share_image.miss"
                } else {
                    "core.share_image.hit"
                };
                let object = tr.span(span, |_| {
                    session.share_image(sharer, scene, &IMAGE_SEL.text())
                });
                let object = rep.call("share_image", object);
                for k in 0..CHATS {
                    let sender = (r * CHATS + k) % CLIENTS;
                    let sel = CHAT_SELS[k % CHAT_SELS.len()];
                    let text = format!("r{r}c{k}");
                    let res = tr.span("core.share_event", |_| {
                        session.share_chat(sender, &text, &sel.text())
                    });
                    if rep.call("share_chat", res).is_some() {
                        sent.push(Sent::Chat { sender, sel, text });
                    }
                }
                if let Some(object) = object {
                    for k in 0..STROKES {
                        let sender = (r * STROKES + k + 5) % CLIENTS;
                        let points = self.strokes[r * STROKES + k].clone();
                        let res = tr.span("core.share_event", |_| {
                            session.share_stroke(
                                sender,
                                object,
                                points,
                                k as u8,
                                &STROKE_SEL.text(),
                            )
                        });
                        if rep.call("share_stroke", res).is_some() {
                            sent.push(Sent::Stroke { sender, object });
                        }
                    }
                }
                let mut contributed = None;
                if r % 4 == 0 && !admitted.is_empty() {
                    let who = &admitted[(r / 4) % admitted.len()];
                    let scene = &self.wireless_scenes[(r / 4) % self.wireless_scenes.len()];
                    let res = tr.span("wireless.contribute", |_| {
                        session.wireless_contribute(who, scene, &IMAGE_SEL.text())
                    });
                    contributed = rep.call("wireless_contribute", res).map(|m| (m, scene));
                }
                // Sample the egress queues with the round's traffic queued.
                let backlog: u64 = links
                    .iter()
                    .filter_map(|&l| session.net.qdisc_stats(l))
                    .map(|q| q.backlog_pkts())
                    .sum();
                let (completed, delivered) = flat_pump(&mut session, tr, PUMP);
                let decided = tr.span("core.adapt_all", |_| session.adapt_all());
                (object, completed, backlog, delivered, decided, contributed)
            });
            rep.round_ms.push(ms);
            let (object, completed, backlog, delivered, decided, contributed) = round;
            backlog_max = backlog_max.max(backlog);
            run_deliveries += delivered;
            misses += cache.misses() - misses_before;
            if let Some(object) = object {
                if next_object.is_some_and(|n| n != object) {
                    rep.fail(format!(
                        "round {r}: object id {object}, expected {next_object:?}"
                    ));
                }
                sources.insert(object, scene);
                sent.push(Sent::Image {
                    sender: Some(sharer),
                    object,
                });
                next_object = Some(object + 1);
            }
            if let (Some((modality, scene)), Some(object)) = (contributed, next_object) {
                // The base station allocates the next object id.
                match modality {
                    Modality::FullImage | Modality::TextOnly => {
                        sources.insert(object, scene);
                        sent.push(Sent::Image {
                            sender: None,
                            object,
                        });
                    }
                    Modality::TextAndSketch => sent.push(Sent::Sketch { object }),
                    Modality::None => {}
                }
                next_object = Some(object + 1);
            }
            for (cid, viewed) in &completed {
                digest_image(&mut digest, *cid, viewed);
                match sources.get(&viewed.object_id) {
                    Some(src) => psnr.add(&src.image, &viewed.image),
                    None => rep.fail(format!("completed unknown object {}", viewed.object_id)),
                }
            }
            decisions += decided.len() as u64;
            changes += digest_decisions(&mut digest, &decided, &mut last);
            snmp_errors += (0..CLIENTS)
                .map(|id| session.client(id).netstate.last_errors.len() as u64)
                .sum::<u64>();
        }
        rep.sim_s = (session.net.now() - sim0).as_micros() as f64 / 1e6;
        self.check(&session, &sent, &mut rep);
        rep.deliveries = deliveries(&session, &mut digest);
        rep.digest = digest.finish();
        rep.psnr_db = psnr.mean();

        common_layer(&session, &mut rep);
        let l = &mut rep.layer;
        let sum = |f: fn(&SharedStats) -> &AtomicU64| {
            qdiscs
                .iter()
                .map(|q| f(q).load(Ordering::Relaxed))
                .sum::<u64>() as f64
        };
        l.insert("qdisc.drops", sum(|q| &q.drops));
        l.insert("qdisc.ecn_marks", sum(|q| &q.ecn_marks));
        l.insert("qdisc.backlog_pkts_max", backlog_max as f64);
        l.insert(
            "core.media_cache.hit_ratio",
            cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
        );
        let viewers = (0..CLIENTS).map(|id| &session.client(id).viewer);
        let (viewed, fallbacks) = viewers.fold((0, 0), |(v, f), c| {
            (v + c.viewed.len(), f + c.text_fallbacks.len())
        });
        l.insert("media.images_completed", viewed as f64);
        l.insert("media.text_fallbacks", fallbacks as f64);
        l.insert("media.psnr_db", rep.psnr_db.unwrap_or(0.0));
        l.insert("snmp.errors", snmp_errors as f64);
        l.insert("core.decision_changes", changes as f64);
        let bs = session.base_station.as_ref().expect("attached in setup");
        l.insert("wireless.downlink_relays", bs.downlink_log.len() as f64);
        l.insert("wireless.refused_joins", refused as f64);
        rep.add_work("simnet.run.deliveries", run_deliveries as f64);
        rep.add_work("adapt.decisions", decisions as f64);
        rep.add_work("media.misses", misses as f64);
        rep
    }
}

impl Inputs {
    /// Every addressed viewer completed each image or showed its
    /// caption; every chat and stroke reached exactly its addressees.
    fn check(&self, session: &CollaborationSession, sent: &[Sent], rep: &mut Rep) {
        for (c, row) in self.table.iter().enumerate() {
            let client = session.client(c);
            let seen: BTreeSet<u64> = client
                .viewer
                .viewed
                .iter()
                .map(|v| v.object_id)
                .chain(client.viewer.text_fallbacks.iter().map(|f| f.0))
                .collect();
            let sketches: BTreeSet<u64> = client.sketches.iter().map(|s| s.0).collect();
            let chats: BTreeSet<&str> = client.chat.log.iter().map(|(_, t)| t.as_str()).collect();
            let mut want_chats = 0;
            let mut want_strokes: BTreeMap<u64, usize> = BTreeMap::new();
            for ev in sent {
                match ev {
                    Sent::Image { sender, object } => {
                        if *sender != Some(c) && IMAGE_SEL.matches(row) {
                            rep.expect(seen.contains(object), || {
                                format!("client {c} neither viewed nor captioned object {object}")
                            });
                        }
                    }
                    Sent::Sketch { object } => {
                        if IMAGE_SEL.matches(row) {
                            rep.expect(sketches.contains(object), || {
                                format!("client {c} missed sketch {object}")
                            });
                        }
                    }
                    Sent::Chat { sender, sel, text } => {
                        if *sender != c && sel.matches(row) {
                            want_chats += 1;
                            rep.expect(chats.contains(text.as_str()), || {
                                format!("client {c} missed chat {text}")
                            });
                        }
                    }
                    Sent::Stroke { sender, object } => {
                        // Authors apply their own strokes locally.
                        if *sender == c || STROKE_SEL.matches(row) {
                            *want_strokes.entry(*object).or_default() += 1;
                        }
                    }
                }
            }
            let held = client.chat.log.len();
            if held != want_chats {
                rep.fail(format!(
                    "client {c} holds {held} chats, expected {want_chats}"
                ));
            }
            for (object, want) in want_strokes {
                let got = client.whiteboard.strokes(object).len();
                rep.expect_count(got, want, || {
                    format!("client {c} holds {got} strokes on {object}, expected {want}")
                });
            }
        }
    }
}
