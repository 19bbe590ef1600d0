//! `shaped_uplink`: a flat session whose publisher's access link
//! carries a hierarchical shaping tree, so per-packet egress work over
//! the tree's leaves dominates the rounds.
//!
//! The tree has a leaf per viewer plus idle subscriber leaves, all on
//! the 8-tier plan catalog. Each round the publisher re-shares one
//! 64×64 scene (a `MediaCache` hit after round one) and draws strokes;
//! then each viewer's leaf counters are folded into an RTP receiver
//! report, every client adapts, and plan alerts go to a management
//! station.

use super::{
    common_layer, deliveries, digest_decisions, digest_image, flat_pump, rotating_engine,
    timed_round, Meter, Psnr, Rep, Row, Sel, Workload,
};
use crate::gen::{Digest, Rng};
use cqos_core::{CollaborationSession, PolicyDb, SessionConfig};
use htb::{RatePlan, TreeSpec};
use media::image::{synthetic_scene, Scene};
use simnet::rtp::ReceiverReport;
use simnet::Ticks;
use std::collections::BTreeSet;
use std::time::Instant;
use sysmon::SimHost;

const VIEWERS: usize = 24;
const IDLE_LEAVES: usize = 2000;
const ROUNDS: usize = 50;
const STROKES: usize = 8;
const SCENE_SIDE: usize = 64;
const PUMP: Ticks = Ticks::from_millis(700);
const UPLINK_BPS: u64 = 100_000_000;
const SITES: usize = 4;
const APS_PER_SITE: usize = 4;
/// Idle leaves address node ids no client has.
const IDLE_DST_BASE: u32 = 1_000_000;

/// The 8-tier plan catalog (assured / ceiling, bits/s).
const CATALOG: [(&str, u64, u64); 8] = [
    ("copper", 512_000, 1_000_000),
    ("bronze", 1_000_000, 2_000_000),
    ("silver", 1_500_000, 3_000_000),
    ("gold", 2_000_000, 4_000_000),
    ("platinum", 3_000_000, 6_000_000),
    ("biz-s", 4_000_000, 8_000_000),
    ("biz-m", 5_000_000, 10_000_000),
    ("biz-l", 6_000_000, 12_000_000),
];

const IMAGE_SEL: Sel = Sel::Interest("image");
const STROKE_SEL: Sel = Sel::Interest("whiteboard");

pub struct Inputs {
    seed: u64,
    scene: Scene,
    strokes: Vec<Vec<(i16, i16)>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let scene = synthetic_scene(SCENE_SIDE, SCENE_SIDE, 1, 4, rng.next_u64());
        let strokes = (0..ROUNDS * STROKES)
            .map(|_| {
                (0..4)
                    .map(|_| (rng.below(SCENE_SIDE) as i16, rng.below(SCENE_SIDE) as i16))
                    .collect()
            })
            .collect();
        Inputs {
            seed,
            scene,
            strokes,
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
            full_stream_bpp: Some(2.0),
            ..SessionConfig::default()
        });
        let publisher_row = Row {
            role: "publisher",
            zone: 0,
            interests: vec!["chat"],
        };
        let viewer_row = Row {
            role: "viewer",
            zone: 0,
            interests: vec!["image", "whiteboard"],
        };
        let publisher = session
            .add_wired_client(
                publisher_row.profile("publisher"),
                rotating_engine(0, PolicyDb::congestion_policy()),
                SimHost::idle("publisher"),
            )
            .expect("publisher joins");
        let viewers: Vec<usize> = (0..VIEWERS)
            .map(|i| {
                let name = format!("viewer-{i}");
                let engine = rotating_engine(i + 1, PolicyDb::congestion_policy());
                session
                    .add_wired_client(viewer_row.profile(&name), engine, SimHost::idle(&name))
                    .expect("viewer joins")
            })
            .collect();
        let nms = session
            .add_router("nms", UPLINK_BPS)
            .expect("management station attaches");

        let mut spec = TreeSpec::new(UPLINK_BPS);
        let mut aps = Vec::new();
        for s in 0..SITES {
            let site = spec.add_site(&format!("site{s}"), UPLINK_BPS / 4, UPLINK_BPS / 2);
            for a in 0..APS_PER_SITE {
                aps.push(spec.add_ap(site, &format!("ap{s}.{a}"), UPLINK_BPS / 16, UPLINK_BPS / 4));
            }
        }
        let plan = |tier: usize| {
            let (name, assured, ceil) = CATALOG[tier];
            RatePlan::new(name, assured, ceil)
        };
        let mut leaves = Vec::with_capacity(VIEWERS + IDLE_LEAVES);
        // Viewers first, then the idle leaves, tiers in catalog order.
        // The layout is fixed, not seeded: egress cost per delivery
        // depends on where the busy leaves sit among the idle ones.
        for i in 0..VIEWERS + IDLE_LEAVES {
            let dst = match viewers.get(i) {
                Some(&v) => session.client(v).node.0,
                None => IDLE_DST_BASE + i as u32,
            };
            let tier = plan(i % CATALOG.len());
            leaves.push(spec.add_subscriber(aps[i % aps.len()], &format!("sub{i}"), &tier, dst));
        }
        let tree = session.attach_tree(publisher, spec);
        // An ECN-capable sender: the leaves' CoDel marks its media
        // where it would drop anything else, and the marks reach the
        // viewers' engines through the receiver reports.
        let socket = session.client(publisher).bus.socket();
        session.net.set_ecn(socket, true);
        rep.setup_s = setup.elapsed().as_secs_f64();

        let cache = session.media_cache_stats();
        let pkts_per_round = (1 + session.config().packets_per_image + STROKES) as f64;
        let mut digest = Digest::default();
        let mut last = Vec::new();
        let mut objects = Vec::with_capacity(ROUNDS);
        let mut viewer_prev = vec![(0u64, 0u64); VIEWERS];
        let mut psnr = Psnr::default();
        let (mut backlog_max, mut active_sum) = (0u64, 0.0);
        let (mut traps, mut snmp_errors, mut changes) = (0u64, 0u64, 0u64);
        let (mut run_deliveries, mut decisions, mut misses) = (0u64, 0u64, 0u64);
        let sim0 = session.net.now();
        for r in 0..ROUNDS {
            let misses_before = cache.misses();
            let ((object, completed, decided), ms) = timed_round(meter, |tr| {
                let span = if r == 0 {
                    "core.share_image.miss"
                } else {
                    "core.share_image.hit"
                };
                let object = tr.span(span, |_| {
                    session.share_image(publisher, &self.scene, &IMAGE_SEL.text())
                });
                let object = rep.call("share_image", object);
                if let Some(object) = object {
                    for k in 0..STROKES {
                        let points = self.strokes[r * STROKES + k].clone();
                        let res = tr.span("core.share_event", |_| {
                            session.share_stroke(
                                publisher,
                                object,
                                points,
                                k as u8,
                                &STROKE_SEL.text(),
                            )
                        });
                        rep.call("share_stroke", res);
                    }
                }
                // Sample the tree with the round's traffic queued.
                let backlogged = leaves
                    .iter()
                    .filter(|&&l| tree.backlog_bytes(l) > 0)
                    .count();
                active_sum += backlogged as f64 / leaves.len() as f64;
                backlog_max = backlog_max.max(tree.backlog_bytes(htb::ROOT));
                let (completed, delivered) = flat_pump(&mut session, tr, PUMP);
                run_deliveries += delivered;
                tr.span("core.ingest_rtp", |_| {
                    for (i, &v) in viewers.iter().enumerate() {
                        let leaf = leaves[i];
                        let (drops, marks) = (tree.drops(leaf), tree.ecn_marks(leaf));
                        let (d0, m0) = viewer_prev[i];
                        viewer_prev[i] = (drops, marks);
                        let report = ReceiverReport {
                            fraction_lost: ((drops - d0) as f64 / pkts_per_round).min(1.0),
                            fraction_ecn_ce: ((marks - m0) as f64 / pkts_per_round).min(1.0),
                            ..ReceiverReport::default()
                        };
                        session.ingest_rtp_report(v, &report);
                    }
                });
                let decided = tr.span("core.adapt_all", |_| session.adapt_all());
                traps +=
                    tr.span("core.service_alerts", |_| session.service_plan_alerts(nms)) as u64;
                (object, completed, decided)
            });
            rep.round_ms.push(ms);
            misses += cache.misses() - misses_before;
            objects.extend(object);
            for (cid, viewed) in &completed {
                digest_image(&mut digest, *cid, viewed);
                psnr.add(&self.scene.image, &viewed.image);
            }
            decisions += decided.len() as u64;
            changes += digest_decisions(&mut digest, &decided, &mut last);
            snmp_errors += (0..session.client_count())
                .map(|id| session.client(id).netstate.last_errors.len() as u64)
                .sum::<u64>();
        }
        rep.sim_s = (session.net.now() - sim0).as_micros() as f64 / 1e6;
        for &v in &viewers {
            let client = session.client(v);
            let seen: BTreeSet<u64> = client
                .viewer
                .viewed
                .iter()
                .map(|x| x.object_id)
                .chain(client.viewer.text_fallbacks.iter().map(|f| f.0))
                .collect();
            for &object in &objects {
                rep.expect(seen.contains(&object), || {
                    format!("viewer {v} neither viewed nor captioned object {object}")
                });
                let strokes = client.whiteboard.strokes(object).len();
                rep.expect_count(strokes, STROKES, || {
                    format!("viewer {v} holds {strokes} strokes on {object}, expected {STROKES}")
                });
            }
        }
        rep.deliveries = deliveries(&session, &mut digest);
        rep.digest = digest.finish();
        rep.psnr_db = psnr.mean();

        common_layer(&session, &mut rep);
        let sent: u64 = leaves.iter().map(|&l| tree.bits_sent(l)).sum();
        let borrowed: u64 = leaves.iter().map(|&l| tree.borrowed_bits(l)).sum();
        let l = &mut rep.layer;
        l.insert("htb.bits_sent", tree.bits_sent(htb::ROOT) as f64);
        l.insert("htb.borrowed_share", borrowed as f64 / sent.max(1) as f64);
        l.insert("htb.drops", tree.drops(htb::ROOT) as f64);
        l.insert("htb.ecn_marks", tree.ecn_marks(htb::ROOT) as f64);
        l.insert("htb.backlog_bytes_max", backlog_max as f64);
        l.insert("htb.active_leaf_share", active_sum / ROUNDS as f64);
        l.insert(
            "core.media_cache.hit_ratio",
            cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
        );
        let (viewed, fallbacks) = viewers.iter().fold((0, 0), |(a, b), &v| {
            let c = &session.client(v).viewer;
            (a + c.viewed.len(), b + c.text_fallbacks.len())
        });
        l.insert("media.images_completed", viewed as f64);
        l.insert("media.text_fallbacks", fallbacks as f64);
        l.insert("media.psnr_db", rep.psnr_db.unwrap_or(0.0));
        l.insert("snmp.errors", snmp_errors as f64);
        l.insert("core.decision_changes", changes as f64);
        l.insert("core.traps_sent", traps as f64);
        rep.work
            .insert("simnet.run.deliveries", run_deliveries as f64);
        rep.add_work("adapt.decisions", decisions as f64);
        rep.add_work("media.misses", misses as f64);
        rep
    }
}
