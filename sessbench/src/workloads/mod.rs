//! The named workloads. Each generates its inputs from the seed and
//! drives one `CollaborationSession` per repetition through the
//! public API, timing every call from here.

pub mod federated_chat;
pub mod lan_media;
pub mod shaped_uplink;

use crate::calib::Calibrator;
use crate::gen::Digest;
use crate::trace::Tracer;
use cqos_core::apps::ViewedImage;
use cqos_core::inference::AdaptationDecision;
use cqos_core::session::ClientId;
use cqos_core::{AdaptationPolicy, CollaborationSession, EngineChoice, PolicyDb, QosContract};
use media::image::Image;
use sempubsub::{AttrValue, Profile};
use simnet::Ticks;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one repetition (one session, built and driven to the end)
/// produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Session build time: joins, advert settle, tree compile.
    pub setup_s: f64,
    /// Wall time of each round.
    pub round_ms: Vec<f64>,
    /// Simulated seconds the rounds advanced.
    pub sim_s: f64,
    /// Application deliveries: `BusStats.accepted` over clients plus
    /// base-station downlink relays.
    pub deliveries: u64,
    /// Session calls plus expected deliveries.
    pub attempted: u64,
    /// Calls that returned `Err` plus expected deliveries not applied.
    pub failed: u64,
    /// Hash of decisions, deliveries and completed-image bytes.
    pub digest: u64,
    /// Mean PSNR of completed images against their sources.
    pub psnr_db: Option<f64>,
    /// Per-layer figures read from the layers' stats handles.
    pub layer: BTreeMap<&'static str, f64>,
    /// Work counts that per-layer span times are divided by.
    pub work: BTreeMap<&'static str, f64>,
    /// The first few failed checks, described.
    pub failures: Vec<String>,
}

impl Rep {
    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    fn fail_n(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one expected outcome, failing it when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count `want` expected deliveries of which `got` arrived; each
    /// one missing or extra fails.
    pub fn expect_count(&mut self, got: usize, want: usize, what: impl FnOnce() -> String) {
        self.attempted += want as u64;
        if got != want {
            self.fail_n(got.abs_diff(want) as u64, what());
        }
    }

    /// Count one session call, failing it when it returned `Err`.
    pub fn call<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn add_work(&mut self, key: &'static str, v: f64) {
        *self.work.entry(key).or_default() += v;
    }
}

/// What a run carries through its sessions: the span recorder, the
/// host-speed calibrator and the run-wide round count.
pub struct Meter {
    pub tracer: Tracer,
    pub calib: Calibrator,
    rounds: u32,
}

impl Meter {
    pub fn new(traced: bool) -> Meter {
        Meter {
            tracer: Tracer::new(traced),
            calib: Calibrator::default(),
            rounds: 0,
        }
    }
}

/// A workload with its generated inputs.
pub trait Workload {
    /// Build one session, pumping on `workers` threads, and drive
    /// every round of it.
    fn run(&self, workers: usize, meter: &mut Meter) -> Rep;
}

/// The workload called `name`, with inputs generated from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "lan_media" => Some(Box::new(lan_media::Inputs::generate(seed))),
        "federated_chat" => Some(Box::new(federated_chat::Inputs::generate(seed))),
        "shaped_uplink" => Some(Box::new(shaped_uplink::Inputs::generate(seed))),
        _ => None,
    }
}

/// Run one round inside the `round` span, under a round id unique in
/// the run, and return its wall time in ms. A calibration sample
/// follows each round, outside the timing.
pub fn timed_round<T>(meter: &mut Meter, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    meter.tracer.set_round(meter.rounds);
    meter.rounds += 1;
    let t = Instant::now();
    let out = meter.tracer.span("round", f);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    meter.calib.sample();
    (out, ms)
}

/// `pump(d)` of a flat session. Traced, it runs as
/// `net.run_for(d)` then `pump(ZERO)` so simnet plus egress and the
/// client pipeline get spans of their own; both forms complete the
/// same work at the same simulated time. Returns the completed images
/// and the network deliveries the time step made.
pub fn flat_pump(
    session: &mut CollaborationSession,
    tracer: &mut Tracer,
    d: Ticks,
) -> (Vec<(ClientId, ViewedImage)>, u64) {
    let before = session.net.stats().delivered;
    if !tracer.enabled() {
        let out = session.pump(d);
        return (out, session.net.stats().delivered - before);
    }
    tracer.span("simnet.run", |_| session.net.run_for(d));
    let delivered = session.net.stats().delivered - before;
    let out = tracer.span("core.pump_apply", |_| session.pump(Ticks::ZERO));
    (out, delivered)
}

/// One client's attributes, from which both its profile and the
/// expected recipients of every selector are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub role: &'static str,
    pub zone: u32,
    pub interests: Vec<&'static str>,
}

impl Row {
    pub fn profile(&self, name: &str) -> Profile {
        let mut p = Profile::new(name);
        p.set("role", AttrValue::str(self.role));
        p.set("zone", AttrValue::Int(self.zone as i64));
        p.set(
            "interested_in",
            AttrValue::List(self.interests.iter().map(|t| AttrValue::str(t)).collect()),
        );
        p
    }
}

/// A selector in the forms the workloads publish, kept as data so the
/// expected recipients follow from the profile table without the
/// program's own matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sel {
    /// Every client.
    All,
    /// Clients interested in a topic.
    Interest(&'static str),
    /// Clients of one zone.
    Zone(u32),
    /// Clients of one role in one zone.
    RoleZone(&'static str, u32),
    /// Clients of one role interested in a topic.
    RoleInterest(&'static str, &'static str),
}

impl Sel {
    /// The selector source text.
    pub fn text(&self) -> String {
        match self {
            Sel::All => "true".to_string(),
            Sel::Interest(t) => format!("interested_in contains '{t}'"),
            Sel::Zone(z) => format!("zone == {z}"),
            Sel::RoleZone(r, z) => format!("role == '{r}' and zone == {z}"),
            Sel::RoleInterest(r, t) => format!("role == '{r}' and interested_in contains '{t}'"),
        }
    }

    pub fn matches(&self, row: &Row) -> bool {
        match *self {
            Sel::All => true,
            Sel::Interest(t) => row.interests.contains(&t),
            Sel::Zone(z) => row.zone == z,
            Sel::RoleZone(r, z) => row.role == r && row.zone == z,
            Sel::RoleInterest(r, t) => row.role == r && row.interests.contains(&t),
        }
    }
}

/// Clients other than `sender` that `sel` addresses: the expected
/// recipients of one event (multicast has no loopback).
pub fn recipients(table: &[Row], sel: Sel, sender: Option<usize>) -> usize {
    table
        .iter()
        .enumerate()
        .filter(|&(i, row)| Some(i) != sender && sel.matches(row))
        .count()
}

/// The engine of client `i`: threshold, fuzzy and Bayesian in turn.
pub fn rotating_engine(i: usize, policies: PolicyDb) -> Box<dyn AdaptationPolicy> {
    EngineChoice::all()[i % 3].build(policies, QosContract::default())
}

/// Fold one round's decisions into the digest and count the clients
/// whose decision changed since the previous round.
pub fn digest_decisions(
    digest: &mut Digest,
    decisions: &[AdaptationDecision],
    last: &mut Vec<Option<(u32, String, u64)>>,
) -> u64 {
    last.resize(decisions.len(), None);
    let mut changes = 0;
    for (d, prev) in decisions.iter().zip(last.iter_mut()) {
        let key = (
            d.max_packets,
            format!("{:?}", d.modality),
            d.resolution.to_bits(),
        );
        digest.u64(key.0 as u64);
        digest.str(&key.1);
        digest.u64(key.2);
        if prev.as_ref().is_some_and(|p| *p != key) {
            changes += 1;
        }
        *prev = Some(key);
    }
    changes
}

/// Fold a completed image into the digest.
pub fn digest_image(digest: &mut Digest, client: ClientId, v: &ViewedImage) {
    digest.u64(client as u64);
    digest.u64(v.object_id);
    digest.u64(v.packets_accepted as u64);
    digest.bytes(&v.image.data);
}

/// Mean PSNR of completed images against their sources. Lossless
/// completions (infinite PSNR, e.g. a full-budget wireless share of an
/// uncapped stream) are left out of the mean.
#[derive(Default)]
pub struct Psnr {
    sum: f64,
    n: u64,
}

impl Psnr {
    /// Add one completed image, downsampling the source when the
    /// viewer reduced resolution.
    pub fn add(&mut self, source: &Image, viewed: &Image) {
        let db = if (source.width, source.height) == (viewed.width, viewed.height) {
            media::psnr_color(source, viewed)
        } else {
            let factor = source.width / viewed.width.max(1);
            media::psnr_color(&source.downsample(factor.max(1)), viewed)
        };
        if db.is_finite() {
            self.sum += db;
            self.n += 1;
        }
    }

    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Sum `BusStats.accepted` over the wired clients plus the base
/// station's downlink relays, and fold per-client counters into the
/// digest.
pub fn deliveries(session: &CollaborationSession, digest: &mut Digest) -> u64 {
    let mut total = 0;
    for id in 0..session.client_count() {
        let s = session.client(id).bus.stats();
        for v in [s.accepted, s.transformed, s.rejected, s.suppressed] {
            digest.u64(v);
        }
        total += s.accepted;
    }
    if let Some(bs) = &session.base_station {
        for d in &bs.downlink_log {
            digest.str(&d.client);
            digest.str(&d.kind);
            digest.str(&format!("{:?}", d.modality));
        }
        total += bs.downlink_log.len() as u64;
    }
    digest.u64(session.net.now().as_micros());
    total
}

/// Per-layer figures every workload has: simnet, semantic bus and
/// pump-shard counters.
pub fn common_layer(session: &CollaborationSession, rep: &mut Rep) {
    let net = session.net.stats();
    rep.layer.insert("simnet.delivered", net.delivered as f64);
    let routed = (net.delivered + net.dropped).max(1) as f64;
    rep.layer
        .insert("simnet.drop_ratio", net.dropped as f64 / routed);
    let (mut accepted, mut interpreted, mut suppressed) = (0u64, 0u64, 0u64);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for id in 0..session.client_count() {
        let bus = &session.client(id).bus;
        let s = bus.stats();
        accepted += s.accepted + s.transformed;
        interpreted += s.accepted + s.transformed + s.rejected;
        suppressed += s.suppressed;
        let c = bus.cache_stats();
        hits += c.hits();
        lookups += c.hits() + c.misses();
    }
    rep.layer.insert(
        "sempubsub.accept_ratio",
        accepted as f64 / interpreted.max(1) as f64,
    );
    rep.layer.insert("sempubsub.suppressed", suppressed as f64);
    rep.layer.insert(
        "sempubsub.selector_cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    let shards = session.shard_counters();
    let applied: u64 = shards.iter().map(|s| s.delivered()).sum();
    let dropped: u64 = shards.iter().map(|s| s.dropped()).sum();
    rep.layer.insert("core.shard.dropped", dropped as f64);
    rep.add_work("pump.applied", applied as f64);
}
