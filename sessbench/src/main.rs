//! Whole-session benchmark for the collaboration stack.
//!
//! ```text
//! sessbench --workload <lan_media|federated_chat|shaped_uplink>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates the workload's inputs from the seed, drives one
//! untimed warm-up session, then repeats whole sessions until the
//! measuring time is spent. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it repeats the untraced measurement for
//! half the time, then a traced one for the other half, and reports the
//! per-layer split. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod gen;
mod stats;
mod sys;
mod trace;
mod workloads;

use stats::{highest_supported_tail, median, percentile, sorted};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{to_tsv, totals, unattributed_share, Span};
use workloads::{Meter, Rep, Workload};

/// Round samples a measurement needs: p90 then has ten beyond it.
const MIN_ROUNDS: usize = 100;

/// Pump workers the timed sessions use. On a shared 2-vCPU host the
/// second worker's availability swung `lan_media`'s round time by
/// 10–15% between runs, so timing is serial; every traced run checks
/// that a session at [`SHARDED_WORKERS`] behaves identically.
const WORKERS: usize = 1;
const SHARDED_WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Repetitions of one workload, traced or not.
struct Measured {
    reps: Vec<Rep>,
    spans: Vec<Span>,
    /// Host-speed factor of every round, in order (see [`calib`]).
    factors: Vec<f64>,
}

impl Measured {
    fn round_ms(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.round_ms.iter().copied())
            .collect()
    }

    /// Each session's round times scaled to the nominal host, with its
    /// set-up time scaled by its first round's factor.
    fn scaled(&self) -> Vec<(f64, Vec<f64>)> {
        let mut factors = self.factors.iter();
        self.reps
            .iter()
            .map(|r| {
                let ms: Vec<f64> = r
                    .round_ms
                    .iter()
                    .zip(&mut factors)
                    .map(|(ms, f)| ms * f)
                    .collect();
                let first = ms
                    .first()
                    .zip(r.round_ms.first())
                    .map_or(1.0, |(s, raw)| s / raw);
                (r.setup_s * first, ms)
            })
            .collect()
    }

    fn scaled_p50(&self) -> f64 {
        let all: Vec<f64> = self.scaled().into_iter().flat_map(|(_, ms)| ms).collect();
        percentile(&sorted(&all), 500)
    }

    fn rounds(&self) -> usize {
        self.reps.iter().map(|r| r.round_ms.len()).sum()
    }

    /// Sum of a per-repetition work count.
    fn work(&self, key: &str) -> f64 {
        self.reps
            .iter()
            .map(|r| r.work.get(key).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Repeat whole sessions until `budget` is spent and at least
/// [`MIN_ROUNDS`] rounds were timed.
fn measure(w: &dyn Workload, budget: Duration, traced: bool) -> Measured {
    let mut meter = Meter::new(traced);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.iter().map(|r: &Rep| r.round_ms.len()).sum::<usize>() < MIN_ROUNDS
        || start.elapsed() < budget
    {
        reps.push(w.run(WORKERS, &mut meter));
    }
    Measured {
        reps,
        factors: meter.calib.round_factors(),
        spans: meter.tracer.spans,
    }
}

/// Correctness verdict over every repetition of a run.
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    /// A verdict that starts from the warm-up session's own checks.
    fn new(reference: &Rep) -> Verdict {
        Verdict {
            correct: reference.failed == 0,
            attempted: 0,
            failed: 0,
            problems: reference.failures.clone(),
        }
    }

    fn problem(&mut self, what: String) {
        self.correct = false;
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    /// Count a measured repetition and check it behaved exactly like
    /// the reference repetition.
    fn add(&mut self, label: &str, rep: &Rep, reference: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.compare(label, rep, reference);
        for f in &rep.failures {
            self.problem(format!("{label}: {f}"));
        }
    }

    fn compare(&mut self, label: &str, rep: &Rep, reference: &Rep) {
        if rep.digest != reference.digest {
            self.problem(format!(
                "{label}: behaviour digest {:016x} differs from {:016x}",
                rep.digest, reference.digest
            ));
        }
        if rep.psnr_db.map(f64::to_bits) != reference.psnr_db.map(f64::to_bits) {
            self.problem(format!(
                "{label}: psnr {:?} differs from {:?}",
                rep.psnr_db, reference.psnr_db
            ));
        }
    }
}

type Metrics = BTreeMap<&'static str, (f64, &'static str, String)>;

/// End-to-end metrics, with every time scaled to the nominal host.
/// Rates are medians over the run's sessions of each session's work
/// over its summed round time.
fn end_to_end(m: &Measured, metrics: &mut Metrics) {
    let scaled = m.scaled();
    let rounds: Vec<f64> = scaled
        .iter()
        .flat_map(|(_, ms)| ms.iter().copied())
        .collect();
    let n = rounds.len();
    let s = sorted(&rounds);
    let reps = m.reps.len();
    let rate = |work: &dyn Fn(&Rep) -> f64| {
        let per_rep: Vec<f64> = m
            .reps
            .iter()
            .zip(&scaled)
            .map(|(r, (_, ms))| work(r) / (ms.iter().sum::<f64>() / 1e3))
            .collect();
        median(&per_rep)
    };
    let deliveries: u64 = m.reps.iter().map(|r| r.deliveries).sum();
    let tail =
        highest_supported_tail(n).map_or("none".to_string(), |p| format!("p{}", p as f64 / 10.0));
    let mut put = |name, value: f64, unit, note: String| {
        metrics.insert(name, (value, unit, note));
    };
    put(
        "sim_s_per_s",
        rate(&|r| r.sim_s),
        "1/s",
        format!("median of {reps} sessions"),
    );
    put(
        "deliveries_per_s",
        rate(&|r| r.deliveries as f64),
        "1/s",
        format!("median of {reps} sessions, {deliveries} deliveries"),
    );
    put(
        "round_ms_p50",
        percentile(&s, 500),
        "ms",
        format!("{n} rounds"),
    );
    put(
        "round_ms_p90",
        percentile(&s, 900),
        "ms",
        format!(
            "{n} rounds, {} beyond; highest supported tail {tail}",
            stats::beyond(n, 900)
        ),
    );
    let setups: Vec<f64> = scaled.iter().map(|(setup, _)| *setup).collect();
    put(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {reps} set-ups"),
    );
    let rss = sys::peak_rss_mb().unwrap_or(0.0);
    put(
        "peak_rss_mb",
        rss,
        "MiB",
        "VmHWM of this process".to_string(),
    );
}

/// Every per-layer metric, zero where the workload does not run the
/// layer (see README.md).
fn per_layer(m: &Measured, untraced: &Measured, metrics: &mut Metrics) {
    let t = totals(&m.spans);
    let rounds = m.rounds() as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let self_ms = |name: &str| t.get(name).map_or(0.0, |x| ms(x.self_ns)) / rounds;
    let total_ns = |name: &str| t.get(name).map_or(0, |x| x.total_ns) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let reference = &m.reps[0];
    let layer = |name: &str| reference.layer.get(name).copied().unwrap_or(0.0);
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.insert(name, (value, unit, String::new()));
    };

    put("simnet.run.self_ms", self_ms("simnet.run"), "ms/round");
    put(
        "simnet.run.ns_per_delivery",
        per(total_ns("simnet.run"), m.work("simnet.run.deliveries")),
        "ns",
    );
    put("simnet.delivered", layer("simnet.delivered"), "count");
    put("simnet.drop_ratio", layer("simnet.drop_ratio"), "ratio");

    put("qdisc.drops", layer("qdisc.drops"), "count");
    put("qdisc.ecn_marks", layer("qdisc.ecn_marks"), "count");
    put(
        "qdisc.backlog_pkts_max",
        layer("qdisc.backlog_pkts_max"),
        "pkts",
    );

    put("htb.bits_sent", layer("htb.bits_sent"), "bit");
    put("htb.borrowed_share", layer("htb.borrowed_share"), "ratio");
    put("htb.drops", layer("htb.drops"), "count");
    put("htb.ecn_marks", layer("htb.ecn_marks"), "count");
    put("htb.backlog_bytes_max", layer("htb.backlog_bytes_max"), "B");
    put(
        "htb.active_leaf_share",
        layer("htb.active_leaf_share"),
        "ratio",
    );

    put(
        "sempubsub.accept_ratio",
        layer("sempubsub.accept_ratio"),
        "ratio",
    );
    put(
        "sempubsub.suppressed",
        layer("sempubsub.suppressed"),
        "count",
    );
    put(
        "sempubsub.selector_cache.hit_ratio",
        layer("sempubsub.selector_cache.hit_ratio"),
        "ratio",
    );
    let share_calls = t.get("core.share_event").map_or(0, |x| x.count) as f64;
    put(
        "core.share_event.us_per_call",
        per(total_ns("core.share_event") / 1e3, share_calls),
        "us",
    );

    put("broker.forwarded", layer("broker.forwarded"), "count");
    put(
        "broker.suppression_ratio",
        layer("broker.suppression_ratio"),
        "ratio",
    );
    put("broker.table_size", layer("broker.table_size"), "count");
    put(
        "broker.dedup_dropped",
        layer("broker.dedup_dropped"),
        "count",
    );

    put(
        "dtn.custody_transfers",
        layer("dtn.custody_transfers"),
        "count",
    );
    put("dtn.peak_bytes", layer("dtn.peak_bytes"), "B");
    put("dtn.refused", layer("dtn.refused"), "count");
    put("dtn.evicted", layer("dtn.evicted"), "count");
    put("dtn.expired", layer("dtn.expired"), "count");

    put(
        "core.share_image.self_ms",
        self_ms("core.share_image.miss") + self_ms("core.share_image.hit"),
        "ms/round",
    );
    put(
        "core.share_image.ms_per_miss",
        per(
            total_ns("core.share_image.miss") / 1e6,
            m.work("media.misses"),
        ),
        "ms",
    );
    put(
        "core.media_cache.hit_ratio",
        layer("core.media_cache.hit_ratio"),
        "ratio",
    );
    put(
        "media.images_completed",
        layer("media.images_completed"),
        "count",
    );
    put(
        "media.text_fallbacks",
        layer("media.text_fallbacks"),
        "count",
    );
    put("media.psnr_db", layer("media.psnr_db"), "dB");

    let applied = m.work("pump.applied");
    put(
        "core.pump_apply.self_ms",
        self_ms("core.pump_apply"),
        "ms/round",
    );
    put(
        "core.pump_apply.us_per_delivery",
        per(total_ns("core.pump_apply") / 1e3, applied),
        "us",
    );
    put("core.pump.self_ms", self_ms("core.pump"), "ms/round");
    put(
        "core.pump.us_per_delivery",
        per(total_ns("core.pump") / 1e3, applied),
        "us",
    );
    put("core.shard.dropped", layer("core.shard.dropped"), "count");

    put(
        "core.adapt_all.self_ms",
        self_ms("core.adapt_all"),
        "ms/round",
    );
    put(
        "core.adapt_all.us_per_decision",
        per(total_ns("core.adapt_all") / 1e3, m.work("adapt.decisions")),
        "us",
    );
    put("snmp.errors", layer("snmp.errors"), "count");
    put(
        "core.decision_changes",
        layer("core.decision_changes"),
        "count",
    );

    put(
        "core.service_alerts.self_ms",
        self_ms("core.service_alerts"),
        "ms/round",
    );
    put("core.traps_sent", layer("core.traps_sent"), "count");

    put(
        "wireless.contribute.self_ms",
        self_ms("wireless.contribute"),
        "ms/round",
    );
    put(
        "wireless.downlink_relays",
        layer("wireless.downlink_relays"),
        "count",
    );
    put(
        "wireless.refused_joins",
        layer("wireless.refused_joins"),
        "count",
    );

    put(
        "trace.unattributed_share",
        unattributed_share(&m.spans, "round"),
        "ratio",
    );
    // Both medians scaled to the nominal host, so a drift in host
    // speed between the two halves does not read as overhead.
    put(
        "trace.overhead_ms",
        m.scaled_p50() - untraced.scaled_p50(),
        "ms",
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sessbench: {e}");
            eprintln!(
                "usage: sessbench --workload <lan_media|federated_chat|shaped_uplink> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::generate(&args.workload, args.seed) else {
        eprintln!("sessbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} workers {WORKERS} (available parallelism {threads}) trace {}",
        args.workload, args.seed, args.trace as u8
    );

    // Warm-up: lazy set-up and allocator growth happen here, untimed.
    // Its outcome is the reference every measured session must match.
    let reference = w.run(WORKERS, &mut Meter::new(false));
    let mut verdict = Verdict::new(&reference);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics::new();
    if args.trace {
        let untraced = measure(&*w, budget / 2, false);
        let traced = measure(&*w, budget / 2, true);
        for (label, m) in [("untraced", &untraced), ("traced", &traced)] {
            for (i, rep) in m.reps.iter().enumerate() {
                verdict.add(&format!("{label} session {i}"), rep, &reference);
            }
        }
        // Sharding the pump must not change behaviour.
        let sharded = w.run(SHARDED_WORKERS, &mut Meter::new(false));
        verdict.compare(&format!("workers {SHARDED_WORKERS}"), &sharded, &reference);
        per_layer(&traced, &untraced, &mut metrics);
        // The spans stay in memory while measuring and are written
        // once here, next to the benchmark's build output.
        let path = format!("sessbench/target/spans-{}-{}.tsv", args.workload, args.seed);
        let written = std::fs::create_dir_all("sessbench/target")
            .and_then(|()| std::fs::write(&path, to_tsv(&traced.spans)));
        match written {
            Ok(()) => println!("{} spans written to {path}", traced.spans.len()),
            Err(e) => eprintln!("sessbench: could not write {path}: {e}"),
        }
    } else {
        let m = measure(&*w, budget, false);
        for (i, rep) in m.reps.iter().enumerate() {
            verdict.add(&format!("session {i}"), rep, &reference);
        }
        println!(
            "host factor median {:.4} over {} rounds; raw round p50 {:.4} ms",
            median(&m.factors),
            m.rounds(),
            percentile(&sorted(&m.round_ms()), 500)
        );
        end_to_end(&m, &mut metrics);
    }

    println!("digest {:016x}", reference.digest);
    if let Some(p) = reference.psnr_db {
        println!("psnr_db {p} (mean over completed images, every session)");
    }
    println!(
        "failed_ratio {} ({} of {} calls and expected deliveries)",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted
    );
    for p in &verdict.problems {
        println!("CHECK FAILED: {p}");
    }
    for (name, (value, unit, note)) in &metrics {
        println!("{name:<38} {value:>16.6} {unit:<9} {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit, _))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    );
    if verdict.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload lan_media --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "lan_media");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = args("--workload x --seed 0 --seconds 0.5 --trace 0").unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload lan_media --seconds 10").is_err());
        assert!(args("--workload lan_media --seed 1 --seconds 0").is_err());
        assert!(args("--workload lan_media --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload lan_media --seed 1 --seconds 1 --bogus 1").is_err());
        assert!(args("--workload lan_media --seed").is_err());
    }

    #[test]
    fn json_escapes_and_keeps_numbers_finite() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
