//! Turns deployment and replay results into the printed metrics: a
//! human-readable line per metric (value, unit, sample count or base),
//! then the one-line JSON result.

use std::path::Path;
use std::time::Instant;

use esds_obs::MetricsRegistry;

use crate::deploy::{Deployment, DeploymentResult, TraceCtx};
use crate::replay::{replay, ReplayConfig, ReplayOutcome};
use crate::stats::{better_quartile, late_window, median, percentile, PerOp, Refused};
use crate::trace::{self_times, write_jsonl, Span, Spans};
use crate::{inputs, run_deployment, Workload, RUN_CAP_S};

/// Relative tolerance within which the replay's strict latency, gossip
/// rate and apply counts must match the traced deployment's for its
/// layer numbers to count as resolved.
pub const REPLAY_TOLERANCE: f64 = 0.25;
/// An await longer than this counts as a slow op.
const SLOW_OP_MS: f64 = 10.0;
/// How many traced deployments the replay re-runs: 4000 operations,
/// enough gossip inputs on `rt-wal-put` for a p99 of their handling, and
/// enough histories that the fidelity check's apply counts settle (the
/// response applies of four histories can differ from the deployment's
/// by 20%, near [`REPLAY_TOLERANCE`]).
const REPLAYED: usize = 8;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Collects metrics and prints one line per metric as it goes.
struct Sheet {
    metrics: Vec<Metric>,
    complete: bool,
}

impl Sheet {
    fn new() -> Self {
        Sheet {
            metrics: Vec::new(),
            complete: true,
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, evidence: &str) {
        println!("  {name:<34} {value:>14.4} {unit:<6} {evidence}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A percentile, or the reason it was refused (reported as 0).
    fn pct(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        match percentile(samples, q) {
            Ok(p) => self.put(name, p.value, unit, &format!("(n={})", p.samples)),
            Err(r) => self.refused(name, unit, r),
        }
    }

    fn refused(&mut self, name: &str, unit: &'static str, r: Refused) {
        self.complete = false;
        self.put(name, 0.0, unit, &format!("UNRESOLVED, {r}"));
    }

    fn per_op(&mut self, name: &str, ratio: PerOp, what: &str) {
        self.put(
            name,
            ratio.value(),
            "1/op",
            &format!(
                "({what} {:.0} / {} {})",
                ratio.count,
                ratio.answered,
                ratio.base()
            ),
        );
    }

    /// A layer this workload does not have.
    fn absent(&mut self, name: &str, unit: &'static str, why: &str) {
        self.put(name, 0.0, unit, &format!("n/a: {why}"));
    }
}

fn latencies(runs: &[DeploymentResult], strict: bool) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| &r.records)
        .filter(|o| o.strict == strict)
        .filter_map(|o| o.latency_ms)
        .collect()
}

fn ops_per_s(runs: &[DeploymentResult]) -> f64 {
    let answered: u64 = runs.iter().map(DeploymentResult::answered).sum();
    let window: f64 = runs.iter().map(|r| r.window_s).sum();
    answered as f64 / window.max(f64::EPSILON)
}

/// Prints one summary line per deployment and every correctness
/// failure; true when there were none.
fn gate(runs: &[DeploymentResult]) -> bool {
    let mut ok = true;
    for (i, r) in runs.iter().enumerate() {
        let slow = r
            .records
            .iter()
            .filter(|o| o.latency_ms.is_some_and(|l| l > SLOW_OP_MS))
            .count();
        println!(
            "  deployment {i}: {:.1} ops/s over {:.3} s, {slow} ops over {SLOW_OP_MS} ms, set-up {:.4} s, {:.1}% CPU stolen",
            r.answered() as f64 / r.window_s.max(f64::EPSILON),
            r.window_s,
            r.setup_s,
            r.steal_share * 100.0
        );
        for w in &r.wrong {
            println!("WRONG (deployment {i}): {w}");
            ok = false;
        }
    }
    ok
}

/// Deployments per block: enough samples for a block's eventual p98 and
/// strict p90 (150 strict gets, 15 beyond the p90).
pub const BLOCK: usize = 6;

/// The end-to-end metrics: name, unit, whether higher is better, and
/// what one block's value is.
const PER_BLOCK: [(&str, &str, bool, &str); 8] = [
    ("ops_per_s", "1/s", true, "answered ops / timed seconds"),
    (
        "late_ops_per_s",
        "1/s",
        true,
        "last-quarter ops / their seconds",
    ),
    ("eventual_p50_ms", "ms", false, "eventual latency p50"),
    ("eventual_p98_ms", "ms", false, "eventual latency p98"),
    ("strict_p50_ms", "ms", false, "strict latency p50"),
    ("strict_p90_ms", "ms", false, "strict latency p90"),
    (
        "setup_s",
        "s",
        false,
        "median set-up (launch, store open, client connect)",
    ),
    ("rss_peak_mb", "MB", false, "peak VmHWM of the process"),
];

/// One block's values, in [`PER_BLOCK`] order.
fn block_metrics(block: &[DeploymentResult]) -> Result<Vec<f64>, (usize, Refused)> {
    let (mut late_ops, mut late_s) = (0usize, 0.0);
    for r in block {
        let done: Vec<f64> = r.records.iter().filter_map(|o| o.done_s).collect();
        if let Some((q, span)) = late_window(&done) {
            late_ops += q;
            late_s += span;
        }
    }
    let eventual = latencies(block, false);
    let strict = latencies(block, true);
    let pct = |i: usize, v: &[f64], q: f64| percentile(v, q).map(|p| p.value).map_err(|r| (i, r));
    let setups: Vec<f64> = block.iter().map(|r| r.setup_s).collect();
    Ok(vec![
        ops_per_s(block),
        late_ops as f64 / late_s.max(f64::EPSILON),
        pct(2, &eventual, 0.5)?,
        pct(3, &eventual, 0.98)?,
        pct(4, &strict, 0.5)?,
        pct(5, &strict, 0.9)?,
        median(&setups),
        block.iter().map(|r| r.rss_peak_mb).fold(0.0, f64::max),
    ])
}

/// The end-to-end metrics of untraced runs. Each per-block metric is
/// reported at its better quartile over the run's blocks of [`BLOCK`]
/// consecutive deployments: interference from other tenants of the host
/// only ever slows a block, so the better quartile tracks the program's
/// own cost, while the quartile (not the best block) keeps one lucky
/// block from setting the value.
///
/// `disturbed` deployments (too much CPU stolen by other guests) are
/// checked for correctness and counted as attempted, but not measured.
pub fn end_to_end(runs: &[DeploymentResult], disturbed: &[DeploymentResult]) -> Outcome {
    let correct = gate(runs) && gate(disturbed) && !runs.is_empty();
    let all = || runs.iter().chain(disturbed);
    let attempted: u64 = all().map(|r| r.records.len() as u64).sum();
    let failed: u64 = all().map(DeploymentResult::failed).sum();
    let answered: u64 = runs.iter().map(DeploymentResult::answered).sum();
    let window: f64 = runs.iter().map(|r| r.window_s).sum();
    let blocks: Vec<&[DeploymentResult]> = runs.chunks_exact(BLOCK).collect();
    println!(
        "{} deployments measured in {} blocks of {BLOCK} ({} disturbed ones not measured): {answered} ops answered over {window:.3} s; {failed} of {attempted} attempted ops unanswered",
        runs.len(),
        blocks.len(),
        disturbed.len()
    );
    let eventual = latencies(runs, false);
    let strict = latencies(runs, true);
    let tail: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .filter_map(|q| {
            percentile(&eventual, *q)
                .ok()
                .map(|p| format!("p{} {:.3}", q * 100.0, p.value))
        })
        .collect();
    let stalled = eventual.iter().filter(|l| **l > SLOW_OP_MS).count();
    println!(
        "  eventual latency over the whole run (ms): {} | {stalled} of {} over {SLOW_OP_MS} ms",
        tail.join(", "),
        eventual.len()
    );
    let mut sheet = Sheet::new();
    let mut per_block: Vec<Vec<f64>> = Vec::new();
    for (i, b) in blocks.iter().enumerate() {
        match block_metrics(b) {
            Ok(v) => {
                let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
                println!("  block {i}: {}", shown.join(" "));
                per_block.push(v);
            }
            Err((i, r)) => {
                println!("WRONG: a block's {} was refused: {r}", PER_BLOCK[i].0);
                sheet.complete = false;
            }
        }
    }
    if per_block.is_empty() {
        sheet.complete = false;
    }
    for (i, (name, unit, higher, what)) in PER_BLOCK.iter().enumerate() {
        let values: Vec<f64> = per_block.iter().map(|v| v[i]).collect();
        let samples = match i {
            2 | 3 => format!("{} eventual samples", eventual.len()),
            4 | 5 => format!("{} strict samples", strict.len()),
            0 | 1 => format!("{answered} answered ops"),
            _ => format!("{} deployments", runs.len()),
        };
        sheet.put(
            name,
            better_quartile(&values, *higher),
            unit,
            &format!(
                "(better quartile of {} blocks' {what}; {samples})",
                values.len()
            ),
        );
    }
    println!(
        "  {:<34} {:>14.4} {:<6} ({failed} unanswered / {attempted} attempted ops; carried by `failed`/`attempted`)",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    Outcome {
        correct: correct && sheet.complete,
        attempted,
        failed,
        metrics: sheet.metrics,
    }
}

/// Whether `a` and `b` agree within [`REPLAY_TOLERANCE`] (both near zero
/// counts as agreement).
fn agrees(a: f64, b: f64) -> bool {
    let hi = a.abs().max(b.abs());
    hi < 0.05 || (a - b).abs() / hi <= REPLAY_TOLERANCE
}

/// The traced run: untraced and traced deployments of the same inputs,
/// alternating, then the single-threaded replay of the traced inputs.
pub fn traced(w: &Workload, seed: u64, seconds: f64, work: &Path, started: Instant) -> Outcome {
    let epoch = Instant::now();
    let mut plain: Vec<DeploymentResult> = Vec::new();
    let mut traced: Vec<DeploymentResult> = Vec::new();
    let mut index = 0u64;
    loop {
        let sum = |v: &[DeploymentResult]| v.iter().map(|r| r.window_s).sum::<f64>();
        let enough = sum(&plain) >= seconds / 2.0 && sum(&traced) >= seconds / 2.0;
        if (enough && traced.len() >= REPLAYED) || started.elapsed().as_secs_f64() > RUN_CAP_S {
            break;
        }
        plain.push(run_deployment(w, seed, index, work, None));
        let ctx = TraceCtx {
            epoch,
            op_base: index << 32,
        };
        traced.push(run_deployment(w, seed, index, work, Some(ctx)));
        index += 1;
        if plain.iter().chain(&traced).any(|r| !r.wrong.is_empty()) {
            break;
        }
    }
    let correct = gate(&plain) && gate(&traced) && !traced.is_empty();
    let attempted: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.records.len() as u64)
        .sum();
    let failed: u64 = plain
        .iter()
        .chain(&traced)
        .map(DeploymentResult::failed)
        .sum();
    let answered: u64 = traced.iter().map(DeploymentResult::answered).sum();
    let layers: Vec<_> = traced.iter().filter_map(|r| r.traced.clone()).collect();
    let mut spans: Vec<Span> = layers.iter().flat_map(|t| t.spans.clone()).collect();
    println!(
        "{} untraced + {} traced deployments of the same inputs; {answered} traced ops answered",
        plain.len(),
        traced.len()
    );
    let mut sheet = Sheet::new();
    // Each traced deployment replays its untraced twin's inputs, so the
    // pair's ratio isolates the tracing cost; the median over pairs
    // discounts interference that hits one side of a pair.
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| {
            ops_per_s(std::slice::from_ref(t))
                / ops_per_s(std::slice::from_ref(p)).max(f64::EPSILON)
        })
        .collect();
    let (p, t) = (ops_per_s(&plain), ops_per_s(&traced));
    sheet.put(
        "trace.ops_per_s_ratio",
        median(&ratios),
        "ratio",
        &format!(
            "(median over {} pairs of traced / untraced ops/s on the same inputs; pooled {t:.1} / {p:.1})",
            ratios.len()
        ),
    );

    // client: spans around the public client calls.
    let client = self_times(&spans);
    let none: Vec<f64> = Vec::new();
    let submit = client.get("client.submit").unwrap_or(&none);
    let await_us = client.get("client.await").unwrap_or(&none);
    sheet.pct("client.submit_us_p50", submit, 0.5, "us");
    sheet.pct("client.submit_us_p99", submit, 0.99, "us");
    sheet.pct("client.await_us_p50", await_us, 0.5, "us");
    sheet.pct("client.await_us_p99", await_us, 0.99, "us");
    let resends: u64 = layers.iter().map(|l| l.counters.resends).sum();
    sheet.per_op(
        "client.resends_per_op",
        PerOp::new(resends as f64, answered),
        "resends",
    );
    let slow = await_us.iter().filter(|us| **us > SLOW_OP_MS * 1e3).count();
    sheet.put(
        "client.slow_op_share",
        slow as f64 / answered.max(1) as f64,
        "ratio",
        &format!("({slow} awaits over {SLOW_OP_MS} ms / {answered} answered ops)"),
    );

    // tcp and runtime: the deployments' own registries.
    let total =
        |f: &dyn Fn(&crate::deploy::Traced) -> u64| layers.iter().map(f).sum::<u64>() as f64;
    match w.deployment {
        Deployment::Tcp { .. } => {
            sheet.per_op(
                "tcp.gossip_msgs_per_op",
                PerOp::new(total(&|l| l.counters.tcp_gossip_msgs), answered),
                "gossip frames sent",
            );
            sheet.per_op(
                "tcp.gossip_bytes_per_op",
                PerOp::new(total(&|l| l.counters.tcp_gossip_bytes), answered),
                "gossip bytes sent",
            );
            let max = |f: &dyn Fn(&crate::deploy::Traced) -> u64| {
                layers.iter().map(f).max().unwrap_or(0) as f64
            };
            sheet.put(
                "tcp.unstable_window_max",
                max(&|l| l.counters.unstable_window_max),
                "count",
                "(max of the unstable_window gauge, sampled every 5 ms)",
            );
            sheet.put(
                "tcp.watermark_age_ms_max",
                max(&|l| l.counters.watermark_age_ms_max),
                "ms",
                "(max of the stable_watermark_age_ms gauge, sampled every 5 ms)",
            );
            sheet.absent(
                "runtime.requests_per_op",
                "1/op",
                "no threaded runtime on this workload",
            );
            sheet.absent(
                "runtime.gossip_msgs_per_op",
                "1/op",
                "no threaded runtime on this workload",
            );
        }
        Deployment::RuntimeWal { .. } => {
            for name in ["tcp.gossip_msgs_per_op", "tcp.gossip_bytes_per_op"] {
                sheet.absent(name, "1/op", "no sockets on this workload");
            }
            sheet.absent(
                "tcp.unstable_window_max",
                "count",
                "no sockets on this workload",
            );
            sheet.absent(
                "tcp.watermark_age_ms_max",
                "ms",
                "no sockets on this workload",
            );
            sheet.per_op(
                "runtime.requests_per_op",
                PerOp::new(total(&|l| l.counters.rt_requests), answered),
                "requests handled",
            );
            sheet.per_op(
                "runtime.gossip_msgs_per_op",
                PerOp::new(total(&|l| l.counters.rt_gossip_msgs), answered),
                "gossip messages sent",
            );
        }
    }

    // replica: exact counts from the shut-down deployments.
    sheet.per_op(
        "replica.response_applies_per_op",
        PerOp::new(total(&|l| l.stats.response_applies), answered),
        "response applies",
    );
    sheet.per_op(
        "replica.memo_applies_per_op",
        PerOp::new(total(&|l| l.stats.memo_applies), answered),
        "memo applies",
    );
    sheet.per_op(
        "replica.gossip_bytes_per_op",
        PerOp::new(total(&|l| l.stats.gossip_out_bytes), answered),
        "approx gossip bytes",
    );
    sheet.put(
        "replica.retained_descriptors",
        total(&|l| l.retained_descriptors) / layers.len().max(1) as f64,
        "count",
        &format!(
            "(summed over replicas, mean of {} deployments)",
            layers.len()
        ),
    );

    // replica, codec, store: the single-threaded replay.
    let wal = MetricsRegistry::new();
    let mut rspans = Spans::new(epoch, 1 << 62);
    let mut outcomes: Vec<ReplayOutcome> = Vec::new();
    let mut replay_ok = true;
    let (mut dep_gossip, mut dep_resp, mut dep_memo, mut dep_answered) = (0.0, 0.0, 0.0, 0u64);
    let (mut dep_lag, mut rep_lag) = (Vec::new(), Vec::new());
    for (k, r) in traced.iter().take(REPLAYED).enumerate() {
        let Some(l) = &r.traced else { continue };
        let gossip = (l.counters.tcp_gossip_msgs + l.counters.rt_gossip_msgs) as f64;
        let streams = inputs(w, seed, k as u64);
        let mut submit_s = Vec::new();
        let mut rest = r.records.as_slice();
        for ops in &streams {
            let (mine, tail) = rest.split_at(ops.len());
            submit_s.push(mine.iter().map(|o| o.submit_s).collect::<Vec<f64>>());
            rest = tail;
        }
        // Each replica ticks once per period and sends one message to each
        // of its n-1 peers, so this period reproduces the deployment's
        // gossip messages per second.
        let (s, n) = (w.deployment.shards(), w.deployment.replicas());
        let links = f64::from(s) * n as f64 * (n as f64 - 1.0);
        let mut cfg = ReplayConfig {
            shards: s,
            replicas: n,
            sharded_frames: matches!(w.deployment, Deployment::Tcp { .. }),
            tick_period: links * r.window_s / gossip,
            hop_delay: 0.0,
            seed: seed ^ k as u64,
        };
        let dir = work.join(format!("replay-{k}"));
        let strict_ms: Vec<f64> = r
            .records
            .iter()
            .filter(|o| o.strict)
            .filter_map(|o| o.latency_ms)
            .collect();
        let lag = median(&strict_ms) / 1e3;
        // Calibration pass with instant delivery: a strict answer waits
        // for three gossip hops in sequence, so the hop delay the pass
        // lacks is a third of its shortfall on strict latency.
        let probe = replay(
            &streams,
            &submit_s,
            cfg,
            &dir,
            &MetricsRegistry::disabled().scoped("wal"),
            &mut Spans::new(epoch, 0),
            0,
        );
        match probe {
            Ok(o) => cfg.hop_delay = ((lag - median(&o.strict_lag)) / 3.0).max(0.0),
            Err(e) => {
                println!("WRONG: replay {k}: {e}");
                replay_ok = false;
                continue;
            }
        }
        println!(
            "  replay {k}: tick period {:.3} ms, hop delay {:.3} ms",
            cfg.tick_period * 1e3,
            cfg.hop_delay * 1e3
        );
        match replay(
            &streams,
            &submit_s,
            cfg,
            &dir,
            &wal.scoped("wal"),
            &mut rspans,
            (k as u64) << 32,
        ) {
            Ok(o) => {
                dep_lag.push(lag);
                rep_lag.push(median(&o.strict_lag));
                outcomes.push(o);
            }
            Err(e) => {
                println!("WRONG: replay {k}: {e}");
                replay_ok = false;
            }
        }
        dep_gossip += gossip;
        dep_resp += l.stats.response_applies as f64;
        dep_memo += l.stats.memo_applies as f64;
        dep_answered += r.answered();
    }
    let replay_ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let rsum = |f: &dyn Fn(&ReplayOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let checks = [
        (
            "gossip msgs",
            PerOp::new(dep_gossip, dep_answered),
            PerOp::new(rsum(&|o| o.gossip_msgs), replay_ops),
        ),
        (
            "response applies",
            PerOp::new(dep_resp, dep_answered),
            PerOp::new(rsum(&|o| o.stats.response_applies), replay_ops),
        ),
        (
            "memo applies",
            PerOp::new(dep_memo, dep_answered),
            PerOp::new(rsum(&|o| o.stats.memo_applies), replay_ops),
        ),
    ];
    let (dl, rl) = (median(&dep_lag), median(&rep_lag));
    let mut faithful = replay_ok && !outcomes.is_empty() && agrees(dl, rl);
    println!(
        "  replay fidelity: strict latency p50 {:.3} ms deployed vs {:.3} ms replayed: {}",
        dl * 1e3,
        rl * 1e3,
        if agrees(dl, rl) { "ok" } else { "MISMATCH" }
    );
    for (what, dep, rep) in &checks {
        let ok = agrees(dep.value(), rep.value());
        faithful &= ok;
        println!(
            "  replay fidelity: {what} per {} {:.3} deployed vs {:.3} replayed: {}",
            dep.base(),
            dep.value(),
            rep.value(),
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    let tag = if faithful {
        "replayed"
    } else {
        "UNRESOLVED: replay does not match the deployment"
    };
    println!(
        "  replay: {} histories, {replay_ops} ops; layer numbers below are {tag}",
        outcomes.len()
    );
    sheet.put(
        "replay.faithful",
        f64::from(u8::from(faithful)),
        "count",
        &format!(
            "(1 when strict latency, gossip and apply counts match within {:.0}%)",
            REPLAY_TOLERANCE * 100.0
        ),
    );
    let rt = self_times(&rspans.spans);
    let get = |name: &str| rt.get(name).cloned().unwrap_or_default();
    for (name, span) in [
        ("codec.request_encode_us", "codec.request_encode"),
        ("codec.request_decode_us", "codec.request_decode"),
        ("codec.response_encode_us", "codec.response_encode"),
        ("codec.response_decode_us", "codec.response_decode"),
        ("codec.gossip_encode_us", "codec.gossip_encode"),
        ("codec.gossip_decode_us", "codec.gossip_decode"),
    ] {
        sheet.pct(name, &get(span), 0.5, "us");
    }
    let frames: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.gossip_frame_bytes.clone())
        .collect();
    sheet.pct("codec.gossip_frame_bytes_p50", &frames, 0.5, "B");
    let max = frames.iter().copied().fold(0.0, f64::max);
    sheet.put(
        "codec.gossip_frame_bytes_max",
        max,
        "B",
        &format!("(n={})", frames.len()),
    );
    let on_request = get("replica.on_request");
    sheet.pct("replica.on_request_us_p50", &on_request, 0.5, "us");
    sheet.pct("replica.on_request_us_p99", &on_request, 0.99, "us");
    let on_gossip = get("replica.on_gossip");
    sheet.pct("replica.on_gossip_us_p50", &on_gossip, 0.5, "us");
    sheet.pct("replica.on_gossip_us_p99", &on_gossip, 0.99, "us");
    sheet.pct(
        "replica.poll_gossip_us",
        &get("replica.poll_gossip"),
        0.5,
        "us",
    );
    let (mut early, mut late) = (Vec::new(), Vec::new());
    for o in &outcomes {
        let q = o.on_request_us.len() / 4;
        early.extend_from_slice(&o.on_request_us[..q]);
        late.extend_from_slice(&o.on_request_us[o.on_request_us.len() - q..]);
    }
    sheet.put(
        "replica.on_request_growth",
        median(&late) / median(&early).max(f64::EPSILON),
        "ratio",
        &format!(
            "(p50 of the last / first quarter of each history, n={} each)",
            early.len()
        ),
    );
    let persist = get("store.persist");
    sheet.pct("store.persist_us_p50", &persist, 0.5, "us");
    sheet.pct("store.persist_us_p99", &persist, 0.99, "us");
    let snap = wal.snapshot();
    let sync = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "wal/sync_us")
        .map(|(_, h)| *h)
        .unwrap_or_default();
    let n = sync.count as usize;
    for (name, q, v) in [
        ("store.sync_us_p50", 0.5, sync.p50),
        ("store.sync_us_p99", 0.99, sync.p99),
    ] {
        let beyond = n.saturating_sub(((q * n as f64).ceil() as usize).max(1));
        if beyond >= crate::stats::MIN_BEYOND {
            sheet.put(
                name,
                v as f64,
                "us",
                &format!("(n={n}, registry histogram)"),
            );
        } else {
            sheet.refused(name, "us", Refused { samples: n, beyond });
        }
    }
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    sheet.per_op(
        "store.syncs_per_op",
        PerOp::new(counter("wal/syncs"), replay_ops),
        "syncs",
    );
    sheet.per_op(
        "store.bytes_per_op",
        PerOp::new(counter("wal/bytes"), replay_ops),
        "log bytes",
    );
    sheet.put(
        "store.checkpoints",
        counter("wal/checkpoints") / outcomes.len().max(1) as f64,
        "count",
        &format!(
            "(snapshots cut per replayed history of {} ops, all replicas)",
            crate::HISTORY
        ),
    );

    spans.extend(rspans.spans);
    let path = Path::new(".bench_work").join(format!("spans-{}.jsonl", w.name));
    match write_jsonl(&path, &spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    Outcome {
        correct: correct && replay_ok,
        attempted,
        failed,
        metrics: sheet.metrics,
    }
}
