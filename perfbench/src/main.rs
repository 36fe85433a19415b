//! Wall-clock benchmark of the ESDS deployments.
//!
//! ```text
//! esds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run launches fresh deployments of the workload one after another,
//! each serving a fixed history of [`HISTORY`] operations from
//! [`CLIENTS`] closed-loop client threads, until `--seconds` of timed
//! window have accumulated. Every deployment's answers pass the
//! correctness gate outside the timed window. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! deployments of the same inputs, then replays the traced inputs in one
//! thread, and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod deploy;
mod gen;
mod replay;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use deploy::{run_runtime_wal, run_tcp, Deployment, DeploymentResult, TraceCtx};
use gen::{generate, Mix, TCP_MIX, WAL_MIX};

/// Client threads per deployment, one front end each.
pub const CLIENTS: usize = 2;
/// Operations each deployment serves: well below the measured history
/// cliff, and short enough that the 2 x 3 TCP deployment keeps about
/// half of two cores busy rather than three quarters, so that load from
/// other tenants of the host moves its figures less (see `NOTES.md`).
pub const HISTORY: usize = 500;
/// A run stops launching deployments after this much wall time, so it
/// ends well within its time limit even on a slow machine.
const RUN_CAP_S: f64 = 120.0;
/// A deployment during whose window the hypervisor stole more than this
/// share of the host's CPU time is disturbed: an untraced run measures
/// the undisturbed ones and launches more to make up for it, up to half
/// again its `--seconds`.
const MAX_STEAL: f64 = 0.05;
/// The fewest blocks of deployments an untraced run reports the median of.
const MIN_BLOCKS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub deployment: Deployment,
    pub mix: Mix,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tcp-shard-mix",
        deployment: Deployment::Tcp {
            shards: 2,
            replicas: 3,
        },
        mix: TCP_MIX,
    },
    Workload {
        name: "rt-wal-put",
        deployment: Deployment::RuntimeWal { replicas: 3 },
        mix: WAL_MIX,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs deployment number `index` of the workload on its generated inputs.
pub fn run_deployment(
    w: &Workload,
    seed: u64,
    index: u64,
    work: &Path,
    trace: Option<TraceCtx>,
) -> DeploymentResult {
    let streams = inputs(w, seed, index);
    match w.deployment {
        Deployment::Tcp { shards, replicas } => run_tcp(shards, replicas, &streams, trace),
        Deployment::RuntimeWal { replicas } => {
            run_runtime_wal(replicas, &streams, &work.join(format!("rt-{index}")), trace)
        }
    }
}

/// The op streams of deployment `index`, one per client.
pub fn inputs(w: &Workload, seed: u64, index: u64) -> Vec<Vec<gen::GenOp>> {
    generate(seed, index, CLIENTS, HISTORY / CLIENTS, &w.mix)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esds-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("esds-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | {} clients, {} ops per deployment, {} cores available",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        CLIENTS,
        HISTORY,
        cores
    );
    let out = if args.trace {
        report::traced(&args.workload, args.seed, args.seconds, &work, started)
    } else {
        let mut runs = untraced_runs(&args.workload, args.seed, args.seconds, &work, started);
        let clean = runs.iter().filter(|r| r.steal_share <= MAX_STEAL).count();
        let least = (MIN_BLOCKS * report::BLOCK).min(runs.len());
        if clean < least {
            // Interference through the whole run: measure the least
            // disturbed deployments.
            println!("only {clean} undisturbed deployments: measuring the {least} least disturbed");
            runs.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
        } else {
            runs.sort_by_key(|r| r.steal_share > MAX_STEAL);
        }
        let disturbed = runs.split_off(clean.max(least));
        report::end_to_end(&runs, &disturbed)
    };
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Launches deployments until the undisturbed ones (see [`MAX_STEAL`])
/// hold `seconds` of timed window in at least [`MIN_BLOCKS`] whole
/// blocks, or the run has taken one and a half times `seconds`.
fn untraced_runs(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    started: Instant,
) -> Vec<DeploymentResult> {
    let mut runs: Vec<DeploymentResult> = Vec::new();
    let mut index = 0;
    let cap = (1.5 * seconds).min(RUN_CAP_S);
    loop {
        let clean: Vec<&DeploymentResult> =
            runs.iter().filter(|r| r.steal_share <= MAX_STEAL).collect();
        let window: f64 = clean.iter().map(|r| r.window_s).sum();
        let whole = clean.len().is_multiple_of(report::BLOCK);
        let enough = window >= seconds && whole && clean.len() >= MIN_BLOCKS * report::BLOCK;
        if enough || started.elapsed().as_secs_f64() > cap {
            break;
        }
        let r = run_deployment(w, seed, index, work, None);
        let stop = !r.wrong.is_empty();
        runs.push(r);
        index += 1;
        if stop {
            break;
        }
    }
    runs
}
