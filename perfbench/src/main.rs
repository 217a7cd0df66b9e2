//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload typing|large_doc|collab|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (or, with `all`, each in turn) against `pedit
//! serve`'s stack in process, checks the outputs, and prints a
//! human-readable report followed by one JSON line per workload. With `--trace 0` it carries the
//! end-to-end metrics, measured with no wrappers installed; with
//! `--trace 1` it reruns the workload untraced and then traced and
//! carries the per-layer metrics. Exits 1 when a correctness check
//! fails, 2 on bad arguments.

mod checks;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pe_observe::Snapshot;

use crate::stack::{ServeDefaults, Stack};
use crate::stats::{median, Quantile, Samples, MIN_BEYOND};
use crate::trace::{Analysis, Op, Tracer};
use crate::workloads::{Log, Window, Workload};

/// Set-ups per untraced run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 25;
/// Ops that start in this lead-in warm connections and caches and are
/// not measured.
const WARM_UP: Duration = Duration::from_millis(1000);
/// Largest tolerated |trace.closure − 1|.
const CLOSURE_TOLERANCE: f64 = 0.02;
/// Where runs keep their stores, relative to the working directory.
const DATA_DIR: &str = ".perfbench-data";
/// Clock ticks per second of `/proc/stat` (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU time every thread of this process (clients and server) has used,
/// in seconds, at nanosecond resolution (`CLOCK_PROCESS_CPUTIME_ID`).
/// Time the hypervisor stole is not charged to it.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Cumulative CPU time the hypervisor stole from this host, in jiffies
/// (`None` where `/proc/stat` is unavailable).
fn host_steal() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

struct Args {
    /// One workload, or all three in turn for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(match value.as_str() {
                        "all" => Workload::ALL.to_vec(),
                        name => vec![Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {value}"))?],
                    })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds must be a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.unwrap_or(false),
    })
}

/// One run of a workload on a fresh stack.
struct Run {
    log: Log,
    /// CPU seconds of each set-up (the gated `setup_s` is their median).
    setup_cpu_s: Vec<f64>,
    /// Wall seconds of each set-up (reported only).
    setup_wall_s: Vec<f64>,
    measured_s: f64,
    before: Snapshot,
    after: Snapshot,
    analysis: Option<Analysis>,
    /// Host steal jiffies during the measured window.
    steal_jiffies: u64,
    /// CPU seconds the process used during the measured window.
    cpu_s: f64,
}

impl Run {
    /// Share of the host's CPU time the hypervisor stole during the run.
    fn steal_share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        ratio(self.steal_jiffies as f64, self.measured_s * USER_HZ * cpus)
    }

    fn cpu_ms_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e3, self.log.completed as f64)
    }

    fn ops_per_s(&self) -> f64 {
        self.log.completed as f64 / self.measured_s
    }

    fn delta(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    fn histogram_delta(&self, name: &str) -> (u64, u64) {
        let read = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = read(&self.before);
        let (c1, s1) = read(&self.after);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    setups: usize,
) -> Result<Run, String> {
    let tracer = traced.then(Tracer::new);
    let base = Path::new(DATA_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..setups {
        let dir = base.join(format!("setup-{i}"));
        let (started, cpu) = (Instant::now(), process_cpu_s());
        let stack = Stack::start(&dir, tracer.clone())?;
        let prepared = workloads::prepare(workload, &stack, seed)?;
        setup_cpu_s.push(process_cpu_s() - cpu);
        setup_wall_s.push(started.elapsed().as_secs_f64());
        if i + 1 < setups {
            drop(prepared);
            workloads::clean(&stack.shutdown()?);
        } else {
            kept = Some((stack, prepared));
        }
    }
    let (stack, prepared) = kept.ok_or("no set-up ran")?;
    let start = Instant::now();
    let window = Window {
        warm_end: start + WARM_UP,
        end: start + WARM_UP + Duration::from_secs(seconds),
    };
    let ((log, docs, shared), (before, after, steal_jiffies, cpu_s)) =
        std::thread::scope(|s| {
            let snapshots = s.spawn(move || {
                std::thread::sleep(window.warm_end.saturating_duration_since(Instant::now()));
                let start = (pe_observe::global().snapshot(), host_steal(), process_cpu_s());
                std::thread::sleep(window.end.saturating_duration_since(Instant::now()));
                let delta = |a: Option<u64>, b: Option<u64>| {
                    a.zip(b).map_or(0, |(a, b)| b.saturating_sub(a))
                };
                (
                    start.0,
                    pe_observe::global().snapshot(),
                    delta(start.1, host_steal()),
                    process_cpu_s() - start.2,
                )
            });
            let driven = workloads::drive(prepared, window, stack.tracer());
            (driven, snapshots.join().expect("snapshot thread panicked"))
        });
    let measured_s = seconds as f64;
    let analysis = stack.tracer().map(|t| t.analyse(window.warm_end, window.end));
    let mut log = log;
    checks::fresh_reader(&stack, seed, &docs, shared.as_ref(), &mut log);
    let dir = stack.shutdown()?;
    let generated = std::mem::take(&mut log.generated);
    checks::ciphertext_only(&dir, &generated, &mut log);
    workloads::clean(&base);
    Ok(Run {
        log,
        setup_cpu_s,
        setup_wall_s,
        measured_s,
        before,
        after,
        analysis,
        steal_jiffies,
        cpu_s,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind a latency (None for non-latency metrics).
    n: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n: None,
    }
}

/// A layer's self time as `<name>.p50` and `<name>.mean`. Means add up
/// across layers to the mean traced wall time and need no tail. A p50
/// with fewer than [`MIN_BEYOND`] samples beyond it fails the run; an op
/// the workload never runs reports 0 with n=0.
fn layer(out: &mut Vec<Metric>, problems: &mut Vec<String>, name: &str, samples: &Samples) {
    let Quantile { ms, n, beyond } = samples.quantile(0.50);
    if n > 0 && beyond < MIN_BEYOND {
        problems.push(format!(
            "{name}.p50: only {beyond} of {n} samples beyond it"
        ));
    }
    out.push(Metric {
        name: format!("{name}.p50"),
        value: ms,
        unit: "ms",
        n: Some(n),
    });
    out.push(Metric {
        name: format!("{name}.mean"),
        value: samples.mean_ms(),
        unit: "ms",
        n: Some(n),
    });
}

/// Median and every standard percentile with enough samples beyond it.
fn describe(samples: &Samples) -> String {
    let mut parts = Vec::new();
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)] {
        let Quantile { ms, beyond, .. } = samples.quantile(q);
        if beyond >= MIN_BEYOND {
            parts.push(format!("{label}={ms:.4}"));
        }
    }
    format!("{} ms n={}", parts.join(" "), samples.len())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The gated metrics: the CPU time of set-up and the CPU the whole stack
/// (clients and server) spent per completed op. The benchmark host is a
/// 2-vCPU VM whose hypervisor steals 0–45 % of the CPU; steal is not
/// charged to the process, so CPU time holds steady where wall-clock
/// set-up, throughput and latency swing with it (see README.md). Those
/// are reported, not gated.
fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&run.setup_cpu_s), "s"),
        metric("cpu_ms_per_op", run.cpu_ms_per_op(), "ms"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. Each `trace.closure.<op>` goes
/// to `closures`, not the metrics: it is 1 by construction once every
/// client span is linked to its handler, so it checks span linking and
/// is no figure of the program.
fn per_layer(
    untraced: &Run,
    traced: &Run,
    problems: &mut Vec<String>,
    closures: &mut Vec<Metric>,
) -> Vec<Metric> {
    let analysis = traced
        .analysis
        .as_ref()
        .expect("traced run has an analysis");
    let empty = Default::default();
    let op = |o: Op| analysis.ops.get(&o).unwrap_or(&empty);
    let mut out = Vec::new();
    for o in Op::ALL {
        let b = op(o);
        let name = o.name();
        layer(
            &mut out,
            problems,
            &format!("extension.self_ms.{name}"),
            &b.extension,
        );
        layer(&mut out, problems, &format!("net.self_ms.{name}"), &b.net);
        layer(
            &mut out,
            problems,
            &format!("cloud.self_ms.{name}"),
            &b.cloud,
        );
        layer(&mut out, problems, &format!("store.ms.{name}"), &b.store);
        let closure = b.closure();
        if !b.wall.is_empty() && (closure - 1.0).abs() > CLOSURE_TOLERANCE {
            problems.push(format!(
                "trace.closure.{name} = {closure:.4} is outside 1 ± {CLOSURE_TOLERANCE}"
            ));
        }
        closures.push(metric(format!("trace.closure.{name}"), closure, "ratio"));
    }
    let (saves, full_saves, opens) = (
        op(Op::Save).wall.len() as f64,
        op(Op::FullSave).wall.len() as f64,
        op(Op::Open).wall.len() as f64,
    );
    let writes = saves + full_saves;
    out.push(metric(
        "extension.req_bytes.save",
        ratio(op(Op::Save).req_bytes as f64, saves),
        "bytes",
    ));
    out.push(metric(
        "extension.resp_bytes.open",
        ratio(op(Op::Open).resp_bytes as f64, opens),
        "bytes",
    ));
    let sealed = traced.delta("core.blocks_sealed.recb") as f64;
    let opened = traced.delta("core.blocks_opened.recb") as f64;
    out.push(metric(
        "core.blocks_sealed_per_save",
        ratio(sealed, writes),
        "count",
    ));
    out.push(metric(
        "core.blocks_opened_per_open",
        ratio(opened, opens),
        "count",
    ));
    let requests = traced.delta("net.server.requests") as f64;
    out.push(metric(
        "net.wakeups_per_request",
        ratio(traced.delta("net.server.epoll_wakeups") as f64, requests),
        "count",
    ));
    out.push(metric(
        "net.connects",
        traced.delta("net.client.connects") as f64,
        "count",
    ));
    out.push(metric(
        "store.fsyncs_per_save",
        ratio(traced.delta("store.fsyncs") as f64, writes),
        "count",
    ));
    let (batches, records) = traced.histogram_delta("store.group_commit.batch_records");
    out.push(metric(
        "store.batch_records_mean",
        ratio(records as f64, batches as f64),
        "count",
    ));
    let user_bytes = (op(Op::Save).req_bytes + op(Op::FullSave).req_bytes) as f64;
    out.push(metric(
        "store.wal_bytes_per_user_byte",
        ratio(
            traced.histogram_delta("store.append_bytes").1 as f64,
            user_bytes,
        ),
        "ratio",
    ));
    layer(&mut out, problems, "collab.wake_ms", &analysis.wake);
    layer(
        &mut out,
        problems,
        "collab.step_self_ms",
        &analysis.step_self,
    );
    let published = traced.delta("collab.published") as f64;
    out.push(metric(
        "collab.resyncs_per_change",
        ratio(traced.delta("collab.resyncs") as f64, published),
        "ratio",
    ));
    out.push(metric(
        "collab.parked_share",
        ratio(
            traced.delta("net.server.parked_wakes") as f64,
            analysis.change_polls as f64,
        ),
        "ratio",
    ));
    let attempts = traced.delta("client.save_attempts") as f64;
    out.push(metric(
        "client.conflict_share",
        ratio(traced.delta("client.save_conflicts") as f64, attempts),
        "ratio",
    ));
    out.push(metric(
        "client.attempts_per_save",
        ratio(attempts, if attempts > 0.0 { saves } else { 0.0 }),
        "count",
    ));
    out.push(metric(
        "trace.overhead",
        1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s()),
        "ratio",
    ));
    out
}

/// The store directory's filesystem type, from the mount table.
fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn aes_backend(snapshot: &Snapshot) -> String {
    let used: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("crypto.backend.") && c.value > 0)
        .map(|c| c.name.trim_start_matches("crypto.backend."))
        .collect();
    if used.is_empty() {
        "unknown".into()
    } else {
        used.join("+")
    }
}

fn print_report(
    args: &Args,
    workload: Workload,
    runs: &[Run],
    metrics: &[Metric],
    closures: &[Metric],
    problems: &[String],
) {
    let defaults = ServeDefaults::get();
    let last = runs.last().expect("at least one run");
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} aes_backend={} fsync={} shards={} workers={} store_fs={} profile=release",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        aes_backend(&last.after),
        defaults.fsync.label(),
        defaults.shards,
        defaults.workers,
        filesystem_of(Path::new(DATA_DIR)),
    );
    for run in runs {
        let l = &run.log;
        println!(
            "run: traced={} setups={} setup_cpu_s={:.4?} setup_wall_s={:.4?} measured_s={} attempted={} completed={} failed={} fail_share={:.4} ops_per_s={:.4} cpu_ms_per_op={:.4}",
            run.analysis.is_some(),
            run.setup_cpu_s.len(),
            run.setup_cpu_s,
            run.setup_wall_s,
            run.measured_s,
            l.attempted,
            l.completed,
            l.failed,
            ratio(l.failed as f64, l.attempted as f64),
            run.ops_per_s(),
            run.cpu_ms_per_op(),
        );
        for (name, samples) in [
            ("save_ms", &l.save),
            ("full_save_ms", &l.full_save),
            ("open_ms", &l.open),
            ("push_ms", &l.push),
        ] {
            if !samples.is_empty() {
                println!("  {name:<14} {}", describe(samples));
            }
        }
    }
    // Reported, not gated: the server keeps every revision of every
    // document in memory, so the peak grows with the run's throughput.
    println!("peak_rss_mb {:.1} (VmHWM, whole process)", peak_rss_mb());
    for run in runs {
        println!(
            "host_steal_share {:.4} (traced={})",
            run.steal_share(),
            run.analysis.is_some()
        );
    }
    for m in metrics {
        match m.n {
            Some(n) => println!("{:<36} {:>14.4} {:<6} n={n}", m.name, m.value, m.unit),
            None => println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
    for m in closures {
        println!(
            "{:<36} {:>14.4} {} (span-linking check, 1 ± {CLOSURE_TOLERANCE}; 0 = op not run)",
            m.name, m.value, m.unit
        );
    }
    for p in problems {
        println!("CHECK FAILED: {p}");
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload typing|large_doc|collab|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for &workload in &args.workloads {
        match measure(&args, workload) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                correct = false;
            }
        }
    }
    let _ = std::fs::remove_dir(DATA_DIR);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload, prints its report and JSON line, and says whether
/// every check passed.
fn measure(args: &Args, workload: Workload) -> Result<bool, String> {
    let runs = if args.trace {
        vec![
            run(workload, args.seed, args.seconds, false, 1)?,
            run(workload, args.seed, args.seconds, true, 1)?,
        ]
    } else {
        vec![run(workload, args.seed, args.seconds, false, SETUPS)?]
    };
    let mut problems: Vec<String> = Vec::new();
    for run in &runs {
        problems.extend(run.log.problems.iter().cloned());
        if !run.log.bad_statuses.is_empty() {
            problems.push(format!(
                "saves answered 413/5xx: {:?}",
                run.log.bad_statuses
            ));
        }
    }
    let mut closures = Vec::new();
    let metrics = match runs.as_slice() {
        [plain, traced] => per_layer(plain, traced, &mut problems, &mut closures),
        [plain] => end_to_end(plain),
        _ => unreachable!("one or two runs"),
    };
    print_report(args, workload, &runs, &metrics, &closures, &problems);
    let last = runs.last().expect("at least one run");
    let correct = problems.is_empty();
    println!(
        "{}",
        json(correct, last.log.attempted, last.log.failed, &metrics)
    );
    Ok(correct)
}
