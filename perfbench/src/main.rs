//! The repository benchmark. One command runs one workload against the
//! public serving API and prints every end-to-end metric with its unit,
//! checking every answer bit for bit against an in-process oracle:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edge_small --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--trace 1` is the separate traced run: the op profiler is on, spans
//! are recorded around every call into a layer, and the last line holds
//! the per-layer metrics instead. Workloads, metrics and the predicted
//! pairings between them are described in `perfbench/README.md`.

mod http;
mod lanes;
mod load;
mod replay;
mod stats;
mod trace;
mod workloads;

use load::{Lane, Load, Outcome, Phase, PhaseResult};
use scales_tensor::backend::{self, Backend};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{BulkPaper, EdgeSmall, FleetMixed, Stack, Workload, LANES, ROUNDS};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Request ids of the set-up requests, above every phase's ids.
const SETUP_IDS: u64 = 1 << 40;

/// A run that has not finished by then is stuck: it exits without a
/// result rather than overrun the caller's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where the benchmark may write: the build directory of its checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The run record: everything that makes numbers from two runs
/// comparable or not.
fn run_record(args: &Args) -> String {
    format!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"simd\":\"{}\",\"backend\":\"{}\",\"features\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"lanes\":{LANES}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, usize::from),
        Backend::detected().name(),
        backend::active().name(),
        backend::compiled_features(),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
    )
}

/// Peak resident set of this process, MB (`VmHWM`).
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

/// Send pool item 0 on a fresh lane and wait for a correct answer.
fn first_request(stack: &dyn Stack, id: u64) -> Result<(), String> {
    let mut lanes = stack.lanes()?;
    let lane = &mut lanes[0];
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut got = lane.send(id, 0);
    while got.is_none() && Instant::now() < deadline {
        got = lane.poll(deadline).into_iter().next();
    }
    match got.map(|c| c.outcome) {
        Some(Outcome::Ok) => Ok(()),
        other => Err(format!(
            "set-up request was not answered correctly: {other:?}"
        )),
    }
}

fn offered(phase: &Phase) -> String {
    match phase.load {
        Load::Open { rate } => format!("open {rate} req/s"),
        Load::Closed { window } => format!("closed {window} per lane x {LANES} lanes"),
        Load::Sweep => "sweep of the input pool".into(),
    }
}

/// One stack's measured phases: a warm-up sweep, then `rounds` rounds
/// of `phases`.
struct Served {
    results: Vec<PhaseResult>,
    reloads: Vec<Duration>,
    /// Runtime busy time over (wall time × workers) in saturation.
    saturation_busy_share: f64,
    traces: Vec<scales_telemetry::RequestTrace>,
    resident_bytes: usize,
    final_stats: scales_runtime::RuntimeStats,
}

fn serve(
    stack: Box<dyn Stack + '_>,
    phases: &[Phase],
    rounds: usize,
    pool: usize,
    keep_traces: bool,
) -> Result<Served, String> {
    let mut lanes: Vec<Box<dyn Lane + Send + '_>> = stack.lanes()?;
    let warmup = Phase {
        name: "warmup",
        load: Load::Sweep,
        duration: Duration::from_secs(60),
    };
    let mut results = vec![load::run_phase(&mut lanes, 0, warmup, pool, &mut |_, _| {})];
    let mut reloads = Vec::new();
    let (mut busy, mut capacity) = (0.0, 0.0);
    for phase in (0..rounds).flat_map(|_| phases) {
        let before = stack.stats().busy;
        let result = load::run_phase(
            &mut lanes,
            results.len(),
            *phase,
            pool,
            &mut |start, end| {
                reloads.extend(stack.control(phase, start, end));
            },
        );
        if phase.name == "saturation" {
            busy += stack.stats().busy.saturating_sub(before).as_secs_f64();
            let wall = result
                .end
                .saturating_duration_since(result.start)
                .as_secs_f64();
            capacity += wall * stack.workers().max(1) as f64;
        }
        results.push(result);
    }
    let saturation_busy_share = busy / capacity.max(1e-9);
    drop(lanes);
    let traces = if keep_traces {
        stack.traces()
    } else {
        Vec::new()
    };
    let resident_bytes = stack.resident_bytes();
    let final_stats = stack.shutdown();
    Ok(Served {
        results,
        reloads,
        saturation_busy_share,
        traces,
        resident_bytes,
        final_stats,
    })
}

/// Build the stack `times` times, each time until its first correct
/// answer; keep the last one. Returns the stack and each set-up time.
fn set_up(
    workload: &dyn Workload,
    times: usize,
    profile_ops: bool,
) -> Result<(Box<dyn Stack + '_>, Vec<f64>), String> {
    let mut took = Vec::new();
    let mut kept: Option<Box<dyn Stack + '_>> = None;
    for i in 0..times {
        if let Some(previous) = kept.take() {
            let _ = previous.shutdown();
        }
        let t = Instant::now();
        let stack = workload.build(profile_ops)?;
        first_request(stack.as_ref(), SETUP_IDS + i as u64)?;
        took.push(t.elapsed().as_secs_f64());
        kept = Some(stack);
    }
    Ok((kept.expect("at least one set-up"), took))
}

struct Outcomes {
    attempted: usize,
    failed: usize,
    mismatched: usize,
}

fn outcomes(results: &[PhaseResult], setups: usize) -> Outcomes {
    let records = || results.iter().flat_map(|r| &r.records);
    Outcomes {
        attempted: records().count() + setups,
        failed: records().filter(|r| r.outcome != Outcome::Ok).count(),
        mismatched: records().filter(|r| r.outcome == Outcome::Mismatch).count(),
    }
}

/// `f` on each round of the phases named `name`.
fn per_round(
    results: &[PhaseResult],
    name: &str,
    f: impl Fn(&PhaseResult) -> Option<f64>,
) -> Result<Vec<f64>, String> {
    let values: Vec<f64> = results
        .iter()
        .filter(|r| r.phase.name == name)
        .filter_map(f)
        .collect();
    if values.is_empty() {
        return Err(format!(
            "no round of the {name} phase answered anything correctly"
        ));
    }
    Ok(values)
}

/// The median over rounds of `f` on the phases named `name`.
fn over_rounds(
    results: &[PhaseResult],
    name: &str,
    f: impl Fn(&PhaseResult) -> Option<f64>,
) -> Result<f64, String> {
    per_round(results, name, f).map(|v| stats::median(&v))
}

/// Interquartile range over median: how much a metric moved between
/// the rounds of one run.
fn spread(values: &[f64]) -> f64 {
    let med = stats::median(values);
    stats::quartiles(values).map_or(
        0.0,
        |[q1, _, q3]| if med > 0.0 { (q3 - q1) / med } else { 0.0 },
    )
}

/// All requests of the phases named `name`, pooled over rounds (for
/// statistics over requests; its window is the first round's).
fn pooled(results: &[PhaseResult], name: &str) -> PhaseResult {
    let rounds: Vec<&PhaseResult> = results.iter().filter(|r| r.phase.name == name).collect();
    let first = rounds
        .first()
        .expect("every workload runs light, busy and saturation");
    PhaseResult {
        phase: first.phase,
        start: first.start,
        end: first.end,
        backlog_end: rounds.iter().map(|r| r.backlog_end).max().unwrap_or(0),
        records: rounds
            .iter()
            .flat_map(|r| r.records.iter().copied())
            .collect(),
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn timed(workload: &dyn Workload, seconds: f64) -> Result<(Metrics, Outcomes), String> {
    let phases = workload.phases(seconds);
    let (stack, setups) = set_up(workload, SETUPS, false)?;
    let served = serve(stack, &phases, ROUNDS, workload.pool_len(), false)?;
    for r in &served.results {
        println!("{}", r.report_json(&offered(&r.phase)));
    }
    let p50 = |r: &PhaseResult| r.latency_ms().map(|s| s.p50);
    let rounds = [
        (
            "throughput_ips",
            per_round(&served.results, "saturation", |r| Some(r.images_per_sec()))?,
        ),
        ("light_p50_ms", per_round(&served.results, "light", p50)?),
        ("busy_p50_ms", per_round(&served.results, "busy", p50)?),
    ];
    let out = outcomes(&served.results, SETUPS);
    let (light, busy) = (
        pooled(&served.results, "light"),
        pooled(&served.results, "busy"),
    );
    let windowed = |phase: &PhaseResult| {
        stats::windowed_tail(&phase.latencies_in_send_order())
            .ok_or_else(|| format!("{}: no correct answers", phase.phase.name))
    };
    let round_spread: Vec<String> = rounds
        .iter()
        .map(|(name, v)| format!("\"{name}\":{:.4}", spread(v)))
        .collect();
    // The tails are printed, not bounded: on a noisy 2-vCPU VM they moved
    // by more than the largest bound between runs (see README.md).
    let tail = |name: &str, phase: &PhaseResult| {
        windowed(phase).map(|v| format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"ms\"}}"))
    };
    println!(
        "{{\"summary\":{{\"error_share\":{},\"attempted\":{},\"failed\":{},\"mismatched\":{},\"setup_s_samples\":{:?},\
         \"slo_ms\":{},\"reloads\":{},\"runtime_refused\":{},\"rounds\":{ROUNDS},\"round_spread\":{{{}}},\
         \"tails\":{{{},{}}}}}}}",
        out.failed as f64 / out.attempted as f64,
        out.attempted,
        out.failed,
        out.mismatched,
        setups,
        workload.slo().as_millis(),
        served.reloads.len(),
        refused(&served.final_stats),
        round_spread.join(","),
        tail("light_p90_ms", &light)?,
        tail("busy_p90_ms", &busy)?,
    );
    let round_median = |i: usize| stats::median(&rounds[i].1);
    let metrics: Metrics = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("throughput_ips", round_median(0), "1/s"),
        ("light_p50_ms", round_median(1), "ms"),
        ("busy_p50_ms", round_median(2), "ms"),
        ("busy_slo_share", busy.slo_share(workload.slo()), "share"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok((metrics, out))
}

fn refused(s: &scales_runtime::RuntimeStats) -> u64 {
    s.rejected + s.shed + s.quota_rejected + s.expired
}

/// Per-layer metrics that the public API cannot give for a workload,
/// with the reason; they are reported as 0.
fn unmeasured(workload: &str) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    if workload != "bulk_paper" {
        for name in ["serve.plans_built", "serve.plan_reuse_share"] {
            out.push((
                name,
                "plan counters ride on SrResponse::stats, which the HTTP edge does not expose",
            ));
        }
    } else {
        for name in [
            "http.parse_us",
            "http.submit_us",
            "http.write_us",
            "data.decode_us",
            "data.encode_us",
        ] {
            out.push((name, "bulk_paper submits in-process: no HTTP or codec work"));
        }
    }
    if workload != "fleet_mixed" {
        for name in ["router.reload_ms", "router.reloads", "router.resident_mb"] {
            out.push((name, "no ModelRouter in this workload"));
        }
    }
    out
}

fn traced(
    name: &str,
    workload: &dyn Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, Outcomes), String> {
    let phases = workload.phases(seconds);
    let (stack, _) = set_up(workload, 1, true)?;
    let served = serve(stack, &phases, ROUNDS, workload.pool_len(), true)?;
    for r in &served.results {
        println!("{}", r.report_json(&offered(&r.phase)));
    }
    let measured: Vec<&PhaseResult> = served
        .results
        .iter()
        .filter(|r| r.phase.name != "warmup")
        .collect();
    let origin = served.results[0].start;
    let spans = trace::build_spans(&measured, &served.traces, origin);
    let span_path = target_dir()
        .join("perfbench")
        .join(format!("spans-{name}-seed{seed}.jsonl"));
    trace::write_spans(&span_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "{{\"spans\":{{\"path\":\"{}\",\"count\":{}}}}}",
        span_path.display(),
        spans.len()
    );
    let selfs = trace::mean_self_us(&spans);
    let self_us = |n: &str| selfs.get(n).copied().unwrap_or(0.0);

    // Tracing overhead: the same saturation phase on a fresh stack with
    // the op profiler off and no spans kept.
    let saturation = *phases
        .iter()
        .find(|p| p.name == "saturation")
        .expect("saturation phase");
    let (plain, _) = set_up(workload, 1, false)?;
    let untraced = serve(plain, &[saturation], ROUNDS, workload.pool_len(), false)?;
    let ips = |r: &PhaseResult| Some(r.images_per_sec());
    let untraced_ips = over_rounds(&untraced.results, "saturation", ips)?;
    let traced_ips = over_rounds(&served.results, "saturation", ips)?;

    let s = &served.final_stats;
    let infer_ns = s.busy.as_secs_f64() * 1e9;
    let op_share = |kind: &str| {
        s.op_profile
            .entries()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.total_ns as f64)
            .sum::<f64>()
            / infer_ns.max(1.0)
    };
    let (body, float) = (op_share("body_conv"), op_share("float_conv"));
    let (built, reused) = measured
        .iter()
        .flat_map(|p| &p.records)
        .filter_map(|r| r.server)
        .fold((0usize, 0usize), |(b, u), s| {
            (b + s.plans_built, u + s.plan_reuses)
        });
    let lateness: Vec<f64> = measured
        .iter()
        .filter(|p| matches!(p.phase.load, Load::Open { .. }))
        .flat_map(|p| &p.records)
        .map(|r| r.sent.saturating_duration_since(r.intended).as_secs_f64() * 1e3)
        .collect();

    let mut rep = replay::Replay::default();
    for (graph, h, w) in workload.graphs() {
        replay::replay(graph, h, w, &mut rep)?;
    }
    let infer_us_per_image = infer_ns / 1e3 / (s.images.max(1) as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let reload_ms: Vec<f64> = served
        .reloads
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    let metrics: Metrics = vec![
        ("http.parse_us", self_us("http.parse"), "us"),
        ("http.submit_us", self_us("http.submit"), "us"),
        ("http.write_us", self_us("http.write"), "us"),
        ("data.decode_us", self_us("data.decode"), "us"),
        ("data.encode_us", self_us("data.encode"), "us"),
        ("client.self_us", self_us("client.request"), "us"),
        ("runtime.queue_wait_us", self_us("runtime.queue_wait"), "us"),
        ("runtime.batch_wait_us", self_us("runtime.batch_wait"), "us"),
        (
            "runtime.images_per_dispatch",
            ratio(s.images as f64, s.dispatches as f64),
            "count",
        ),
        (
            "runtime.worker_busy_share",
            served.saturation_busy_share,
            "share",
        ),
        (
            "runtime.queue_high_water",
            s.queue_high_water as f64,
            "count",
        ),
        ("runtime.refused", refused(s) as f64, "count"),
        ("router.reload_ms", stats::median(&reload_ms), "ms"),
        ("router.reloads", reload_ms.len() as f64, "count"),
        (
            "router.resident_mb",
            served.resident_bytes as f64 / (1 << 20) as f64,
            "MB",
        ),
        ("serve.plans_built", built as f64, "count"),
        (
            "serve.plan_reuse_share",
            ratio(reused as f64, (built + reused) as f64),
            "share",
        ),
        ("models.infer_us_per_image", infer_us_per_image, "us"),
        ("models.body_conv_share", body, "share"),
        ("models.float_conv_share", float, "share"),
        ("models.other_share", 1.0 - body - float, "share"),
        (
            "models.effective_gops",
            ratio(rep.cost.effective_ops() / 1e3, infer_us_per_image),
            "GOP/s",
        ),
        (
            "core.scales_conv_us",
            ratio(rep.scales_us, rep.scales_calls as f64),
            "us",
        ),
        (
            "core.rescale_overhead",
            ratio(rep.scales_us, rep.binary_us),
            "ratio",
        ),
        (
            "binary.binconv_us",
            ratio(rep.binary_us, rep.scales_calls as f64),
            "us",
        ),
        (
            "binary.binary_gops",
            ratio(rep.binary_ops as f64 / 1e3, rep.binary_us),
            "GOP/s",
        ),
        (
            "binary.speedup_vs_float",
            ratio(rep.float_same_us, rep.binary_us),
            "ratio",
        ),
        ("tensor.float_conv_us", rep.float_conv_us, "us"),
        (
            "tensor.gemm_gflops",
            ratio(rep.gemm_flops as f64 / 1e3, rep.gemm_us),
            "GFLOP/s",
        ),
        (
            "gen.late_p99_ms",
            stats::summarize(&lateness).map_or(0.0, |l| l.tail),
            "ms",
        ),
        (
            "telemetry.trace_overhead_share",
            1.0 - ratio(traced_ips, untraced_ips),
            "share",
        ),
    ];
    let reasons: Vec<String> = unmeasured(name)
        .iter()
        .map(|(m, why)| format!("\"{m}\":\"{why}\""))
        .collect();
    println!("{{\"unmeasured\":{{{}}}}}", reasons.join(","));
    // The known shape of the system, reported as found.
    let largest = trace::STAGE_SPANS
        .iter()
        .map(|n| (*n, self_us(n)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(n, _)| n);
    println!(
        "{{\"findings\":{{\"largest_server_stage\":\"{largest}\",\"conv_share_of_infer\":{},\"traced_ips\":{traced_ips},\
         \"untraced_ips\":{untraced_ips},\"cost_model_ops_per_image\":{},\"paper_speedup_bound\":64}}}}",
        body + float,
        rep.cost.effective_ops(),
    );
    let mut out = outcomes(&served.results, 1);
    let more = outcomes(&untraced.results, 1);
    out.attempted += more.attempted;
    out.failed += more.failed;
    out.mismatched += more.mismatched;
    Ok((metrics, out))
}

fn run(args: &Args) -> Result<(Metrics, Outcomes), String> {
    let seconds = args.seconds as f64;
    let work = target_dir().join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "edge_small" => Box::new(EdgeSmall::prepare(args.seed)?),
        "bulk_paper" => Box::new(BulkPaper::prepare(args.seed)?),
        "fleet_mixed" => Box::new(FleetMixed::prepare(args.seed, &work)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (edge_small, bulk_paper, fleet_mixed)"
            ))
        }
    };
    if args.trace {
        traced(&args.workload, workload.as_ref(), args.seed, seconds)
    } else {
        timed(workload.as_ref(), seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it either never wakes before the normal exit
    // or ends the process itself.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    // Pin the process backend; engines built afterwards (the router's
    // included) capture it.
    backend::set_backend(Backend::Simd);
    println!("{}", run_record(&args));
    let (metrics, out) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = out.mismatched == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
