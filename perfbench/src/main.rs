//! The repository benchmark: one workload per invocation, end-to-end
//! metrics from an untraced run (`--trace 0`) and per-layer metrics from a
//! traced one (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_ideal --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the lines above it
//! are the human-readable report. Exit code 2 means bad arguments, 1 a run
//! that could not produce its metrics.

mod batch;
mod calib;
mod layers;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Report, END_TO_END, PER_LAYER};
use stats::Host;
use trace::{Attribution, Tracer};

pub const WORKLOADS: [&str; 4] = ["batch_ideal", "batch_cg", "resnet18_layers", "serve_routed"];

/// Everything a workload needs from the command line and the host.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    pub host: Host,
    /// The benchmark's own span recorder (off in untraced runs).
    pub tracer: Tracer,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::measure();
    let steal_start = stats::cpu_steal();
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(stats::POOL_WIDTH)
        .build_global()
    {
        eprintln!("perfbench: cannot size the thread pool: {e:?}");
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        host,
        tracer: Tracer::new(args.trace),
    };
    let result = match ctx.workload.as_str() {
        "batch_ideal" => batch::run(&ctx, false),
        "batch_cg" => batch::run(&ctx, true),
        "resnet18_layers" => layers::run(&ctx),
        "serve_routed" => serve::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_start, stats::cpu_steal()) {
        rep.line(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    rep.line(format!("at exit, {}", Host::measure().describe()));
    match stats::peak_rss_mb() {
        Ok(mb) => rep.metric("peak_rss_mb", mb, "MB", 1),
        Err(e) => rep.line(format!("peak_rss_mb unavailable: {e}")),
    }
    rep.lines.insert(0, host.describe());
    rep.lines.insert(
        0,
        format!(
            "workload {} seed {} window {:.1} s trace {}",
            ctx.workload,
            ctx.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );

    let out_dir = args.out.unwrap_or_else(|| {
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench-out")
    });
    let stem = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(args.trace)
    );
    if ctx.traced() {
        finish_trace(&ctx, &mut rep, &out_dir.join(format!("{stem}.trace.json")));
    }

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = match rep.json_line(names) {
        Ok(line) => line,
        Err(e) => {
            print!("{}", rep.text());
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = [
        ("workload", ctx.workload.clone()),
        ("seed", ctx.seed.to_string()),
        ("host", host.describe()),
    ];
    let report_path = out_dir.join(format!("{stem}.report.json"));
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&report_path, rep.json_full(&header)))
    {
        rep.line(format!(
            "report file {} not written: {e}",
            report_path.display()
        ));
    } else {
        rep.line(format!("report file: {}", report_path.display()));
    }
    print!("{}", rep.text());
    println!("{line}");
    ExitCode::SUCCESS
}

/// Attributes the traced wall time to the benchmark's spans, writes and
/// validates the Chrome trace, and checks that the parts add up.
fn finish_trace(ctx: &Ctx, rep: &mut Report, path: &std::path::Path) {
    let spans = ctx.tracer.spans();
    let attribution = Attribution::from_spans(&spans);
    for line in attribution.lines() {
        rep.line(line);
    }
    rep.metric(
        "trace.unattributed_frac",
        attribution.unattributed_ns as f64 / attribution.wall_ns.max(1) as f64,
        "frac",
        spans.len(),
    );
    rep.metric("trace.spans", spans.len() as f64, "count", 1);
    rep.check(
        "trace_closes_on_wall",
        attribution.closure_ns() == 0 && attribution.wall_ns > 0,
        format!(
            "attributed + unattributed - wall = {} ns over {} spans",
            attribution.closure_ns(),
            spans.len()
        ),
    );
    rep.check(
        "trace_no_dropped_spans",
        ctx.tracer.dropped() == 0,
        format!("{} spans dropped", ctx.tracer.dropped()),
    );
    match ctx.tracer.write_chrome_trace(path) {
        Ok(stats) => rep.check(
            "chrome_trace_valid",
            true,
            format!(
                "{} ({} span pairs, {} tracks)",
                path.display(),
                stats.pairs,
                stats.tracks
            ),
        ),
        Err(e) => rep.check("chrome_trace_valid", false, e),
    }
}
