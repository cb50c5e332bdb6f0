//! `batch_ideal` and `batch_cg`: fixed-size batches of seeded images
//! through `Session::run_batch` (SmallCnn, 1×16×16) on the ideal optics
//! and on the PhotoFourier-CG signal chain.

use std::error::Error;
use std::time::{Duration, Instant};

use photofourier::prelude::*;

use crate::calib::Scaler;
use crate::probe::Probe;
use crate::report::{Report, SetupTimes};
use crate::stats::{self, bit_equal, Samples, POOL_WIDTH};
use crate::trace::Tracer;
use crate::Ctx;

/// Images per `run_batch` call.
const BATCH: usize = 8;
/// Distinct batches the timed loop cycles through.
const POOL: usize = 8;
/// Fresh constructions timed for `setup_s` (the median is reported); in
/// an untraced run they are spread through the window.
const SETUP_REPS: usize = 9;
/// Untraced/traced segment pairs of a traced run.
const SEGMENTS: usize = 4;
/// The tail quantile reported beside the median.
const TAIL_Q: f64 = 0.9;
/// Stated band for the CG chain's distance from the digital backend
/// (mean absolute difference over RMS): sensing noise and 8-bit
/// conversion put it near 0.07; outside the band the noise model or the
/// conversion chain has changed.
const CG_REL_ERR: (f64, f64) = (0.02, 0.15);

type Res<T> = Result<T, Box<dyn Error>>;

fn scenario(cg: bool) -> Scenario {
    let backend = if cg {
        BackendSpec::photofourier_cg(256)
    } else {
        BackendSpec::jtc_ideal(256)
    };
    Scenario::new(
        if cg {
            "perfbench_batch_cg"
        } else {
            "perfbench_batch_ideal"
        },
        "resnet18",
        backend,
    )
}

fn inputs(ctx: &Ctx, scenario: &Scenario) -> Vec<Vec<Tensor>> {
    let f = &scenario.functional;
    (0..POOL)
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    let seed = stats::derive(ctx.seed, 1, (b * BATCH + i) as u64);
                    Tensor::random(
                        vec![f.input_channels, f.input_size, f.input_size],
                        0.0,
                        1.0,
                        seed,
                    )
                })
                .collect()
        })
        .collect()
}

fn flat(outputs: &[Tensor]) -> Vec<f64> {
    outputs
        .iter()
        .flat_map(|t| t.data().iter().copied())
        .collect()
}

pub fn run(ctx: &Ctx, cg: bool) -> Res<Report> {
    let mut rep = Report::default();
    let scenario = scenario(cg);
    let batches = inputs(ctx, &scenario);
    rep.line(format!(
        "{}: backend {} batch {BATCH} x {:?} pool {POOL} batches, pool width {}",
        ctx.workload,
        scenario.backend.kind.name(),
        [
            1,
            scenario.functional.input_size,
            scenario.functional.input_size
        ],
        POOL_WIDTH
    ));

    let mut times = SetupTimes::new(!ctx.traced());
    let session = setup(ctx, &scenario, &batches[0], &mut times)?;

    // References: per-image inference (deterministic optics) or a replay
    // on a second, independently built session (seeded noise).
    let reference: Vec<Vec<f64>> = if cg {
        let replay = Session::from_scenario(scenario.clone())?;
        batches
            .iter()
            .map(|b| Ok(flat(&replay.run_batch(b)?)))
            .collect::<Res<_>>()?
    } else {
        batches
            .iter()
            .map(|b| {
                let outs = b
                    .iter()
                    .map(|img| session.run_inference(img))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(flat(&outs))
            })
            .collect::<Res<_>>()?
    };
    let digital = Session::from_scenario(Scenario {
        backend: BackendSpec::digital(256),
        ..scenario.clone()
    })?;
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        got.extend_from_slice(&reference[b]);
        want.extend(flat(&digital.run_batch(batch)?));
    }
    let rel = stats::rel_err(&got, &want);
    rep.metric("fidelity.feature_rel_err", rel, "ratio", POOL * BATCH);
    let (lo, hi) = if cg { CG_REL_ERR } else { (0.0, 1e-9) };
    rep.check(
        "fidelity_vs_digital",
        rel >= lo && rel <= hi,
        format!("features differ from the digital backend by {rel:.3e} of their RMS (band {lo:e}..{hi:e})"),
    );

    if ctx.traced() {
        for _ in 1..SETUP_REPS {
            setup(ctx, &scenario, &batches[0], &mut times)?;
        }
        times.report(&mut rep);
        traced(ctx, &mut rep, &scenario, &session, &batches, &reference)?;
        return Ok(rep);
    }

    // The other set-up repetitions are spread through the window, so
    // `setup_s` sees the same host as the timed calls.
    let mut lat = Samples::default();
    let mut scaler = Scaler::new();
    let off = Tracer::new(false);
    let segment = ctx.window / SETUP_REPS as u32;
    for i in 0..SETUP_REPS {
        if i > 0 {
            setup(ctx, &scenario, &batches[0], &mut times)?;
        }
        let deadline = Instant::now() + segment;
        measure(
            &session,
            &batches,
            &reference,
            deadline,
            &off,
            &mut rep,
            &mut lat,
            Some(&mut scaler),
        )?;
    }
    times.report(&mut rep);
    report_latency(&mut rep, &scaler, &ctx.workload);
    Ok(rep)
}

/// One timed set-up: a fresh session, its warm-up and its first (cold)
/// batch.
fn setup(ctx: &Ctx, scenario: &Scenario, first: &[Tensor], times: &mut SetupTimes) -> Res<Session> {
    ctx.tracer.span("setup", 0, 0, |root| {
        let t0 = Instant::now();
        let session = ctx.tracer.span("session.build", root, 0, |_| {
            Session::from_scenario(scenario.clone())
        })?;
        let t1 = Instant::now();
        ctx.tracer.span("session.warmup", root, 0, |_| -> Res<()> {
            session.warmup()?;
            session.run_batch(first)?;
            Ok(())
        })?;
        times.push(t1 - t0, t1.elapsed());
        Ok(session)
    })
}

/// The gated figures are host-scaled; the raw ones are printed beside.
fn report_latency(rep: &mut Report, scaler: &Scaler, workload: &str) {
    let (lat, raw) = (&scaler.scaled, &scaler.raw);
    rep.metric(
        "images_per_s",
        BATCH as f64 * 1e3 / lat.median(),
        "1/s",
        lat.len(),
    );
    rep.metric("latency_ms_p50", lat.median(), "ms", lat.len());
    rep.metric(
        "images_per_s_raw",
        BATCH as f64 * 1e3 / raw.median(),
        "1/s",
        raw.len(),
    );
    rep.metric("latency_ms_p50_raw", raw.median(), "ms", raw.len());
    rep.line(scaler.line("batch calls"));
    rep.line(format!(
        "{workload}: raw batch_ms_p50 {:.4} batch_ms_p90 {:.4} batch_ms_p99 {:.4} over {} calls ({} beyond p90, {} beyond p99)",
        raw.median(),
        raw.quantile(0.9),
        raw.quantile(0.99),
        raw.len(),
        raw.beyond(TAIL_Q),
        raw.beyond(0.99)
    ));
}

/// The timed loop: batch calls until `deadline`, each output checked bit
/// for bit against its reference and, with a `scaler`, followed by a run
/// of the reference kernel.
#[allow(clippy::too_many_arguments)]
fn measure(
    session: &Session,
    batches: &[Vec<Tensor>],
    reference: &[Vec<f64>],
    deadline: Instant,
    tracer: &Tracer,
    rep: &mut Report,
    lat: &mut Samples,
    mut scaler: Option<&mut Scaler>,
) -> Res<u64> {
    let mut images = 0;
    tracer.span("window", 0, 0, |root| -> Res<()> {
        let mut call = 0usize;
        while Instant::now() < deadline {
            let b = call % batches.len();
            let req = tracer.request_id();
            let start = Instant::now();
            let out = tracer.span("session.run_batch", root, req, |_| {
                session.run_batch(&batches[b])
            });
            let took = start.elapsed();
            lat.push(took);
            if let Some(s) = scaler.as_deref_mut() {
                s.push(took, 1);
            }
            let ok = tracer.span("bench.check", root, req, |_| {
                out.map(|o| bit_equal(&flat(&o), &reference[b]))
                    .unwrap_or(false)
            });
            rep.op(ok);
            images += BATCH as u64;
            call += 1;
        }
        Ok(())
    })?;
    Ok(images)
}

/// Alternating untraced and traced segments: the traced ones run a session
/// with the program's telemetry attached (stage timings and counters) and
/// the benchmark's spans on; the untraced ones give the overhead baseline.
fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    scenario: &Scenario,
    plain: &Session,
    batches: &[Vec<Tensor>],
    reference: &[Vec<f64>],
) -> Res<()> {
    let tel = Telemetry::with_span_capacity(0);
    let observed = Session::builder()
        .scenario(scenario.clone())
        .telemetry(tel.clone())
        .build()?;
    observed.warmup()?;
    observed.run_batch(&batches[0])?;
    let off = Tracer::new(false);
    let segment = ctx.window / (2 * SEGMENTS as u32);
    let (mut lat_off, mut lat_on) = (Samples::default(), Samples::default());
    let probe = Probe::start(&tel);
    let mut images = 0;
    for _ in 0..SEGMENTS {
        measure(
            plain,
            batches,
            reference,
            Instant::now() + segment,
            &off,
            rep,
            &mut lat_off,
            None,
        )?;
        images += measure(
            &observed,
            batches,
            reference,
            Instant::now() + segment,
            &ctx.tracer,
            rep,
            &mut lat_on,
            None,
        )?;
    }
    let busy = Duration::from_secs_f64(lat_on.sum() / 1e3);
    probe.finish(&tel, rep, images, busy, POOL_WIDTH);
    rep.metric(
        "telemetry.overhead_frac",
        1.0 - lat_off.median() / lat_on.median(),
        "frac",
        lat_on.len() + lat_off.len(),
    );
    rep.line(format!(
        "telemetry overhead: untraced batch p50 {:.4} ms (n={}) traced {:.4} ms (n={})",
        lat_off.median(),
        lat_off.len(),
        lat_on.median(),
        lat_on.len()
    ));
    Ok(())
}
