//! `resnet18_layers`: every conv layer of `pf_nn::models::resnet18()` at
//! its own kernel, stride and (halved) resolution with reduced channel
//! width, run one at a time through `TiledExecutor::forward` on the ideal
//! optics, with pf-arch's `LayerSchedule` for the same executed shape
//! beside it.

use std::error::Error;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use photofourier::arch::dataflow::LayerSchedule;
use photofourier::nn::executor::Conv2dExecutor;
use photofourier::nn::layers::Conv2d;
use photofourier::prelude::*;

use crate::calib::Scaler;
use crate::probe::{counter_sum, Probe};
use crate::report::{Report, SetupTimes};
use crate::stats::{self, bit_equal, Samples, POOL_WIDTH};
use crate::trace::Tracer;
use crate::Ctx;

/// Channel counts are divided by this (rounding up), so conv1 keeps one
/// input channel and layer4 runs 16 channels.
const WIDTH_DIV: usize = 32;
/// Feature maps are divided by this (rounding up): conv1 runs at 112×112,
/// large enough that a row exceeds what one 256-waveguide pass can tile.
const RES_DIV: usize = 2;
/// Distinct inputs per layer the timed loop cycles through.
const SETS: usize = 2;
const SETUP_REPS: usize = 7;
const SEGMENTS: usize = 4;
/// The tail quantile reported beside the median.
const TAIL_Q: f64 = 0.9;
/// Stated tolerance against `ReferenceExecutor`, relative to the RMS of
/// the exact output: the executed pipeline is exact up to floating-point
/// rounding of the optical transforms.
const REF_TOL: f64 = 1e-9;
/// The recorded full-size ResNet-18 simulation on PhotoFourier-CG.
const ARCH_REFERENCE: &str = include_str!("../arch_reference.txt");

type Res<T> = Result<T, Box<dyn Error>>;

struct Layer {
    name: &'static str,
    span: &'static str,
    conv: Conv2d,
    size: usize,
    inputs: Vec<Tensor>,
    schedule: LayerSchedule,
}

fn pipeline(edges: EdgeHandling) -> PipelineConfig {
    // Pseudo-negative filter pairs (twice the kernels, as on the
    // hardware) without quantisation. The timed pipeline zero-pads edges,
    // so every layer can be held to the exact reference; the paper's
    // wraparound edges differ from it at the borders by design.
    PipelineConfig {
        pseudo_negative: true,
        edge_handling: edges,
        ..PipelineConfig::ideal()
    }
}

/// `(layer, span name)` of every ResNet-18 conv layer, leaked once
/// because span names are `&'static str`.
fn names() -> &'static [(&'static str, &'static str)] {
    static NAMES: OnceLock<Vec<(&'static str, &'static str)>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        resnet18()
            .conv_layers
            .iter()
            .map(|spec| (leak(spec.name.clone()), leak(format!("nn.{}", spec.name))))
            .collect()
    })
}

fn build_layers(seed: u64) -> Res<Vec<Layer>> {
    let arch = ArchConfig::photofourier_cg();
    resnet18()
        .conv_layers
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ic = spec.in_channels.div_ceil(WIDTH_DIV);
            let oc = spec.out_channels.div_ceil(WIDTH_DIV);
            let size = spec.input_size.div_ceil(RES_DIV);
            let conv = Conv2d::random(
                ic,
                oc,
                spec.kernel,
                spec.stride,
                true,
                0.5,
                stats::derive(seed, 2, i as u64),
            )?;
            let inputs = (0..SETS)
                .map(|s| {
                    Tensor::random(
                        vec![ic, size, size],
                        0.0,
                        1.0,
                        stats::derive(seed, 3, (i * SETS + s) as u64),
                    )
                })
                .collect();
            let schedule = LayerSchedule::new(&conv.spec(&spec.name, size)?, &arch)?;
            let (name, span) = names()[i];
            Ok(Layer {
                name,
                span,
                conv,
                size,
                inputs,
                schedule,
            })
        })
        .collect()
}

type Executor = TiledExecutor<Box<dyn Backend>>;

fn executor(tel: Telemetry) -> Res<Executor> {
    executor_with(tel, EdgeHandling::ZeroPad)
}

fn executor_with(tel: Telemetry, edges: EdgeHandling) -> Res<Executor> {
    let backend = BackendSpec::jtc_ideal(256).instantiate()?;
    Ok(TiledExecutor::new(backend, 256, pipeline(edges))?
        .with_grain(ParallelGrain::Tile)
        .with_telemetry(tel))
}

/// One full pass: every layer on input set `set`.
fn pass(ex: &Executor, layers: &[Layer], set: usize) -> Res<Vec<Tensor>> {
    layers
        .iter()
        .map(|l| Ok(ex.forward(&l.inputs[set], &l.conv)?))
        .collect()
}

/// One timed set-up: seeded layers, their schedules and a fresh executor,
/// then a first pass that prepares every kernel spectrum.
fn setup(ctx: &Ctx, times: &mut SetupTimes) -> Res<(Vec<Layer>, Executor)> {
    ctx.tracer.span("setup", 0, 0, |root| {
        let t0 = Instant::now();
        let (layers, ex) = ctx.tracer.span("session.build", root, 0, |_| -> Res<_> {
            Ok((build_layers(ctx.seed)?, executor(Telemetry::disabled())?))
        })?;
        let t1 = Instant::now();
        ctx.tracer
            .span("session.warmup", root, 0, |_| pass(&ex, &layers, 0))?;
        times.push(t1 - t0, t1.elapsed());
        Ok((layers, ex))
    })
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut rep = Report::default();

    let mut times = SetupTimes::new(!ctx.traced());
    let (layers, ex) = setup(ctx, &mut times)?;

    // The first output of every (layer, input set) against the exact
    // reference; later passes must repeat it bit for bit.
    let mut first = Vec::with_capacity(SETS);
    let mut errs = Vec::new();
    for set in 0..SETS {
        let outs = pass(&ex, &layers, set)?;
        for (l, out) in layers.iter().zip(&outs) {
            let want = ReferenceExecutor.forward(&l.inputs[set], &l.conv)?;
            let e = stats::rel_err(out.data(), want.data());
            if set == 0 {
                rep.line(format!(
                    "fidelity: {:<22} rel_err vs ReferenceExecutor {e:.3e}",
                    l.name
                ));
            }
            rep.check(
                format!("reference_{}_set{set}", l.name),
                e <= REF_TOL,
                format!("rel_err {e:.3e} <= {REF_TOL:e}"),
            );
            errs.push(e);
        }
        first.push(outs.iter().map(|t| t.data().to_vec()).collect::<Vec<_>>());
    }
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    rep.metric("fidelity.feature_rel_err", mean_err, "ratio", errs.len());

    work_vs_model(&mut rep, &layers)?;
    arch_check(&mut rep)?;

    if ctx.traced() {
        for _ in 1..SETUP_REPS {
            setup(ctx, &mut times)?;
        }
        times.report(&mut rep);
        traced(ctx, &mut rep, &ex, &layers, &first)?;
        return Ok(rep);
    }
    // The other set-up repetitions are spread through the window, so
    // `setup_s` sees the same host as the timed passes.
    let mut per_layer = vec![Samples::default(); layers.len()];
    let mut lat = Samples::default();
    let mut scaler = Scaler::new();
    let off = Tracer::new(false);
    let segment = ctx.window / SETUP_REPS as u32;
    for i in 0..SETUP_REPS {
        if i > 0 {
            setup(ctx, &mut times)?;
        }
        let deadline = Instant::now() + segment;
        measure(
            &ex,
            &layers,
            &first,
            deadline,
            &off,
            &mut rep,
            &mut lat,
            &mut per_layer,
            Some(&mut scaler),
        )?;
    }
    times.report(&mut rep);
    // Gated figures are host-scaled (see `calib`); the raw ones beside.
    let scaled = &scaler.scaled;
    rep.metric("images_per_s", 1e3 / scaled.median(), "1/s", scaled.len());
    rep.metric("latency_ms_p50", scaled.median(), "ms", scaled.len());
    rep.metric("images_per_s_raw", 1e3 / lat.median(), "1/s", lat.len());
    rep.metric("latency_ms_p50_raw", lat.median(), "ms", lat.len());
    rep.line(scaler.line("passes"));
    rep.line(format!(
        "resnet18_layers: raw pass_ms_p50 {:.4} pass_ms_p90 {:.4} over {} passes ({} beyond p90, {} beyond p99)",
        lat.median(),
        lat.quantile(0.9),
        lat.len(),
        lat.beyond(TAIL_Q),
        lat.beyond(0.99)
    ));
    for (l, s) in layers.iter().zip(&per_layer) {
        rep.metric(format!("nn.{}.ms", l.name), s.median(), "ms", s.len());
    }
    Ok(rep)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    ex: &Executor,
    layers: &[Layer],
    first: &[Vec<Vec<f64>>],
    deadline: Instant,
    tracer: &Tracer,
    rep: &mut Report,
    lat: &mut Samples,
    per_layer: &mut [Samples],
    mut scaler: Option<&mut Scaler>,
) -> Res<u64> {
    let mut passes = 0u64;
    while Instant::now() < deadline {
        let set = passes as usize % SETS;
        let req = tracer.request_id();
        let start = Instant::now();
        let ok = tracer.span("pass", 0, req, |root| -> Res<bool> {
            let mut ok = true;
            for (i, l) in layers.iter().enumerate() {
                let t = Instant::now();
                let out = tracer.span(l.span, root, req, |_| ex.forward(&l.inputs[set], &l.conv));
                per_layer[i].push(t.elapsed());
                ok &= tracer.span("bench.check", root, req, |_| {
                    out.map(|o| bit_equal(o.data(), &first[set][i]))
                        .unwrap_or(false)
                });
            }
            Ok(ok)
        })?;
        let took = start.elapsed();
        lat.push(took);
        if let Some(s) = scaler.as_deref_mut() {
            s.push(took, 1);
        }
        rep.op(ok);
        passes += 1;
    }
    Ok(passes)
}

/// Tiles and 1D convolutions `ex` executes for one forward of layer `l`,
/// read from the program's `tiling.*` counters.
fn executed_work(ex: &Executor, tel: &Telemetry, l: &Layer) -> Res<(u64, u64)> {
    let before = tel.snapshot();
    ex.forward(&l.inputs[0], &l.conv)?;
    let after = tel.snapshot();
    let delta = |name: &str| counter_sum(&after, name) - counter_sum(&before, name);
    Ok((delta("tiling.tiles"), delta("tiling.convs_1d")))
}

/// Executed tiles and 1D convolutions per layer beside the work pf-arch's
/// `TilingPlan` charges for the same shape. The comparison runs the
/// paper's wraparound edges, the unpadded rows `TilingPlan` models; the
/// zero-padded rows the timed pipeline tiles are listed beside.
fn work_vs_model(rep: &mut Report, layers: &[Layer]) -> Res<()> {
    let tel = Telemetry::with_span_capacity(0);
    let wrap = executor_with(tel.clone(), EdgeHandling::Wraparound)?;
    let padded = executor(tel.clone())?;
    let mut disagreements = Vec::new();
    rep.line(format!(
        "{:<22} {:>4} {:>4} {:>2} {:>4} {:>16} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "layer",
        "ic",
        "oc",
        "k",
        "size",
        "variant",
        "tiles",
        "model",
        "convs_1d",
        "model",
        "sim_cycles",
        "pad_tiles"
    ));
    let mut padded_extra = 0;
    for l in layers {
        let (tiles, convs) = executed_work(&wrap, &tel, l)?;
        let (pad_tiles, _) = executed_work(&padded, &tel, l)?;
        padded_extra += usize::from(pad_tiles != tiles);
        let plan = &l.schedule.plan;
        let ic = l.conv.in_channels() as u64;
        let model_tiles = plan.convs_per_output_plane as u64 * ic;
        let model_convs = model_tiles * l.schedule.effective_filters as u64;
        rep.line(format!(
            "{:<22} {:>4} {:>4} {:>2} {:>4} {:>16} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
            l.name,
            ic,
            l.conv.out_channels(),
            l.conv.kernel(),
            l.size,
            format!("{:?}", plan.variant),
            tiles,
            model_tiles,
            convs,
            model_convs,
            l.schedule.total_cycles,
            pad_tiles
        ));
        rep.metric(format!("tiling.{}.tiles", l.name), tiles as f64, "count", 1);
        rep.metric(
            format!("tiling.{}.convs_1d", l.name),
            convs as f64,
            "count",
            1,
        );
        rep.metric(
            format!("arch.{}.convs_1d", l.name),
            model_convs as f64,
            "count",
            1,
        );
        rep.metric(
            format!("arch.{}.sim_cycles", l.name),
            l.schedule.total_cycles as f64,
            "cycles",
            1,
        );
        if convs != model_convs || tiles != model_tiles {
            disagreements.push(format!(
                "{}: executed {tiles} tiles / {convs} convs_1d, model {model_tiles} / {model_convs}",
                l.name
            ));
        }
    }
    rep.line(format!(
        "work vs model: {} of {} layers disagree",
        disagreements.len(),
        layers.len()
    ));
    for d in &disagreements {
        rep.line(format!("work vs model:   {d}"));
    }
    rep.line(format!(
        "zero-padded edges (the timed pipeline) tile more than wraparound on {padded_extra} of {} layers",
        layers.len()
    ));
    rep.metric(
        "arch.layers_disagreeing",
        disagreements.len() as f64,
        "count",
        layers.len(),
    );
    Ok(())
}

/// Full-size ResNet-18 on PhotoFourier-CG through pf-arch's simulator:
/// fps, EDP and every layer's cycles must repeat the recorded values
/// exactly.
fn arch_check(rep: &mut Report) -> Res<()> {
    let perf = Simulator::new(ArchConfig::photofourier_cg())?.evaluate_network(&resnet18())?;
    let mut actual = vec![format!("fps {:?}", perf.fps), format!("edp {:?}", perf.edp)];
    for layer in &perf.layers {
        actual.push(format!(
            "cycles {} {}",
            layer.layer, layer.schedule.total_cycles
        ));
    }
    let recorded: Vec<&str> = ARCH_REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mismatched: Vec<String> = actual
        .iter()
        .zip(
            recorded
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, r)| a.as_str() != *r)
        .map(|(a, r)| format!("{a} (recorded {r})"))
        .collect();
    let ok = mismatched.is_empty() && recorded.len() == actual.len();
    rep.line(format!(
        "arch: ResNet-18 on PhotoFourier-CG fps {:.3} EDP {:.6e} over {} layers",
        perf.fps,
        perf.edp,
        perf.layers.len()
    ));
    rep.check(
        "arch_matches_recorded",
        ok,
        if ok {
            format!("{} values equal perfbench/arch_reference.txt", actual.len())
        } else {
            format!("differs: {}", mismatched.join("; "))
        },
    );
    Ok(())
}

fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    plain: &Executor,
    layers: &[Layer],
    first: &[Vec<Vec<f64>>],
) -> Res<()> {
    let tel = Telemetry::with_span_capacity(0);
    let observed = executor(tel.clone())?;
    pass(&observed, layers, 0)?;
    let off = Tracer::new(false);
    let segment = ctx.window / (2 * SEGMENTS as u32);
    let (mut lat_off, mut lat_on) = (Samples::default(), Samples::default());
    let mut per_off = vec![Samples::default(); layers.len()];
    let mut per_on = vec![Samples::default(); layers.len()];
    let probe = Probe::start(&tel);
    let mut passes = 0;
    for _ in 0..SEGMENTS {
        measure(
            plain,
            layers,
            first,
            Instant::now() + segment,
            &off,
            rep,
            &mut lat_off,
            &mut per_off,
            None,
        )?;
        passes += measure(
            &observed,
            layers,
            first,
            Instant::now() + segment,
            &ctx.tracer,
            rep,
            &mut lat_on,
            &mut per_on,
            None,
        )?;
    }
    let busy = Duration::from_secs_f64(lat_on.sum() / 1e3);
    probe.finish(&tel, rep, passes, busy, POOL_WIDTH);
    rep.metric(
        "telemetry.overhead_frac",
        1.0 - lat_off.median() / lat_on.median(),
        "frac",
        lat_on.len() + lat_off.len(),
    );
    for (l, s) in layers.iter().zip(&per_on) {
        rep.metric(format!("nn.{}.ms", l.name), s.median(), "ms", s.len());
    }
    Ok(())
}
