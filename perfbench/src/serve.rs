//! `serve_routed`: an open loop of seeded Poisson arrivals from one
//! generator thread into `route::route_scenario` — ideal optics, two
//! replicas of one worker each, `kernel_affinity` routing, three priority
//! classes and more model variants than each replica keeps resident.
//!
//! Every request is timed from its scheduled send time, so a stalled
//! generator or a slow submit shows in the latency of the requests behind
//! it; how late the generator ran is reported beside.

use std::error::Error;
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use photofourier::prelude::*;
use photofourier::route::{self, model_scenario, ModelRequest, RouterRequest, SessionRouter};

use crate::calib::Scaler;
use crate::probe::{counter_sum, Probe};
use crate::report::{Report, SetupTimes};
use crate::stats::{self, bit_equal, quantile, Rng, Samples};
use crate::trace::Tracer;
use crate::Ctx;

/// The p99 latency limit, from scheduled send to response.
const SLO_MS: f64 = 40.0;
/// Model variants served; each replica keeps `CACHE` resident.
const MODELS: u64 = 6;
const CACHE: usize = 2;
/// Consecutive requests for one model (the locality affinity routing
/// exploits), the run length of pf-bench's routing traces. Runs cycle
/// through the models in order, so which requests miss a replica's
/// resident set is fixed by the routing, not the seed.
const RUN_LEN: usize = 6;
/// Replicas, each with one worker thread: the threads the tier computes on.
const REPLICAS: usize = 2;
/// Distinct images requests draw from.
const IMAGES: usize = 16;
/// Offered rates of the `low` phase (light load: latency is service
/// time) and the `high` phase (queueing shows, the SLO still holds). On a
/// 2-vCPU host the tier's burst saturation read 906–985 req/s host-scaled
/// (575–947 raw) over seeds 1–5, and its open-loop `max_rps_slo` read
/// 278–515 req/s: `low` is under a tenth of saturation and `high` stays
/// below the lowest `max_rps_slo`.
const LOW_RPS: f64 = 82.5;
const HIGH_RPS: f64 = 220.0;
/// The rate ladder for `max_rps_slo`, climbed from the bottom, spanning
/// the open-loop limits measured above.
const LADDER: [f64; 10] = [
    160.0, 200.0, 240.0, 280.0, 320.0, 360.0, 400.0, 440.0, 480.0, 520.0,
];
/// Shares of the measured window: low, high, saturation, isolated
/// requests, then the whole ladder.
const SHARE_LOW: f64 = 0.3;
const SHARE_HIGH: f64 = 0.2;
const SHARE_SATURATION: f64 = 0.25;
const SHARE_ISOLATED: f64 = 0.1;
/// Interleaved rounds of the low, high, saturation and isolated phases,
/// each after one timed set-up (the median is `setup_s`).
const ROUNDS: usize = 5;
/// Requests submitted at once in the saturation phase: two cycles through
/// every model's run, so each burst carries the same model mix and the
/// same resident-set misses.
const BURST: usize = 2 * RUN_LEN * MODELS as usize;
/// Sequential requests that warm a fresh router.
const WARM_REQUESTS: usize = 4;

type Res<T> = Result<T, Box<dyn Error>>;

fn scenario() -> Scenario {
    let mut scenario = Scenario::new("perfbench_serve", "resnet18", BackendSpec::jtc_ideal(256));
    scenario.serving = Some(ServingSpec {
        max_batch: 4,
        batch_timeout_us: 200,
        queue_depth: 256,
        workers: 1,
        router: Some(RouterSpec {
            replicas: REPLICAS,
            policy: "kernel_affinity".into(),
            priority_classes: ["interactive", "standard", "background"]
                .map(String::from)
                .to_vec(),
            slo_p99_ms: SLO_MS,
            models: MODELS as usize,
            replica_cache: CACHE,
            shed_at: 0.75,
            shrink_at: 0.5,
        }),
    });
    scenario
}

#[derive(Clone, Copy)]
struct Arrival {
    at: Duration,
    model: u64,
    image: usize,
    class: usize,
}

/// Poisson arrivals at `rps` for `length`, a pure function of the seed.
fn schedule(seed: u64, stream: u64, rps: f64, length: Duration) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let model = (out.len() / RUN_LEN) as u64 % MODELS;
        t += -(1.0 - rng.unit()).ln() / rps;
        if t >= length.as_secs_f64() {
            return out;
        }
        let u = rng.unit();
        out.push(Arrival {
            at: Duration::from_secs_f64(t),
            model,
            image: (rng.next_u64() % IMAGES as u64) as usize,
            class: if u < 0.25 {
                0
            } else if u < 0.75 {
                1
            } else {
                2
            },
        });
    }
}

/// What happened to one request.
#[derive(Clone, Copy)]
struct Outcome {
    /// Milliseconds from scheduled send to response; `None` if refused
    /// or failed.
    latency_ms: Option<f64>,
    /// Served bits equal the offline session's.
    correct: bool,
}

/// One phase at one offered rate.
struct Phase {
    rps: f64,
    outcomes: Vec<Outcome>,
    lateness: Samples,
    submit: Samples,
    wall: Duration,
}

impl Phase {
    /// One phase from consecutive slices at the same rate.
    fn merge(parts: Vec<Phase>) -> Phase {
        let mut out = Phase {
            rps: parts.first().map_or(0.0, |p| p.rps),
            outcomes: Vec::new(),
            lateness: Samples::default(),
            submit: Samples::default(),
            wall: Duration::ZERO,
        };
        for p in parts {
            out.outcomes.extend(p.outcomes);
            out.lateness.extend(&p.lateness);
            out.submit.extend(&p.submit);
            out.wall += p.wall;
        }
        out
    }

    fn served(&self) -> Samples {
        let mut s = Samples::default();
        for o in &self.outcomes {
            if let Some(ms) = o.latency_ms {
                s.push_ms(ms);
            }
        }
        s
    }

    /// p99 with every refused or failed request counted as missing it.
    fn p99_all(&self) -> f64 {
        let all: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.latency_ms.unwrap_or(f64::INFINITY))
            .collect();
        quantile(&all, 0.99)
    }

    fn miss_frac(&self) -> f64 {
        let missed = self
            .outcomes
            .iter()
            .filter(|o| o.latency_ms.is_none_or(|ms| ms > SLO_MS))
            .count();
        missed as f64 / self.outcomes.len().max(1) as f64
    }

    /// No growing backlog: the last quarter's median latency stays within
    /// twice the first quarter's plus a millisecond.
    fn steady(&self) -> bool {
        let n = self.outcomes.len();
        let part = |r: std::ops::Range<usize>| {
            let v: Vec<f64> = self.outcomes[r]
                .iter()
                .map(|o| o.latency_ms.unwrap_or(f64::INFINITY))
                .collect();
            quantile(&v, 0.5)
        };
        n >= 8 && part(3 * n / 4..n) <= 2.0 * part(0..n / 4) + 1.0
    }

    fn meets_slo(&self) -> bool {
        self.p99_all() <= SLO_MS && self.steady()
    }
}

/// Offline features of every (model, image) pair, from per-variant
/// sessions built outside the router.
fn references(base: &Scenario, images: &[Tensor]) -> Res<Vec<Vec<Vec<f64>>>> {
    (0..MODELS)
        .map(|m| {
            let session = Session::from_scenario(model_scenario(base, m))?;
            Ok(session
                .run_batch(images)?
                .iter()
                .map(|t| t.data().to_vec())
                .collect())
        })
        .collect()
}

struct InFlight<'r> {
    scheduled: Instant,
    model: u64,
    image: usize,
    root: u64,
    req: u64,
    /// When `submit` returned: the request is in the router's hands.
    submitted: Instant,
    ticket: photofourier::route::RouterTicket<'r, photofourier::route::ModelShardEngine>,
}

/// Sends `arrivals` on schedule and waits for every response. Responses
/// are reaped by one thread per replica, in submission order, which is
/// the order a replica's single worker completes them.
fn run_phase(
    router: &SessionRouter,
    arrivals: &[Arrival],
    rps: f64,
    images: &[Tensor],
    refs: &[Vec<Vec<f64>>],
    tracer: &Tracer,
) -> Phase {
    // One write-once slot per arrival, filled by whichever thread
    // resolves it.
    let outcomes: Vec<OnceLock<Outcome>> = (0..arrivals.len()).map(|_| OnceLock::new()).collect();
    let mut lateness = Samples::default();
    let mut submit = Samples::default();
    let start = Instant::now();
    std::thread::scope(|s| {
        let mut senders = Vec::new();
        for _ in 0..router.replica_count() {
            let (tx, rx) = mpsc::channel::<(usize, InFlight<'_>)>();
            senders.push(tx);
            let outcomes = &outcomes;
            s.spawn(move || {
                for (k, f) in rx {
                    let w0 = Instant::now();
                    let result = f.ticket.wait();
                    let done = Instant::now();
                    let correct = result
                        .as_ref()
                        .map(|t| bit_equal(t.data(), &refs[f.model as usize][f.image]))
                        .unwrap_or(false);
                    // In flight from submit's return to the response; the
                    // reaper waits on it once earlier tickets resolved.
                    let (flight_id, wait_id) = (tracer.alloc(), tracer.alloc());
                    tracer.record(
                        flight_id,
                        "router.in_flight",
                        f.submitted,
                        done,
                        f.root,
                        f.req,
                    );
                    tracer.record(wait_id, "ticket.wait", w0, done, flight_id, f.req);
                    tracer.record(f.root, "request", f.scheduled, done, 0, f.req);
                    let ms = (done - f.scheduled).as_secs_f64() * 1e3;
                    let _ = outcomes[k].set(Outcome {
                        latency_ms: result.is_ok().then_some(ms),
                        correct,
                    });
                }
            });
        }
        for (k, a) in arrivals.iter().enumerate() {
            let scheduled = start + a.at;
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let (req, root) = (tracer.request_id(), tracer.alloc());
            let s0 = Instant::now();
            lateness.push(s0 - scheduled);
            let payload = ModelRequest::new(images[a.image].clone(), a.model);
            let request = RouterRequest::new(payload)
                .with_class(a.class)
                .with_affinity(a.model);
            let submitted = router.submit(request);
            let s1 = Instant::now();
            submit.push(s1 - s0);
            let late_id = tracer.alloc();
            tracer.record(late_id, "gen.lateness", scheduled, s0, root, req);
            let submit_id = tracer.alloc();
            tracer.record(submit_id, "router.submit", s0, s1, root, req);
            match submitted {
                Ok(ticket) => {
                    let f = InFlight {
                        scheduled,
                        model: a.model,
                        image: a.image,
                        root,
                        req,
                        submitted: s1,
                        ticket,
                    };
                    senders[f.ticket.replica()]
                        .send((k, f))
                        .expect("reaper alive until senders drop");
                }
                Err(e) => {
                    // Shed or rejected counts as missing the SLO; any other
                    // error is a failed request.
                    let refused = matches!(e, PfError::Shed { .. } | PfError::Overloaded { .. });
                    tracer.record(root, "request", scheduled, s1, 0, req);
                    let _ = outcomes[k].set(Outcome {
                        latency_ms: None,
                        correct: refused,
                    });
                }
            }
        }
        drop(senders);
    });
    Phase {
        rps,
        outcomes: outcomes
            .into_iter()
            .map(|c| c.into_inner().expect("every arrival resolved"))
            .collect(),
        lateness,
        submit,
        wall: start.elapsed(),
    }
}

/// One timed set-up: a fresh router (each replica builds and warms its
/// first session) and a few sequential warm-up requests.
fn setup(
    ctx: &Ctx,
    base: &Scenario,
    images: &[Tensor],
    times: &mut SetupTimes,
) -> Res<SessionRouter> {
    ctx.tracer.span("setup", 0, 0, |root| {
        let (router, build, warm) =
            build_router(base, Telemetry::disabled(), images, &ctx.tracer, root)?;
        times.push(build, warm);
        Ok(router)
    })
}

/// Builds a router and warms it with a few sequential requests; returns
/// it with its construction and warm-up times. `tracer` spans both under
/// `parent`.
fn build_router(
    scenario: &Scenario,
    tel: Telemetry,
    images: &[Tensor],
    tracer: &Tracer,
    parent: u64,
) -> Res<(SessionRouter, Duration, Duration)> {
    let t0 = Instant::now();
    let router = tracer.span("session.build", parent, 0, |_| {
        route::route_scenario_traced(scenario.clone(), tel)
    })?;
    let t1 = Instant::now();
    tracer.span("session.warmup", parent, 0, |_| -> Res<()> {
        for i in 0..WARM_REQUESTS {
            let request =
                RouterRequest::new(ModelRequest::new(images[i % images.len()].clone(), 0))
                    .with_affinity(0);
            router.submit(request)?.wait()?;
        }
        Ok(())
    })?;
    Ok((router, t1 - t0, t1.elapsed()))
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut rep = Report::default();
    let base = scenario();
    let images: Vec<Tensor> = (0..IMAGES)
        .map(|i| {
            let f = &base.functional;
            Tensor::random(
                vec![f.input_channels, f.input_size, f.input_size],
                0.0,
                1.0,
                stats::derive(ctx.seed, 4, i as u64),
            )
        })
        .collect();
    // The first set-up comes before anything else builds a session, so
    // it is the cold one.
    let mut times = SetupTimes::new(!ctx.traced());
    let router = setup(ctx, &base, &images, &mut times)?;
    let refs = references(&base, &images)?;
    let digital = references(
        &Scenario {
            backend: BackendSpec::digital(256),
            ..base.clone()
        },
        &images,
    )?;
    let flat = |r: &[Vec<Vec<f64>>]| r.iter().flatten().flatten().copied().collect::<Vec<f64>>();
    let rel = stats::rel_err(&flat(&refs), &flat(&digital));
    rep.metric(
        "fidelity.feature_rel_err",
        rel,
        "ratio",
        (MODELS as usize) * IMAGES,
    );
    rep.line(format!(
        "serve_routed: jtc_ideal, 2 replicas x 1 worker, kernel_affinity, {MODELS} models / {CACHE} resident per replica, runs of {RUN_LEN}, SLO p99 {SLO_MS} ms"
    ));

    let window = ctx.window.as_secs_f64();
    let off = Tracer::new(false);
    let mut phases_for_ops = Vec::new();
    if ctx.traced() {
        for _ in 1..ROUNDS {
            drop(setup(ctx, &base, &images, &mut times)?);
        }
        times.report(&mut rep);
        let tel = Telemetry::with_span_capacity(0);
        let (observed, _, _) = build_router(&base, tel.clone(), &images, &off, 0)?;
        let segment = Duration::from_secs_f64(window / 3.0);
        let low_off = run_phase(
            &router,
            &schedule(ctx.seed, 10, LOW_RPS, segment),
            LOW_RPS,
            &images,
            &refs,
            &off,
        );
        let probe = Probe::start(&tel);
        let low_on = run_phase(
            &observed,
            &schedule(ctx.seed, 10, LOW_RPS, segment),
            LOW_RPS,
            &images,
            &refs,
            &ctx.tracer,
        );
        let high_on = run_phase(
            &observed,
            &schedule(ctx.seed, 11, HIGH_RPS, segment),
            HIGH_RPS,
            &images,
            &refs,
            &ctx.tracer,
        );
        let requests = (low_on.outcomes.len() + high_on.outcomes.len()) as u64;
        probe.finish(
            &tel,
            &mut rep,
            requests,
            low_on.wall + high_on.wall,
            REPLICAS,
        );
        let (p_off, p_on) = (low_off.served().median(), low_on.served().median());
        rep.metric(
            "telemetry.overhead_frac",
            1.0 - p_off / p_on,
            "frac",
            low_on.outcomes.len() + low_off.outcomes.len(),
        );
        rep.line(format!(
            "telemetry overhead: low-rate p50 untraced {p_off:.4} ms traced {p_on:.4} ms"
        ));
        let stats = observed.drain()?;
        router_lines(&mut rep, &stats, &tel);
        phases_for_ops.extend([low_off, low_on, high_on]);
    } else {
        // Rounds interleave the low, high and saturation phases, so a host
        // stall lasting seconds touches a part of each, not all of one.
        // Each round after the first starts with one more timed set-up.
        let share = |f: f64| Duration::from_secs_f64(window * f);
        // The gated figures are host-scaled (see `calib`): each burst and
        // each isolated request is paired with a reference kernel run
        // while the tier is idle.
        let (mut lows, mut highs, mut bursts, mut saturation, mut scaled_rps) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut scaler = Scaler::new();
        let mut single = Scaler::new();
        for r in 0..ROUNDS as u64 {
            if r > 0 {
                drop(setup(ctx, &base, &images, &mut times)?);
            }
            let slice = |f: f64| share(f) / ROUNDS as u32;
            lows.push(run_phase(
                &router,
                &schedule(ctx.seed, 100 + r, LOW_RPS, slice(SHARE_LOW)),
                LOW_RPS,
                &images,
                &refs,
                &off,
            ));
            highs.push(run_phase(
                &router,
                &schedule(ctx.seed, 200 + r, HIGH_RPS, slice(SHARE_HIGH)),
                HIGH_RPS,
                &images,
                &refs,
                &off,
            ));
            let (b, rps, scaled) = saturate(
                ctx.seed,
                1000 * (r + 1),
                &router,
                slice(SHARE_SATURATION),
                &images,
                &refs,
                &mut scaler,
            );
            bursts.extend(b);
            saturation.extend(rps);
            scaled_rps.extend(scaled);
            bursts.push(isolated(
                ctx.seed,
                300 + r,
                &router,
                slice(SHARE_ISOLATED),
                &images,
                &refs,
                &mut single,
            )?);
        }
        times.report(&mut rep);
        let (low, high) = (Phase::merge(lows), Phase::merge(highs));
        let rung_len = share(1.0 - SHARE_LOW - SHARE_HIGH - SHARE_SATURATION - SHARE_ISOLATED)
            / LADDER.len() as u32;
        let mut ladder = Vec::new();
        for (i, &rps) in LADDER.iter().enumerate() {
            let phase = run_phase(
                &router,
                &schedule(ctx.seed, 20 + i as u64, rps, rung_len),
                rps,
                &images,
                &refs,
                &off,
            );
            let pass = phase.meets_slo();
            ladder.push(phase);
            if !pass {
                break;
            }
        }
        let (lo, hi) = (low.served(), high.served());
        rep.metric(
            "images_per_s",
            quantile(&scaled_rps, 0.5),
            "1/s",
            scaled_rps.len(),
        );
        rep.metric(
            "latency_ms_p50",
            single.scaled.median(),
            "ms",
            single.scaled.len(),
        );
        rep.metric(
            "images_per_s_raw",
            quantile(&saturation, 0.5),
            "1/s",
            saturation.len(),
        );
        rep.metric(
            "latency_ms_p50_raw",
            single.raw.median(),
            "ms",
            single.raw.len(),
        );
        rep.line(scaler.line("saturation bursts"));
        rep.line(single.line("isolated requests"));
        rep.metric("p50_ms_low", lo.median(), "ms", lo.len());
        rep.metric("p90_ms_low", lo.quantile(0.9), "ms", lo.len());
        rep.metric("p99_ms_low", lo.quantile(0.99), "ms", lo.len());
        rep.metric("p50_ms_high", hi.median(), "ms", hi.len());
        rep.metric("p90_ms_high", hi.quantile(0.9), "ms", hi.len());
        rep.metric("p99_ms_high", hi.quantile(0.99), "ms", hi.len());
        rep.metric(
            "slo_miss_frac_high",
            high.miss_frac(),
            "frac",
            high.outcomes.len(),
        );
        let ladder_n = ladder.iter().map(|p| p.outcomes.len()).sum();
        rep.metric("max_rps_slo", max_rps_slo(&ladder), "1/s", ladder_n);
        rep.line(format!(
            "samples beyond p99: {} at low, {} at high (a percentile rests on at least ten)",
            lo.beyond(0.99),
            hi.beyond(0.99)
        ));
        for p in [&low, &high].into_iter().chain(&ladder) {
            phase_line(&mut rep, p);
        }
        rep.line(format!(
            "saturation: {} bursts of {BURST} requests, median {:.1} req/s (p10 {:.1}, p90 {:.1})",
            saturation.len(),
            quantile(&saturation, 0.5),
            quantile(&saturation, 0.1),
            quantile(&saturation, 0.9)
        ));
        phases_for_ops.extend(bursts);
        let stats = router.drain()?;
        router_lines(&mut rep, &stats, &Telemetry::disabled());
        phases_for_ops.extend([low, high]);
        phases_for_ops.extend(ladder);
    }
    finish(rep, &phases_for_ops)
}

/// Closed bursts of `BURST` requests submitted at once, back to back for
/// `length`: each burst's completed requests per second of wall time is
/// one sample of the tier's saturation throughput, returned raw and
/// host-scaled by a reference kernel run after the burst.
fn saturate(
    seed: u64,
    stream: u64,
    router: &SessionRouter,
    length: Duration,
    images: &[Tensor],
    refs: &[Vec<Vec<f64>>],
    scaler: &mut Scaler,
) -> (Vec<Phase>, Vec<f64>, Vec<f64>) {
    let deadline = Instant::now() + length;
    let off = Tracer::new(false);
    let mut phases = Vec::new();
    let mut rps = Vec::new();
    let mut scaled = Vec::new();
    while Instant::now() < deadline {
        // The first BURST of two seconds' arrivals at BURST per second
        // (about twice as many), all sent at once.
        let mut arrivals = schedule(
            seed,
            stream + phases.len() as u64,
            BURST as f64,
            Duration::from_secs(2),
        );
        arrivals.truncate(BURST);
        for (i, a) in arrivals.iter_mut().enumerate() {
            a.at = Duration::ZERO;
            a.model = (i / RUN_LEN) as u64 % MODELS;
        }
        let phase = run_phase(router, &arrivals, f64::INFINITY, images, refs, &off);
        let served = phase.outcomes.len() as f64;
        rps.push(served / phase.wall.as_secs_f64());
        scaled.push(served * 1e3 / scaler.push(phase.wall, 1));
        phases.push(phase);
    }
    (phases, rps, scaled)
}

/// Requests sent one at a time to an idle tier for `length`, in the
/// arrival order of `schedule` (the same model runs and image draws), each
/// timed from submit to response and paired with a reference kernel run
/// before the next: the latency of a request that finds the tier idle.
fn isolated(
    seed: u64,
    stream: u64,
    router: &SessionRouter,
    length: Duration,
    images: &[Tensor],
    refs: &[Vec<Vec<f64>>],
    scaler: &mut Scaler,
) -> Res<Phase> {
    let start = Instant::now();
    let deadline = start + length;
    let mut outcomes = Vec::new();
    // More arrivals than the window can take; the loop stops at the
    // deadline.
    for a in schedule(seed, stream, 1e4, Duration::from_secs(1)) {
        if Instant::now() >= deadline {
            break;
        }
        let request = RouterRequest::new(ModelRequest::new(images[a.image].clone(), a.model))
            .with_class(a.class)
            .with_affinity(a.model);
        let t0 = Instant::now();
        let result = router.submit(request)?.wait();
        let took = t0.elapsed();
        let correct = result
            .as_ref()
            .map(|t| bit_equal(t.data(), &refs[a.model as usize][a.image]))
            .unwrap_or(false);
        scaler.push(took, 1);
        outcomes.push(Outcome {
            latency_ms: result.is_ok().then_some(took.as_secs_f64() * 1e3),
            correct,
        });
    }
    Ok(Phase {
        rps: 0.0,
        outcomes,
        lateness: Samples::default(),
        submit: Samples::default(),
        wall: start.elapsed(),
    })
}

fn finish(mut rep: Report, phases: &[Phase]) -> Res<Report> {
    let mut wrong = 0;
    for p in phases {
        for o in &p.outcomes {
            rep.op(o.correct);
            wrong += usize::from(!o.correct);
        }
    }
    rep.check(
        "served_bit_identical_to_offline",
        wrong == 0,
        format!("{wrong} served tensors differ from offline per-variant sessions"),
    );
    Ok(rep)
}

/// The highest offered rate meeting the SLO, interpolated on log p99
/// between the last rung that meets it and the first that does not.
fn max_rps_slo(ladder: &[Phase]) -> f64 {
    let Some(fail) = ladder.iter().position(|p| !p.meets_slo()) else {
        return ladder.last().map_or(0.0, |p| p.rps);
    };
    if fail == 0 {
        return 0.0;
    }
    let (a, b) = (&ladder[fail - 1], &ladder[fail]);
    let (la, lb) = (a.p99_all().ln(), b.p99_all().min(1e9).ln());
    let frac = if lb > la {
        ((SLO_MS.ln() - la) / (lb - la)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    a.rps + (b.rps - a.rps) * frac
}

fn phase_line(rep: &mut Report, p: &Phase) {
    let s = p.served();
    rep.line(format!(
        "phase {:>5.0} rps: sent {:>5} served {:>5} p50 {:>7.3} ms p99 {:>8.3} ms slo_miss {:.4} steady {} meets_slo {} | generator late p50 {:.3} p99 {:.3} ms | submit p50 {:.1} p99 {:.1} us",
        p.rps,
        p.outcomes.len(),
        s.len(),
        s.median(),
        s.quantile(0.99),
        p.miss_frac(),
        p.steady(),
        p.meets_slo(),
        p.lateness.median(),
        p.lateness.quantile(0.99),
        p.submit.median() * 1e3,
        p.submit.quantile(0.99) * 1e3
    ));
}

/// Router and per-replica server accounting, read after the run.
fn router_lines(rep: &mut Report, stats: &RouterStats, tel: &Telemetry) {
    let sent = stats.submitted.max(1) as f64;
    rep.metric(
        "router.model_hit_frac",
        stats.cache().hit_rate(),
        "frac",
        stats.submitted as usize,
    );
    rep.metric(
        "router.shed_frac",
        stats.shed as f64 / sent,
        "frac",
        stats.submitted as usize,
    );
    rep.metric(
        "router.rejected_frac",
        stats.rejected as f64 / sent,
        "frac",
        stats.submitted as usize,
    );
    rep.metric(
        "router.spill_frac",
        stats.spills as f64 / sent,
        "frac",
        stats.submitted as usize,
    );
    rep.metric("router.retries", stats.retries as f64, "count", 1);
    for r in &stats.replicas {
        let s = &r.server;
        rep.line(format!(
            "replica{}: dispatched {} queue_wait p50 {:.3} p99 {:.3} ms service p50 {:.3} ms batch_mean {:.2} queue_high_water {} expired {} cache hits {} misses {}",
            r.replica,
            r.dispatched,
            s.queue_wait.p50_ms,
            s.queue_wait.p99_ms,
            s.service.p50_ms,
            s.mean_batch_size(),
            s.queue_high_water,
            s.expired,
            r.cache.hits,
            r.cache.misses
        ));
    }
    if tel.is_enabled() {
        let snap = tel.snapshot();
        rep.line(format!(
            "counters: router.admitted {} serve.served {} tiling.tiles {}",
            counter_sum(&snap, "router.admitted"),
            counter_sum(&snap, "serve.served"),
            counter_sum(&snap, "tiling.tiles")
        ));
    }
}
