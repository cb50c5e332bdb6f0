//! Reads the counters the layers already publish — JTC stage totals,
//! `tiling.*` counters and pf-dsp scratch statistics — before and after a
//! traced window, and turns the deltas into per-image layer metrics.

use std::time::Duration;

use photofourier::dsp::scratch::scratch_stats;
use photofourier::telemetry::{MetricsSnapshot, Stage, Telemetry};

use crate::report::Report;

pub struct Probe {
    before: MetricsSnapshot,
    grows: u64,
}

/// Sum of every counter named `name` under any scope prefix (router
/// replicas publish `replicaN.`-scoped copies into one registry).
pub fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(n, _)| n == name || n.ends_with(&format!(".{name}")))
        .map(|(_, v)| *v)
        .sum()
}

impl Probe {
    pub fn start(tel: &Telemetry) -> Self {
        Self {
            before: tel.snapshot(),
            grows: scratch_stats().grows,
        }
    }

    /// Adds the `jtc.*`, `tiling.*` and `dsp.*` per-layer metrics for the
    /// window since [`Probe::start`]: `images` were processed in `busy`
    /// wall time on a pool of `width` threads.
    pub fn finish(
        self,
        tel: &Telemetry,
        rep: &mut Report,
        images: u64,
        busy: Duration,
        width: usize,
    ) {
        let after = tel.snapshot();
        let stages = after.stages.delta_since(&self.before.stages);
        let per_image = |ns: u64| ns as f64 / 1e3 / images.max(1) as f64;
        let n = images as usize;
        for stage in Stage::ALL {
            let name = format!("jtc.{}_us", stage.name());
            rep.metric(name, per_image(stages.stage_ns(stage)), "us", n);
        }
        let capacity_ns = busy.as_nanos() as f64 * width as f64;
        rep.metric(
            "jtc.unattributed_frac",
            1.0 - stages.total_ns() as f64 / capacity_ns.max(1.0),
            "frac",
            n,
        );
        let delta = |name: &str| counter_sum(&after, name) - counter_sum(&self.before, name);
        let per = |v: u64| v as f64 / images.max(1) as f64;
        rep.metric(
            "tiling.tiles_per_image",
            per(delta("tiling.tiles")),
            "count",
            n,
        );
        rep.metric(
            "tiling.convs_1d_per_image",
            per(delta("tiling.convs_1d")),
            "count",
            n,
        );
        let (hits, misses) = (
            delta("tiling.spectrum_hits"),
            delta("tiling.spectrum_misses"),
        );
        rep.metric(
            "tiling.spectrum_hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
            "frac",
            (hits + misses) as usize,
        );
        rep.metric(
            "dsp.scratch_grows",
            (scratch_stats().grows - self.grows) as f64,
            "count",
            1,
        );
    }
}
