//! What one run reports: metrics with units and sample counts, the
//! correctness checks, operation counts and free-form report lines.

use std::fmt::Write as _;
use std::time::Duration;

use crate::calib::Scaler;
use crate::stats::Samples;

/// The end-to-end metrics every workload reports in an untraced run, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 4] = ["setup_s", "images_per_s", "latency_ms_p50", "peak_rss_mb"];

/// The per-layer metrics every workload reports in a traced run, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 14] = [
    "jtc.signal_fft_us",
    "jtc.spectrum_apply_us",
    "jtc.inverse_us",
    "jtc.dac_adc_us",
    "jtc.unattributed_frac",
    "tiling.tiles_per_image",
    "tiling.convs_1d_per_image",
    "tiling.spectrum_hit_frac",
    "dsp.scratch_grows",
    "session.build_ms",
    "session.warmup_ms",
    "telemetry.overhead_frac",
    "fidelity.feature_rel_err",
    "trace.unattributed_frac",
];

/// Timed constructions behind `setup_s`, `session.build_ms` and
/// `session.warmup_ms`.
pub struct SetupTimes {
    build: Samples,
    warm: Samples,
    total: Samples,
    /// Pairs each set-up with the reference kernel (untraced runs).
    scaler: Option<Scaler>,
}

impl SetupTimes {
    /// `scaled`: `setup_s` is host-scaled (see `calib`).
    pub fn new(scaled: bool) -> Self {
        Self {
            build: Samples::default(),
            warm: Samples::default(),
            total: Samples::default(),
            scaler: scaled.then(Scaler::new),
        }
    }

    pub fn push(&mut self, build: Duration, warm: Duration) {
        self.build.push(build);
        self.warm.push(warm);
        self.total.push(build + warm);
        if let Some(s) = &mut self.scaler {
            s.push(build + warm, 3);
        }
    }

    /// Reports the medians, and the first set-up on its own: it alone
    /// builds the process-wide FFT plans that later set-ups find ready.
    pub fn report(&self, rep: &mut Report) {
        let n = self.total.len();
        match &self.scaler {
            Some(s) => {
                rep.metric("setup_s", s.scaled.median() / 1e3, "s", n);
                rep.metric("setup_raw_s", self.total.median() / 1e3, "s", n);
                rep.line(s.line("setup"));
            }
            None => rep.metric("setup_s", self.total.median() / 1e3, "s", n),
        }
        rep.metric("setup_cold_s", self.total.first() / 1e3, "s", 1);
        rep.metric("session.build_ms", self.build.median(), "ms", n);
        rep.metric("session.warmup_ms", self.warm.median(), "ms", n);
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed, _)| *passed) && self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable report: every metric with its unit and sample
    /// count, then every check.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<34} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (name, passed, detail) in &self.checks {
            let verdict = if *passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {name}: {detail}");
        }
        let _ = writeln!(
            out,
            "operations: attempted {} failed {}",
            self.attempted, self.failed
        );
        out
    }

    /// The result line: `names` are the metrics the run must report; a
    /// missing one is an error.
    pub fn json_line(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// Every metric, check and line as one JSON document, for the report
    /// file written beside the trace.
    pub fn json_full(&self, header: &[(&str, String)]) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(out, "  \"{key}\": \"{}\",", esc(value));
        }
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        out.push_str("  \"metrics\": {\n");
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    \"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name,
                    if m.value.is_finite() { m.value } else { -1.0 },
                    m.unit,
                    m.samples
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  },\n  \"checks\": [\n");
        let rows: Vec<String> = self
            .checks
            .iter()
            .map(|(n, p, d)| {
                format!(
                    "    {{\"check\": \"{}\", \"passed\": {p}, \"detail\": \"{}\"}}",
                    esc(n),
                    esc(d)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"lines\": [\n");
        let rows: Vec<String> = self
            .lines
            .iter()
            .map(|l| format!("    \"{}\"", esc(l)))
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}
