//! Host-speed scaling of the gated time metrics.
//!
//! On the shared 2-vCPU host the benchmark was built on, the same code ran
//! up to twice as slow for minutes at a time, with no stolen CPU time:
//! neighbours' load on the shared cores and caches. No statistic within a
//! run removes a slowdown that lasts the whole run. So every timed
//! operation of an untraced run is paired with one run of a fixed
//! reference kernel, timed right after it on the same thread, and the
//! gated time metrics give the operation's time as a multiple of the
//! kernel's, times [`REF_MS`]: what the operation takes on a host where
//! the kernel takes `REF_MS`. Over runs of 8–10 s in which the raw figures
//! moved by up to 1.6x, `batch_ideal` read 725–763 images/s scaled (537–831
//! raw), `batch_cg` 405–420 (258–415) and `resnet18_layers` 18.1–18.4
//! passes/s (13.9–17.0).
//!
//! The kernel is the benchmark's own code (radix-2 FFTs over a working
//! set like the program's), so a change to the program moves a scaled
//! metric exactly as it moves the raw time. The raw figures are printed
//! beside the scaled ones.

use std::time::{Duration, Instant};

use crate::stats::Samples;

/// The reference kernel's time on the host the scale is stated for, close
/// to its time on a quiet 2-vCPU host, so scaled and raw figures read
/// alike there.
pub const REF_MS: f64 = 3.5;

/// FFT length and number of transforms: 256 complex doubles × 256 is a
/// 1 MiB working set, swept `PASSES` times per run.
const LEN: usize = 256;
const ROWS: usize = 256;
const PASSES: usize = 5;

/// The reference kernel: an in-place unitary FFT of every row of a fixed
/// buffer. Unitary, so repeated runs keep the values of order one.
pub struct RefKernel {
    data: Vec<f64>,
    twiddles: Vec<(f64, f64)>,
}

impl RefKernel {
    pub fn new() -> Self {
        let data = (0..2 * LEN * ROWS)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let twiddles = (0..LEN / 2)
            .map(|k| {
                let a = -2.0 * std::f64::consts::PI * k as f64 / LEN as f64;
                (a.cos(), a.sin())
            })
            .collect();
        Self { data, twiddles }
    }

    /// Runs the kernel once; its wall time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let start = Instant::now();
        let scale = 1.0 / (LEN as f64).sqrt();
        for _ in 0..PASSES {
            self.pass(scale);
        }
        std::hint::black_box(&self.data);
        start.elapsed().as_secs_f64() * 1e3
    }

    fn pass(&mut self, scale: f64) {
        for row in self.data.chunks_exact_mut(2 * LEN) {
            let mut j = 0;
            for i in 1..LEN {
                let mut bit = LEN >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    row.swap(2 * i, 2 * j);
                    row.swap(2 * i + 1, 2 * j + 1);
                }
            }
            let mut len = 2;
            while len <= LEN {
                let step = LEN / len;
                for start in (0..LEN).step_by(len) {
                    for k in 0..len / 2 {
                        let (wr, wi) = self.twiddles[k * step];
                        let (a, b) = (2 * (start + k), 2 * (start + k + len / 2));
                        let xr = row[b] * wr - row[b + 1] * wi;
                        let xi = row[b] * wi + row[b + 1] * wr;
                        let (ur, ui) = (row[a], row[a + 1]);
                        row[a] = ur + xr;
                        row[a + 1] = ui + xi;
                        row[b] = ur - xr;
                        row[b + 1] = ui - xi;
                    }
                }
                len <<= 1;
            }
            for v in row.iter_mut() {
                *v *= scale;
            }
        }
    }
}

/// Timed operations, each with the reference kernel timed right after it.
pub struct Scaler {
    kernel: RefKernel,
    pub raw: Samples,
    pub refs: Samples,
    /// Per operation: raw time / reference time × `REF_MS`.
    pub scaled: Samples,
}

impl Scaler {
    pub fn new() -> Self {
        Self {
            kernel: RefKernel::new(),
            raw: Samples::default(),
            refs: Samples::default(),
            scaled: Samples::default(),
        }
    }

    /// Records an operation that took `took`, paired with `runs`
    /// reference kernel runs timed now; returns its scaled time in
    /// milliseconds. Operations timed a few times per run take several
    /// reference runs, so one slow reference run does not set a sample.
    pub fn push(&mut self, took: Duration, runs: usize) -> f64 {
        let ms = took.as_secs_f64() * 1e3;
        let scaled = ms * self.factor(runs);
        self.raw.push_ms(ms);
        self.scaled.push_ms(scaled);
        scaled
    }

    /// `REF_MS` over the median of `runs` reference runs timed now.
    fn factor(&mut self, runs: usize) -> f64 {
        let mut refs = Samples::default();
        for _ in 0..runs {
            let r = self.kernel.time_ms();
            self.refs.push_ms(r);
            refs.push_ms(r);
        }
        REF_MS / refs.median()
    }

    /// The reference kernel's own figures, for the report.
    pub fn line(&self, what: &str) -> String {
        format!(
            "host scale ({what}): reference kernel p10 {:.3} p50 {:.3} p90 {:.3} ms over {} runs; scaled to {REF_MS} ms",
            self.refs.quantile(0.1),
            self.refs.median(),
            self.refs.quantile(0.9),
            self.refs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_keeps_values_bounded() {
        let mut k = RefKernel::new();
        let norm = |k: &RefKernel| k.data.iter().map(|v| v * v).sum::<f64>();
        let before = norm(&k);
        for _ in 0..20 {
            assert!(k.time_ms() > 0.0);
        }
        assert!((norm(&k) / before - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_is_raw_over_reference() {
        let mut s = Scaler::new();
        s.push(Duration::from_millis(8), 1);
        let want = 8.0 / s.refs.median() * REF_MS;
        assert!((s.scaled.median() - want).abs() < 1e-9);
    }
}
