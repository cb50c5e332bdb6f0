//! Sample statistics, seeded generators and host facts shared by every
//! workload.

use std::time::{Duration, Instant};

/// Timing samples of one quantity, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The `q` quantile (0..=1) by linear interpolation between order
    /// statistics; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.ms, q)
    }

    /// The first sample; NaN when empty.
    pub fn first(&self) -> f64 {
        self.ms.first().copied().unwrap_or(f64::NAN)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// How many samples lie strictly above the `q` quantile.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.ms.iter().filter(|&&v| v > cut).count()
    }
}

/// The `q` quantile of `values` (linear interpolation); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// SplitMix64 step: the benchmark's only source of randomness, so inputs
/// are a pure function of `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of uniform numbers in `[0, 1)`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for the input of `(stream, index)` under the run's `--seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_mul(0x1_0000_0001) ^ index))
}

/// Mean absolute difference of `got` from `want`, over the RMS of `want`.
pub fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "compared tensors differ in length");
    let n = want.len().max(1) as f64;
    let mad = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .sum::<f64>()
        / n;
    let rms = (want.iter().map(|w| w * w).sum::<f64>() / n).sqrt();
    mad / rms.max(f64::MIN_POSITIVE)
}

/// Bitwise equality of two feature vectors.
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The rayon pool width every workload runs at. The vendored rayon shim
/// spawns fresh OS threads on every parallel call; at width 1 it maps
/// inline on the calling thread. On a 2-vCPU host, width 2 was slower on
/// every workload (thread creation outweighs the split) and lost 30–46%
/// of its throughput when another process kept one vCPU busy, where
/// width 1 lost 5–7%. `serve_routed` still computes on two threads, one
/// worker per replica.
pub const POOL_WIDTH: usize = 1;

/// What the host gives a run: its core count, the speed-up a pure spin
/// loop reaches on all `nproc` cores (what the host delivers to parallel
/// work, such as the serving tier's two workers), and the single-thread
/// time of that spin (so a run on a slower host shows it).
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    pub spin_ceiling: f64,
    pub spin_ms: f64,
}

impl Host {
    pub fn measure() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        // Best of three, so a single preemption does not set the ceiling.
        let one = (0..3).map(|_| spin_wall(1)).fold(f64::INFINITY, f64::min);
        let many = (0..3)
            .map(|_| spin_wall(nproc))
            .fold(f64::INFINITY, f64::min);
        Self {
            nproc,
            spin_ceiling: nproc as f64 * one / many,
            spin_ms: one * 1e3,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} pool_width={} spin_ceiling={:.2}x (of {}x ideal) spin_1thread={:.2} ms",
            self.nproc, POOL_WIDTH, self.spin_ceiling, self.nproc, self.spin_ms
        )
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this VM wanted its vCPUs.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Wall seconds for `threads` threads to each run the same fixed spin.
fn spin_wall(threads: usize) -> f64 {
    const SPINS: u64 = 4_000_000;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut x = t as u64;
                for i in 0..SPINS {
                    x = std::hint::black_box(splitmix64(x ^ i));
                }
                x
            });
        }
    });
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn rel_err_is_scale_free() {
        let want = [1.0, -1.0, 1.0, -1.0];
        let got = [1.1, -0.9, 1.1, -0.9];
        assert!((rel_err(&got, &want) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(&want, &want), 0.0);
    }

    #[test]
    fn rng_replays_by_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }
}
