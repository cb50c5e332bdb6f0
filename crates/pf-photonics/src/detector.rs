//! Photodetector model with square-law detection, charge accumulation and
//! dark-current noise.
//!
//! Photodetectors appear twice in a PFCU: in the Fourier plane, where their
//! square-law response implements the non-linearity the JTC needs, and at the
//! output plane, where they read the convolution result. The output-plane
//! detectors additionally implement **temporal accumulation** (Section V-C):
//! charge from up to 16 consecutive cycles is integrated on a capacitor
//! before a single ADC read-out, which keeps partial-sum accumulation at full
//! precision and cuts ADC power 16×.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::PhotonicsError;

/// Configuration of a photodetector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Responsivity in amperes per watt of incident optical power.
    pub responsivity_a_per_w: f64,
    /// Dark current in nanoamperes — sets the noise floor and hence the SNR
    /// the laser power budget must maintain (the paper targets > 20 dB).
    pub dark_current_na: f64,
    /// Maximum number of cycles the integration capacitor can accumulate
    /// before it must be read out (the temporal accumulation depth limit).
    pub max_accumulation_depth: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            responsivity_a_per_w: 1.0,
            dark_current_na: 10.0,
            max_accumulation_depth: 16,
        }
    }
}

/// A square-law photodetector with an integration capacitor.
#[derive(Debug, Clone)]
pub struct Photodetector {
    config: DetectorConfig,
    accumulated: f64,
    cycles_accumulated: usize,
}

impl Photodetector {
    /// Creates a detector from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the responsivity is not positive, the dark current
    /// is negative, or the accumulation depth is zero.
    pub fn new(config: DetectorConfig) -> Result<Self, PhotonicsError> {
        if config.responsivity_a_per_w <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "responsivity_a_per_w",
                value: config.responsivity_a_per_w,
                requirement: "must be positive",
            });
        }
        if config.dark_current_na < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "dark_current_na",
                value: config.dark_current_na,
                requirement: "must be non-negative",
            });
        }
        if config.max_accumulation_depth == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "max_accumulation_depth",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        Ok(Self {
            config,
            accumulated: 0.0,
            cycles_accumulated: 0,
        })
    }

    /// Creates a detector with the default configuration.
    ///
    /// Never fails because the default configuration is valid.
    pub fn with_defaults() -> Self {
        Self::new(DetectorConfig::default()).expect("default detector config is valid")
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Square-law response: converts a (real) optical field amplitude to a
    /// photocurrent proportional to its intensity `|E|^2`.
    pub fn detect_amplitude(&self, field_amplitude: f64) -> f64 {
        self.config.responsivity_a_per_w * field_amplitude * field_amplitude
    }

    /// Converts an optical *intensity* directly to photocurrent.
    pub fn detect_intensity(&self, intensity: f64) -> f64 {
        self.config.responsivity_a_per_w * intensity
    }

    /// Accumulates one cycle worth of photocurrent on the integration
    /// capacitor (temporal accumulation).
    ///
    /// Returns the number of cycles accumulated so far.
    ///
    /// # Errors
    ///
    /// Returns an error if the capacitor already holds
    /// `max_accumulation_depth` cycles; the caller must [`Photodetector::read_out`]
    /// first.
    pub fn accumulate(&mut self, photocurrent: f64) -> Result<usize, PhotonicsError> {
        if self.cycles_accumulated >= self.config.max_accumulation_depth {
            return Err(PhotonicsError::InvalidParameter {
                name: "cycles_accumulated",
                value: self.cycles_accumulated as f64,
                requirement: "accumulation capacitor is full; read_out() before accumulating more",
            });
        }
        self.accumulated += photocurrent;
        self.cycles_accumulated += 1;
        Ok(self.cycles_accumulated)
    }

    /// Reads the accumulated charge and resets the capacitor.
    pub fn read_out(&mut self) -> f64 {
        let v = self.accumulated;
        self.accumulated = 0.0;
        self.cycles_accumulated = 0;
        v
    }

    /// Number of cycles currently integrated on the capacitor.
    pub fn cycles_accumulated(&self) -> usize {
        self.cycles_accumulated
    }

    /// Signal-to-noise ratio in dB of a signal level against the dark
    /// current noise floor.
    ///
    /// Returns `f64::INFINITY` when the dark current is zero.
    pub fn snr_db(&self, signal_current_na: f64) -> f64 {
        if self.config.dark_current_na == 0.0 {
            return f64::INFINITY;
        }
        20.0 * (signal_current_na.abs() / self.config.dark_current_na).log10()
    }

    /// Minimum signal current (nA) needed to reach `target_snr_db`.
    pub fn required_signal_for_snr(&self, target_snr_db: f64) -> f64 {
        self.config.dark_current_na * 10f64.powf(target_snr_db / 20.0)
    }
}

/// Additive Gaussian sensing-noise model used by the accuracy experiments
/// (Figure 7 simulates "applying square function to partial sums and adding
/// sensing noise").
#[derive(Debug, Clone)]
pub struct SensingNoise {
    rng: StdRng,
    sigma: f64,
}

impl SensingNoise {
    /// Creates a noise source with standard deviation `sigma` (relative to
    /// the signal units it will be added to) and a deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma` is negative.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if sigma < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                requirement: "must be non-negative",
            });
        }
        Ok(Self {
            rng: StdRng::seed_from_u64(seed),
            sigma,
        })
    }

    /// Creates a noise source whose standard deviation corresponds to the
    /// given SNR (in dB) for signals with RMS value `signal_rms`.
    ///
    /// # Errors
    ///
    /// Returns an error if `signal_rms` is negative.
    pub fn from_snr_db(snr_db: f64, signal_rms: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if signal_rms < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "signal_rms",
                value: signal_rms,
                requirement: "must be non-negative",
            });
        }
        let sigma = signal_rms / 10f64.powf(snr_db / 20.0);
        Self::new(sigma, seed)
    }

    /// Noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Adds Gaussian noise to a single value.
    pub fn perturb(&mut self, value: f64) -> f64 {
        if self.sigma == 0.0 {
            return value;
        }
        value + self.sample_gaussian() * self.sigma
    }

    /// Adds independent Gaussian noise to every element of a slice.
    pub fn perturb_slice(&mut self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.perturb(v)).collect()
    }

    fn sample_gaussian(&mut self) -> f64 {
        // Box-Muller transform on two uniform samples.
        let uniform = rand::distributions::Uniform::new(f64::EPSILON, 1.0);
        let u1: f64 = uniform.sample(&mut self.rng);
        let u2: f64 = uniform.sample(&mut self.rng);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Counter-addressed Gaussian sensing noise: the lock-free stream the JTC
/// engines draw from.
///
/// Each noisy correlation claims one call index from a counter that every
/// clone shares ([`KeyedNoise::draw`]) and fills its whole output row from a
/// SplitMix64 stream keyed by `(seed, call)`. Standard normals come two at a
/// time from the Marsaglia polar method, so a pair costs one `ln` and one
/// `sqrt` and no trigonometry, and both halves are used. A row therefore
/// depends only on the seed and the row's place in the call order: no lock
/// is held and no generator state is carried from one row to the next.
///
/// [`SensingNoise`] remains the sample-at-a-time reference model.
#[derive(Debug, Clone)]
pub struct KeyedNoise {
    seed: u64,
    sigma: f64,
    calls: Arc<AtomicU64>,
}

impl KeyedNoise {
    /// Creates a stream with standard deviation `sigma` (relative to the
    /// signal units it will be added to) and the given seed, at call 0.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma` is negative.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if sigma < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                requirement: "must be non-negative",
            });
        }
        Ok(Self {
            seed,
            sigma,
            calls: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Creates a stream whose standard deviation corresponds to the given
    /// SNR (in dB) for signals with RMS value `signal_rms` (same rule as
    /// [`SensingNoise::from_snr_db`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `signal_rms` is negative.
    pub fn from_snr_db(snr_db: f64, signal_rms: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if signal_rms < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "signal_rms",
                value: signal_rms,
                requirement: "must be non-negative",
            });
        }
        Self::new(signal_rms / 10f64.powf(snr_db / 20.0), seed)
    }

    /// A stream with the same standard deviation under another seed, with a
    /// counter of its own starting at call 0. Shares nothing with `self`.
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            seed,
            sigma: self.sigma,
            calls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// How many rows have been drawn so far (across every clone).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Claims the next call index and returns its row of noise.
    pub fn draw(&self) -> NoiseRow {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        self.row(call)
    }

    /// The row of noise at call index `call`.
    fn row(&self, call: u64) -> NoiseRow {
        NoiseRow {
            key: splitmix64(splitmix64(self.seed) ^ call),
            sigma: self.sigma,
        }
    }
}

/// One correlation's worth of sensing noise, handed out by
/// [`KeyedNoise::draw`]: a stream key and the noise standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRow {
    key: u64,
    sigma: f64,
}

impl NoiseRow {
    /// Adds `sigma · scale · g[i]` to every element of `out`, where `g` is
    /// this row's standard-normal block.
    pub fn add_scaled(&self, out: &mut [f64], scale: f64) {
        let amplitude = self.sigma * scale;
        let mut gen = PolarPairs(self.key);
        let mut pairs = out.chunks_exact_mut(2);
        for pair in &mut pairs {
            let (a, b) = gen.next_pair();
            pair[0] += a * amplitude;
            pair[1] += b * amplitude;
        }
        if let [last] = pairs.into_remainder() {
            *last += gen.next_pair().0 * amplitude;
        }
    }
}

/// SplitMix64's output mix (Steele, Lea & Flood 2014).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Standard-normal pairs from the Marsaglia polar method over a SplitMix64
/// stream whose state starts at the row key.
struct PolarPairs(u64);

impl PolarPairs {
    /// Uniform on `[-1, 1)` from the top 53 bits of the next output.
    fn next_signed_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let bits = splitmix64(self.0) >> 11;
        bits as f64 * (1.0 / (1u64 << 52) as f64) - 1.0
    }

    fn next_pair(&mut self) -> (f64, f64) {
        loop {
            let u = self.next_signed_unit();
            let v = self.next_signed_unit();
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                return (u * f, v * f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let bad = DetectorConfig {
            responsivity_a_per_w: 0.0,
            ..Default::default()
        };
        assert!(Photodetector::new(bad).is_err());
        let bad = DetectorConfig {
            dark_current_na: -1.0,
            ..Default::default()
        };
        assert!(Photodetector::new(bad).is_err());
        let bad = DetectorConfig {
            max_accumulation_depth: 0,
            ..Default::default()
        };
        assert!(Photodetector::new(bad).is_err());
        assert!(Photodetector::new(DetectorConfig::default()).is_ok());
    }

    #[test]
    fn square_law_response() {
        let pd = Photodetector::with_defaults();
        assert_eq!(pd.detect_amplitude(0.0), 0.0);
        assert_eq!(pd.detect_amplitude(2.0), 4.0);
        assert_eq!(pd.detect_amplitude(-2.0), 4.0);
        assert_eq!(pd.detect_intensity(3.0), 3.0);
    }

    #[test]
    fn responsivity_scales_output() {
        let pd = Photodetector::new(DetectorConfig {
            responsivity_a_per_w: 0.5,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(pd.detect_amplitude(2.0), 2.0);
    }

    #[test]
    fn accumulation_sums_then_resets() {
        let mut pd = Photodetector::with_defaults();
        for i in 1..=5 {
            assert_eq!(pd.accumulate(1.0).unwrap(), i);
        }
        assert_eq!(pd.cycles_accumulated(), 5);
        assert_eq!(pd.read_out(), 5.0);
        assert_eq!(pd.cycles_accumulated(), 0);
        assert_eq!(pd.read_out(), 0.0);
    }

    #[test]
    fn accumulation_depth_is_enforced() {
        let mut pd = Photodetector::new(DetectorConfig {
            max_accumulation_depth: 2,
            ..Default::default()
        })
        .unwrap();
        pd.accumulate(1.0).unwrap();
        pd.accumulate(1.0).unwrap();
        assert!(pd.accumulate(1.0).is_err());
        pd.read_out();
        assert!(pd.accumulate(1.0).is_ok());
    }

    #[test]
    fn accumulation_is_full_precision() {
        // The whole point of temporal accumulation: the analog sum equals the
        // exact sum with no intermediate quantization.
        let mut pd = Photodetector::with_defaults();
        let values = [0.001, 0.5, 1.7, 0.03, 0.9];
        for &v in &values {
            pd.accumulate(v).unwrap();
        }
        let expected: f64 = values.iter().sum();
        assert!((pd.read_out() - expected).abs() < 1e-15);
    }

    #[test]
    fn snr_computation() {
        let pd = Photodetector::with_defaults(); // dark current 10 nA
        assert!((pd.snr_db(1000.0) - 40.0).abs() < 1e-9);
        assert!((pd.snr_db(100.0) - 20.0).abs() < 1e-9);
        let needed = pd.required_signal_for_snr(20.0);
        assert!((needed - 100.0).abs() < 1e-9);
        let quiet = Photodetector::new(DetectorConfig {
            dark_current_na: 0.0,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(quiet.snr_db(1.0), f64::INFINITY);
    }

    #[test]
    fn sensing_noise_statistics() {
        let mut noise = SensingNoise::new(0.1, 42).unwrap();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| noise.perturb(0.0)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn sensing_noise_is_deterministic_per_seed() {
        let mut a = SensingNoise::new(0.5, 7).unwrap();
        let mut b = SensingNoise::new(0.5, 7).unwrap();
        let va: Vec<f64> = (0..10).map(|_| a.perturb(1.0)).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.perturb(1.0)).collect();
        assert_eq!(va, vb);
        let mut c = SensingNoise::new(0.5, 8).unwrap();
        let vc: Vec<f64> = (0..10).map(|_| c.perturb(1.0)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_sigma_noise_is_identity() {
        let mut noise = SensingNoise::new(0.0, 1).unwrap();
        assert_eq!(noise.perturb(3.5), 3.5);
        assert_eq!(noise.perturb_slice(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// The standard-normal block of `row`.
    fn standard(row: NoiseRow, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        row.add_scaled(&mut out, 1.0 / row.sigma);
        out
    }

    #[test]
    fn keyed_noise_block_statistics() {
        // 2e5 samples as 1000 rows of 200 (a row is one correlation's
        // output). The standard error of the mean is 1/sqrt(2e5) ≈ 0.0022
        // and of the standard deviation ≈ 0.0016, so the 0.01 bounds sit
        // more than four standard errors out.
        let noise = KeyedNoise::new(1.0, 42).unwrap();
        let mut samples = vec![0.0; 200_000];
        for row in samples.chunks_exact_mut(200) {
            noise.draw().add_scaled(row, 1.0);
        }
        let (mean, std) = moments(&samples);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((std - 1.0).abs() < 0.01, "std {std}");
        // Tails: about 4.55% of a standard normal lies beyond ±2σ.
        let beyond = samples.iter().filter(|x| x.abs() > 2.0).count() as f64;
        let frac = beyond / samples.len() as f64;
        assert!((frac - 0.0455).abs() < 0.003, "tail fraction {frac}");
        assert_eq!(noise.calls(), 1000);
    }

    #[test]
    fn keyed_noise_rows_are_distinct_by_seed_and_call() {
        let a = KeyedNoise::new(0.1, 7).unwrap();
        let b = KeyedNoise::new(0.1, 8).unwrap();
        let row = |r: NoiseRow| standard(r, 16);
        let rows: Vec<Vec<f64>> = vec![row(a.row(0)), row(a.row(1)), row(b.row(0)), row(b.row(1))];
        for i in 0..rows.len() {
            for j in i + 1..rows.len() {
                assert_ne!(rows[i], rows[j], "rows {i} and {j} collide");
            }
        }
        // Addressing is pure: the same (seed, call) gives the same bits.
        assert_eq!(row(a.row(1)), row(KeyedNoise::new(0.5, 7).unwrap().row(1)));
    }

    #[test]
    fn keyed_noise_counter_is_shared_by_clones_and_reset_by_reseed() {
        let noise = KeyedNoise::from_snr_db(20.0, 1.0, 3).unwrap();
        assert!((noise.sigma() - 0.1).abs() < 1e-12);
        let clone = noise.clone();
        assert_eq!(noise.draw(), noise.row(0));
        assert_eq!(clone.draw(), noise.row(1));
        assert_eq!(noise.calls(), 2);
        let other = noise.reseeded(9);
        assert_eq!(other.calls(), 0);
        assert_eq!(other.draw(), KeyedNoise::new(0.1, 9).unwrap().row(0));
        assert_eq!(noise.calls(), 2, "reseeding never advances the original");
        assert!(KeyedNoise::new(-0.1, 0).is_err());
        assert!(KeyedNoise::from_snr_db(20.0, -1.0, 0).is_err());
    }

    #[test]
    fn keyed_noise_scales_and_odd_rows_use_half_a_pair() {
        let noise = KeyedNoise::new(0.25, 5).unwrap();
        let unit = KeyedNoise::new(1.0, 5).unwrap();
        let g = standard(unit.row(3), 7);
        let mut scaled = vec![1.0; 7];
        noise.row(3).add_scaled(&mut scaled, 2.0);
        for (s, g) in scaled.iter().zip(&g) {
            assert_eq!(*s, 1.0 + g * 0.5);
        }
        // An odd row is the even row's prefix.
        assert_eq!(&standard(unit.row(3), 8)[..7], &g[..]);
    }

    #[test]
    fn noise_from_snr() {
        let noise = SensingNoise::from_snr_db(20.0, 1.0, 3).unwrap();
        assert!((noise.sigma() - 0.1).abs() < 1e-12);
        assert!(SensingNoise::from_snr_db(20.0, -1.0, 3).is_err());
        assert!(SensingNoise::new(-0.1, 0).is_err());
    }
}
