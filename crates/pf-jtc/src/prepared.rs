//! Prepared kernel spectra — the throughput fast path of the JTC simulation.
//!
//! Row tiling drives the JTC with **one fixed kernel against many tiles of
//! equal length**: every tile of a convolution layer (and every image of a
//! batch) reuses the same tiled filter. The baseline
//! [`JtcSimulator::correlate`](crate::correlator::JtcSimulator::correlate)
//! path rebuilds the joint input plane and runs two full-grid complex FFTs
//! per tile. This module amortises and shrinks that work:
//!
//! * [`PreparedSpectrum`] fixes the input-plane geometry (separation `d`,
//!   grid size `n`) for one `(kernel, signal_len)` pair and precomputes the
//!   kernel's padded half-spectrum once. The prepared grid is **tight**:
//!   the smallest even 5-smooth size that keeps the output terms separated
//!   (mixed-radix plans run it directly), not the simulator's
//!   power-of-two base grid;
//! * per tile, the first lens is computed as a **real-input half-spectrum
//!   FFT of the signal alone** (one `n/2`-point complex FFT instead of an
//!   `n`-point one) and the kernel spectrum is added — the Fourier transform
//!   is linear, so `F[s + k] = F[s] + F[k]`;
//! * the square-law intensity of a real input's spectrum is symmetric
//!   (`I[n-k] = I[k]`), so the second lens is again a real-input
//!   half-spectrum FFT, and only the bins the correlation lobe occupies are
//!   ever read;
//! * the signal's half-spectrum is itself reusable: a CNN layer correlates
//!   each input tile against **many** kernels (one per output channel, two
//!   with pseudo-negative splitting), and `F[s]` does not depend on the
//!   kernel. [`SignalSpectrum`] materialises that transform once
//!   ([`PreparedSpectrum::signal_spectrum`]) and
//!   [`PreparedSpectrum::correlate_spectrum`] replays it against any
//!   prepared kernel with the same geometry — one spectrum-add plus one
//!   inverse-lens transform per kernel instead of two transforms each;
//! * whole tile batches transform at once:
//!   [`PreparedSpectrum::signal_spectra_batch`] (and the row-tiling hook
//!   [`PreparedConv1d::prepare_signal_batch`]) run one batched real-input
//!   plan over N planar rows, bit-identical per row to the one-at-a-time
//!   path.
//!
//! [`PreparedKernel`] layers the engine's DAC/ADC quantisation on top and
//! plugs into row tiling through [`pf_tiling::PreparedConv1d`], including the
//! signal-sharing half of that trait
//! ([`prepare_signal`](pf_tiling::PreparedConv1d::prepare_signal) /
//! [`correlate_with_signal`](pf_tiling::PreparedConv1d::correlate_with_signal)).
//! Every fast path is bit-identical to its unshared counterpart: the shared
//! transform is byte-copied, not recomputed, so the floating-point operation
//! sequence does not change.
//!
//! A prepared kernel holds deterministic state only. Sensing noise belongs
//! to the engine that runs the correlation
//! ([`JtcEngine::run_prepared`](pf_tiling::Conv1dEngine::run_prepared)), so
//! one prepared-kernel cache serves every engine of a configuration, however
//! each is seeded.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use pf_dsp::complex::Complex;
use pf_dsp::plan::RealFftPlan;
use pf_dsp::scratch::{with_spectrum_scratch, SpectrumScratch};
use pf_photonics::adc::Adc;
use pf_photonics::dac::Dac;
use pf_photonics::detector::KeyedNoise;
use pf_telemetry::{Stage, StageAcc, StageTotals};
use pf_tiling::{PreparedConv1d, PreparedSignal};

use crate::correlator::JtcSimulator;
use crate::error::JtcError;

/// The precomputed optics-level state for correlating one fixed kernel with
/// signals of one fixed length: input-plane geometry plus the kernel's
/// padded half-spectrum.
#[derive(Debug, Clone)]
pub struct PreparedSpectrum {
    signal_len: usize,
    kernel_len: usize,
    /// Offset of the kernel origin on the joint input plane.
    d: usize,
    /// Simulation grid size.
    n: usize,
    /// Bins `0..=n/2` of the `n`-point DFT of the kernel placed at offset
    /// `d` (the rest of the spectrum follows from conjugate symmetry).
    kernel_half_spec: Vec<Complex>,
    plan: Arc<RealFftPlan>,
}

/// The first-lens transform of one signal: bins `0..=n/2` of the `n`-point
/// DFT of the signal placed at the input-plane origin.
///
/// Computed once per tile by [`PreparedSpectrum::signal_spectrum`] and
/// consumed by [`PreparedSpectrum::correlate_spectrum`] for every kernel
/// prepared with the same geometry, replacing the per-kernel signal FFT
/// with an O(n) copy.
#[derive(Debug, Clone)]
pub struct SignalSpectrum {
    signal_len: usize,
    n: usize,
    half_spec: Vec<Complex>,
}

impl SignalSpectrum {
    /// The signal length this spectrum was computed from.
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// The simulation grid size the transform was taken on.
    pub fn grid_size(&self) -> usize {
        self.n
    }
}

impl PreparedSpectrum {
    /// Builds the prepared state for `kernel` against signals of exactly
    /// `signal_len` samples, using the same signal→kernel separation as
    /// [`JtcSimulator::output_plane`](crate::correlator::JtcSimulator::output_plane)
    /// but a **tight grid**: the smallest even 5-smooth size that keeps the
    /// output terms separated, rather than the simulator's power-of-two
    /// base grid. The mixed-radix transform plans run any 5-smooth length
    /// directly, so the prepared path no longer pays for pad-to-pow2
    /// transforms (the per-call [`JtcSimulator`] path keeps the big grid).
    ///
    /// # Errors
    ///
    /// * [`JtcError::EmptyOperand`] if the kernel is empty or `signal_len`
    ///   is zero.
    /// * [`JtcError::InputTooLarge`] if either operand exceeds `capacity`.
    pub fn new(kernel: &[f64], signal_len: usize, capacity: usize) -> Result<Self, JtcError> {
        if signal_len == 0 {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        if kernel.is_empty() {
            return Err(JtcError::EmptyOperand { what: "kernel" });
        }
        if signal_len > capacity || kernel.len() > capacity {
            return Err(JtcError::InputTooLarge {
                signal_len,
                kernel_len: kernel.len(),
                capacity,
            });
        }
        // Same separation as the per-call path (signal at the origin,
        // kernel at offset d), tight 5-smooth grid.
        let (d, n) = crate::correlator::prepared_geometry(signal_len, kernel.len());
        let plan = RealFftPlan::shared(n)?;

        // Kernel half-spectrum, computed once: the kernel occupies
        // [d, d + kernel_len) of the otherwise-zero input plane.
        let mut padded = vec![0.0; d + kernel.len()];
        padded[d..].copy_from_slice(kernel);
        let mut scratch = Vec::new();
        let mut kernel_half_spec = Vec::new();
        plan.forward_real_into(&padded, &mut scratch, &mut kernel_half_spec)?;

        Ok(Self {
            signal_len,
            kernel_len: kernel.len(),
            d,
            n,
            kernel_half_spec,
            plan,
        })
    }

    /// The signal length this spectrum was prepared for.
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// The prepared kernel's length.
    pub fn kernel_len(&self) -> usize {
        self.kernel_len
    }

    /// The simulation grid size used by this prepared geometry.
    pub fn grid_size(&self) -> usize {
        self.n
    }

    fn check_signal_len(&self, len: usize) -> Result<(), JtcError> {
        if len != self.signal_len {
            return Err(JtcError::InvalidConfig {
                name: "signal_len",
                requirement: format!(
                    "prepared for signals of {} samples, got {len}",
                    self.signal_len
                ),
            });
        }
        Ok(())
    }

    /// Computes the first-lens transform of `signal` alone (real input,
    /// implicit zero padding), reusable against every prepared kernel that
    /// shares this geometry (same `signal_len` and grid size).
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if `signal.len()` differs from
    /// the prepared [`PreparedSpectrum::signal_len`], and
    /// [`JtcError::EmptyOperand`] for an empty signal.
    pub fn signal_spectrum(&self, signal: &[f64]) -> Result<SignalSpectrum, JtcError> {
        if signal.is_empty() {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        self.check_signal_len(signal.len())?;
        let mut half_spec = Vec::new();
        with_spectrum_scratch(|s| {
            self.plan
                .forward_real_into(signal, &mut s.fft, &mut half_spec)
        })?;
        Ok(SignalSpectrum {
            signal_len: self.signal_len,
            n: self.n,
            half_spec,
        })
    }

    /// Computes the first-lens transforms of `count` signals stored back to
    /// back in `signals` (planar layout, each row exactly
    /// [`signal_len`](PreparedSpectrum::signal_len) samples) through **one
    /// batched real-input transform**: the plan walks its stages once across
    /// all rows instead of once per row.
    ///
    /// Each returned spectrum is bit-identical to what
    /// [`PreparedSpectrum::signal_spectrum`] produces for the same row — the
    /// batched kernel replays the per-row floating-point operation sequence
    /// exactly — so every sharing guarantee downstream carries over.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::EmptyOperand`] for an empty batch and
    /// [`JtcError::InvalidConfig`] if `signals` does not divide into `count`
    /// rows of the prepared signal length.
    pub fn signal_spectra_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Result<Vec<SignalSpectrum>, JtcError> {
        if count == 0 || signals.is_empty() {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        if !signals.len().is_multiple_of(count) {
            return Err(JtcError::InvalidConfig {
                name: "signals",
                requirement: format!(
                    "planar batch of {count} equal rows, got {} samples",
                    signals.len()
                ),
            });
        }
        self.check_signal_len(signals.len() / count)?;
        let sl = self.plan.spectrum_len();
        let mut halves = Vec::new();
        with_spectrum_scratch(|s| {
            self.plan
                .forward_real_batch_into(signals, count, &mut s.fft, &mut halves)
        })?;
        Ok(halves
            .chunks_exact(sl)
            .map(|half| SignalSpectrum {
                signal_len: self.signal_len,
                n: self.n,
                half_spec: half.to_vec(),
            })
            .collect())
    }

    /// Runs the optics chain against `signal` and extracts the valid
    /// cross-correlation, reusing the prepared kernel spectrum.
    ///
    /// Bit-identical to
    /// `self.correlate_spectrum(&self.signal_spectrum(signal)?)`: the
    /// shared-spectrum path copies the transform instead of recomputing it,
    /// so the floating-point operation sequence is the same.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if `signal.len()` differs from
    /// the prepared [`PreparedSpectrum::signal_len`], and
    /// [`JtcError::EmptyOperand`] for an empty signal.
    pub fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, JtcError> {
        if signal.is_empty() {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        self.check_signal_len(signal.len())?;
        if self.kernel_len > self.signal_len {
            return Ok(Vec::new());
        }
        with_spectrum_scratch(|s| {
            // First lens on the signal alone, directly into the joint
            // buffer; the kernel spectrum is added in place.
            self.plan
                .forward_real_into(signal, &mut s.fft, &mut s.half_a)?;
            let SpectrumScratch {
                fft,
                half_a,
                half_b,
                real,
            } = s;
            self.apply_kernel_spectrum(half_a, real);
            self.second_lens(real, fft, half_b)
        })
    }

    /// Runs the optics chain against a signal transform computed by
    /// [`PreparedSpectrum::signal_spectrum`] — the multi-kernel fast path:
    /// one spectrum-add plus one inverse-lens transform, no signal FFT.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if the transform's geometry
    /// (signal length or grid size) differs from this kernel's.
    pub fn correlate_spectrum(&self, spectrum: &SignalSpectrum) -> Result<Vec<f64>, JtcError> {
        self.correlate_spectrum_impl(spectrum, None)
    }

    /// Like [`PreparedSpectrum::correlate_spectrum`], accumulating the
    /// spectrum-apply and inverse-lens stage durations into `times` (the
    /// perf harness's `--stages` breakdown; not a hot path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::correlate_spectrum`].
    pub fn correlate_spectrum_staged(
        &self,
        spectrum: &SignalSpectrum,
        times: &mut StageTimes,
    ) -> Result<Vec<f64>, JtcError> {
        let mut acc = StageAcc::start();
        let out = self.correlate_spectrum_impl(spectrum, Some(&mut acc));
        times.add_ns(acc.ns());
        out
    }

    /// Shared body of the fused and staged spectrum paths. `acc` chains
    /// stage boundaries on the caller's accumulator, so a caller that
    /// already marked earlier stages (e.g. the signal FFT in
    /// [`PreparedKernel::correlate_staged`]) pays no extra clock reads at
    /// the hand-off boundary. Entry checks and the spectrum byte-copy fall
    /// into `spectrum_apply`.
    fn correlate_spectrum_impl(
        &self,
        spectrum: &SignalSpectrum,
        mut acc: Option<&mut StageAcc>,
    ) -> Result<Vec<f64>, JtcError> {
        self.check_signal_len(spectrum.signal_len)?;
        if spectrum.n != self.n {
            return Err(JtcError::InvalidConfig {
                name: "grid_size",
                requirement: format!(
                    "signal spectrum taken on a {}-point grid, kernel prepared on {}",
                    spectrum.n, self.n
                ),
            });
        }
        if self.kernel_len > self.signal_len {
            return Ok(Vec::new());
        }
        with_spectrum_scratch(|s| {
            let SpectrumScratch {
                fft,
                half_a,
                half_b,
                real,
            } = s;
            // Byte-copy of the shared transform: `joint` then holds exactly
            // the bits the unshared path's signal FFT would produce.
            half_a.clear();
            half_a.extend_from_slice(&spectrum.half_spec);
            self.apply_kernel_spectrum(half_a, real);
            if let Some(acc) = &mut acc {
                acc.mark(Stage::SpectrumApply);
            }
            let out = self.second_lens(real, fft, half_b)?;
            if let Some(acc) = &mut acc {
                acc.mark(Stage::Inverse);
            }
            Ok(out)
        })
    }

    /// Adds the prepared kernel spectrum into `joint` (which must hold the
    /// signal's half spectrum) and materialises the full-length square-law
    /// intensity — `F[s+k] = F[s] + F[k]`, and the joint input is real so
    /// its intensity spectrum is symmetric: `I[n-k] = I[k]`.
    fn apply_kernel_spectrum(&self, joint: &mut [Complex], intensity: &mut Vec<f64>) {
        for (j, k) in joint.iter_mut().zip(&self.kernel_half_spec) {
            *j += *k;
        }
        intensity.clear();
        intensity.resize(self.n, 0.0);
        for (k, z) in joint.iter().enumerate() {
            let v = z.norm_sqr();
            intensity[k] = v;
            // Bins 0 and n/2 (when n is even) are their own mirrors; every
            // other half-spectrum bin also fills its conjugate image.
            if k != 0 && 2 * k != self.n {
                intensity[self.n - k] = v;
            }
        }
    }

    /// Second lens (again a real input); normalises the double-transform
    /// gain of N and extracts the correlation lobe, which lives at indices
    /// `d-len+1..=d`, all within the produced half spectrum (`d < n/2` by
    /// construction).
    fn second_lens(
        &self,
        intensity: &[f64],
        fft_scratch: &mut Vec<Complex>,
        field_half: &mut Vec<Complex>,
    ) -> Result<Vec<f64>, JtcError> {
        self.plan
            .forward_real_into(intensity, fft_scratch, field_half)?;
        let len = self.signal_len - self.kernel_len + 1;
        let inv_n = 1.0 / self.n as f64;
        Ok((0..len)
            .map(|j| field_half[self.d - j].re * inv_n)
            .collect())
    }
}

impl JtcSimulator {
    /// Prepares `kernel` for repeated correlation against signals of
    /// exactly `signal_len` samples (one spectrum computation amortised
    /// over every subsequent [`JtcSimulator::correlate_prepared`] call).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::new`].
    pub fn prepare_kernel(
        &self,
        kernel: &[f64],
        signal_len: usize,
    ) -> Result<PreparedSpectrum, JtcError> {
        PreparedSpectrum::new(kernel, signal_len, self.capacity())
    }

    /// Correlates `signal` against a kernel prepared with
    /// [`JtcSimulator::prepare_kernel`].
    ///
    /// Numerically equivalent to [`JtcSimulator::correlate`] up to FFT
    /// rounding (~1e-12 relative): the prepared path exploits the linearity
    /// of the Fourier transform and real-input symmetry, so the floating
    /// point operation order differs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::correlate`].
    pub fn correlate_prepared(
        &self,
        signal: &[f64],
        prepared: &PreparedSpectrum,
    ) -> Result<Vec<f64>, JtcError> {
        prepared.correlate(signal)
    }
}

/// Wall-clock breakdown of one (or many accumulated) prepared correlations,
/// by pipeline stage. Filled by [`PreparedKernel::correlate_staged`] for
/// the perf harness's `--stages` report; the unstaged paths carry no timing
/// overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// First lens: real-input FFT of the (quantised) signal.
    pub signal_fft: Duration,
    /// Kernel-spectrum add plus square-law intensity materialisation.
    pub spectrum_apply: Duration,
    /// Second lens (the "inverse" transform back to the output plane) plus
    /// correlation-lobe extraction.
    pub inverse: Duration,
    /// Mixed-signal conditioning: DAC quantisation of the signal, output
    /// rescaling, sensing noise and ADC quantisation.
    pub dac_adc: Duration,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.signal_fft + self.spectrum_apply + self.inverse + self.dac_adc
    }

    /// View over a telemetry [`StageTotals`] record: the per-stage
    /// nanosecond counters converted back to [`Duration`]s. This is the
    /// single source of truth for stage shares when execution runs through
    /// the telemetry registry — the perf harness's `--stages` report and
    /// the staged execution paths both read from it, so the two can no
    /// longer drift apart.
    pub fn from_totals(totals: &StageTotals) -> Self {
        Self {
            signal_fft: Duration::from_nanos(totals.stage_ns(Stage::SignalFft)),
            spectrum_apply: Duration::from_nanos(totals.stage_ns(Stage::SpectrumApply)),
            inverse: Duration::from_nanos(totals.stage_ns(Stage::Inverse)),
            dac_adc: Duration::from_nanos(totals.stage_ns(Stage::DacAdc)),
        }
    }

    /// Adds a nanosecond split indexed by [`Stage::index`] (the shape a
    /// [`StageAcc`] accumulates) into these durations.
    pub fn add_ns(&mut self, ns: [u64; Stage::COUNT]) {
        self.signal_fft += Duration::from_nanos(ns[Stage::SignalFft.index()]);
        self.spectrum_apply += Duration::from_nanos(ns[Stage::SpectrumApply.index()]);
        self.inverse += Duration::from_nanos(ns[Stage::Inverse.index()]);
        self.dac_adc += Duration::from_nanos(ns[Stage::DacAdc.index()]);
    }
}

/// An engine-level prepared kernel: the optics-level [`PreparedSpectrum`]
/// plus the mixed-signal state of the [`JtcEngine`](crate::engine::JtcEngine)
/// that prepared it — the kernel's pre-DAC scale and copies of the DAC and
/// ADC. All of it is deterministic.
///
/// Implements [`pf_tiling::PreparedConv1d`], so row tiling can reuse it
/// across every tile of a convolution — and, through the convolver's
/// prepared-kernel cache, across every image of a batch and every engine of
/// the same configuration. Driven on its own it runs the noise-free chain;
/// a noisy engine adds its sensing noise when the tiled executor runs the
/// kernel through
/// [`Conv1dEngine::run_prepared`](pf_tiling::Conv1dEngine::run_prepared)
/// or [`JtcEngine::correlate_prepared`](crate::engine::JtcEngine::correlate_prepared).
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    spectrum: PreparedSpectrum,
    /// Scale undoing the kernel's pre-DAC normalisation.
    k_scale: f64,
    /// Copy of the engine's input DAC (quantises incoming signals).
    dac: Option<Dac>,
    /// Copy of the engine's output ADC.
    adc: Option<Adc>,
}

/// The engine-level shared signal state handed out through
/// [`pf_tiling::PreparedConv1d::prepare_signal`]: the DAC-quantised
/// signal's first-lens transform plus the scale undoing its pre-DAC
/// normalisation.
#[derive(Debug)]
struct SharedSignal {
    spectrum: SignalSpectrum,
    s_scale: f64,
}

impl PreparedSignal for SharedSignal {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl PreparedKernel {
    pub(crate) fn new(
        spectrum: PreparedSpectrum,
        k_scale: f64,
        dac: Option<Dac>,
        adc: Option<Adc>,
    ) -> Self {
        Self {
            spectrum,
            k_scale,
            dac,
            adc,
        }
    }

    /// The optics-level prepared state.
    pub fn spectrum(&self) -> &PreparedSpectrum {
        &self.spectrum
    }

    /// Scale factor undoing the kernel's pre-DAC normalisation.
    pub fn kernel_scale(&self) -> f64 {
        self.k_scale
    }

    /// Runs the noise-free chain (DAC → optics → rescale → ADC) against
    /// `signal`: a pure function of the input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::correlate`].
    pub fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, JtcError> {
        self.run(None, signal, None, None)
    }

    /// Like [`PreparedKernel::correlate`], accumulating per-stage wall time
    /// into `times`. Measurement-only: the staged signal-FFT stage goes
    /// through [`PreparedSpectrum::signal_spectrum`], which is bit-identical
    /// to the fused path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::correlate`].
    pub fn correlate_staged(
        &self,
        signal: &[f64],
        times: &mut StageTimes,
    ) -> Result<Vec<f64>, JtcError> {
        let mut acc = StageAcc::start();
        let out = self.run(None, signal, Some(&mut acc), None);
        times.add_ns(acc.ns());
        out
    }

    /// The concrete prepared kernel behind a type-erased one from
    /// [`JtcEngine::prepare_kernel`](pf_tiling::Conv1dEngine::prepare_kernel):
    /// either a plain kernel or one bound to a noise stream.
    pub(crate) fn from_any(any: &dyn Any) -> Option<&Self> {
        any.downcast_ref::<Self>()
            .or_else(|| any.downcast_ref::<NoisyKernel>().map(|bound| &bound.kernel))
    }

    /// The whole chain — every engine-level path runs through here, so
    /// they stay bit-identical to each other. `shared` is a transform from
    /// [`PreparedConv1d::prepare_signal`] (a foreign one falls back to the
    /// full chain on `signal`), `acc` marks stages when tracing, and
    /// `noise` is the stream of the engine running the correlation.
    pub(crate) fn run(
        &self,
        shared: Option<&dyn PreparedSignal>,
        signal: &[f64],
        mut acc: Option<&mut StageAcc>,
        noise: Option<&KeyedNoise>,
    ) -> Result<Vec<f64>, JtcError> {
        // No signal-FFT stage on the shared path: the shared transform was
        // computed (and attributed to signal_fft) where it was prepared —
        // the executor's prepare_signal / prepare_signal_batch call sites.
        let from_shared = shared
            .and_then(|sig| sig.as_any().downcast_ref::<SharedSignal>())
            .and_then(|sig| {
                self.spectrum
                    .correlate_spectrum_impl(&sig.spectrum, acc.as_deref_mut())
                    .ok()
                    .map(|out| (out, sig.s_scale))
            });
        let (mut out, s_scale) = match from_shared {
            Some(done) => done,
            None => self.optics(signal, acc.as_deref_mut())?,
        };
        crate::engine::condition_output(&mut out, s_scale * self.k_scale, noise, self.adc.as_ref());
        if let Some(acc) = acc {
            acc.mark(Stage::DacAdc);
        }
        Ok(out)
    }

    /// The deterministic front of the chain on an unshared signal: input
    /// DAC, first lens, spectrum apply and second lens, with stage
    /// boundaries marked on `acc` when tracing (one clock read per
    /// boundary). Returns the correlation lobe and the signal's pre-DAC
    /// scale.
    fn optics(
        &self,
        signal: &[f64],
        acc: Option<&mut StageAcc>,
    ) -> Result<(Vec<f64>, f64), JtcError> {
        let (signal_q, s_scale) = crate::engine::quantize_through_dac(self.dac.as_ref(), signal);
        let out = match acc {
            None => self.spectrum.correlate(&signal_q)?,
            Some(acc) => {
                acc.mark(Stage::DacAdc);
                let spectrum = self.spectrum.signal_spectrum(&signal_q)?;
                acc.mark(Stage::SignalFft);
                self.spectrum
                    .correlate_spectrum_impl(&spectrum, Some(acc))?
            }
        };
        Ok((out, s_scale))
    }
}

impl PreparedConv1d for PreparedKernel {
    fn signal_len(&self) -> usize {
        self.spectrum.signal_len
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        // Shape-only contract, like `Conv1dEngine::correlate_valid`: a
        // mismatched call degenerates to an empty result.
        self.run(None, signal, None, None).unwrap_or_default()
    }

    fn signal_key(&self) -> Option<u64> {
        // Two prepared kernels accept each other's shared signal when the
        // first-lens transform they expect is identical: same simulation
        // grid and same input-DAC resolution (the transform is taken on
        // the *quantised* signal). The geometry also fixes signal_len
        // through the executor's per-(signal length) preparation, so
        // (grid, dac bits) is a complete key.
        let dac_code = match &self.dac {
            Some(dac) => u64::from(dac.bits()) + 1,
            None => 0,
        };
        Some(((self.spectrum.n as u64) << 8) | dac_code)
    }

    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        let (signal_q, s_scale) = crate::engine::quantize_through_dac(self.dac.as_ref(), signal);
        let spectrum = self.spectrum.signal_spectrum(&signal_q).ok()?;
        Some(Arc::new(SharedSignal { spectrum, s_scale }))
    }

    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        if count == 0 || !signals.len().is_multiple_of(count) {
            return None;
        }
        let row = signals.len() / count;
        // DAC quantisation normalises each signal against its own peak, so
        // it stays per-row (bit-identical to `prepare_signal`); only the
        // transforms are batched.
        let mut packed = Vec::with_capacity(signals.len());
        let scales: Vec<f64> = signals
            .chunks_exact(row)
            .map(|chunk| crate::engine::quantize_into(self.dac.as_ref(), chunk, &mut packed))
            .collect();
        let spectra = self.spectrum.signal_spectra_batch(&packed, count).ok()?;
        Some(
            spectra
                .into_iter()
                .zip(scales)
                .map(|(spectrum, s_scale)| {
                    Arc::new(SharedSignal { spectrum, s_scale }) as Arc<dyn PreparedSignal>
                })
                .collect(),
        )
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        self.run(Some(prepared), signal, None, None)
            .unwrap_or_default()
    }

    fn correlate_valid_acc(&self, signal: &[f64], acc: &mut StageAcc) -> Vec<f64> {
        // The staged path is bit-identical to the fused one (see
        // `correlate_staged`), so tracing never perturbs results.
        self.run(None, signal, Some(acc), None).unwrap_or_default()
    }

    fn correlate_with_signal_acc(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        acc: &mut StageAcc,
    ) -> Vec<f64> {
        self.run(Some(prepared), signal, Some(acc), None)
            .unwrap_or_default()
    }
}

/// A [`PreparedKernel`] bound to a noisy engine's sensing-noise stream:
/// what [`JtcEngine::prepare_kernel`](pf_tiling::Conv1dEngine::prepare_kernel)
/// hands out on a noisy engine, so a caller driving the kernel on its own
/// still draws the engine's noise, in call order. The tiled executor never
/// uses the binding — it runs every prepared kernel through the running
/// engine's [`run_prepared`](pf_tiling::Conv1dEngine::run_prepared), which
/// draws from that engine's stream instead.
#[derive(Debug)]
pub(crate) struct NoisyKernel {
    pub(crate) kernel: PreparedKernel,
    pub(crate) noise: KeyedNoise,
}

impl PreparedConv1d for NoisyKernel {
    fn signal_len(&self) -> usize {
        self.kernel.signal_len()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.kernel
            .run(None, signal, None, Some(&self.noise))
            .unwrap_or_default()
    }

    fn signal_key(&self) -> Option<u64> {
        self.kernel.signal_key()
    }

    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        self.kernel.prepare_signal(signal)
    }

    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        self.kernel.prepare_signal_batch(signals, count)
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        self.kernel
            .run(Some(prepared), signal, None, Some(&self.noise))
            .unwrap_or_default()
    }

    fn correlate_valid_acc(&self, signal: &[f64], acc: &mut StageAcc) -> Vec<f64> {
        self.kernel
            .run(None, signal, Some(acc), Some(&self.noise))
            .unwrap_or_default()
    }

    fn correlate_with_signal_acc(
        &self,
        prepared: &dyn PreparedSignal,
        signal: &[f64],
        acc: &mut StageAcc,
    ) -> Vec<f64> {
        self.kernel
            .run(Some(prepared), signal, Some(acc), Some(&self.noise))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::conv::{correlate1d, PaddingMode};
    use pf_dsp::util::max_abs_diff;
    use pf_telemetry::Telemetry;

    #[test]
    fn prepared_matches_per_call_optics() {
        let jtc = JtcSimulator::new(64).unwrap();
        let kernel = vec![0.25, 0.5, 1.0, 0.5, 0.25];
        let prep = jtc.prepare_kernel(&kernel, 40).unwrap();
        assert_eq!(prep.signal_len(), 40);
        assert_eq!(prep.kernel_len(), 5);
        for seed in 0..5u64 {
            let signal: Vec<f64> = (0..40)
                .map(|i| ((i as f64 + seed as f64) * 0.3).sin() + 0.5)
                .collect();
            let fast = jtc.correlate_prepared(&signal, &prep).unwrap();
            let slow = jtc.correlate(&signal, &kernel).unwrap();
            assert_eq!(fast.len(), slow.len());
            assert!(max_abs_diff(&fast, &slow) < 1e-9);
        }
    }

    #[test]
    fn prepared_matches_digital_reference() {
        let jtc = JtcSimulator::new(128).unwrap();
        let kernel = vec![-1.0, 2.0, -1.0];
        let prep = jtc.prepare_kernel(&kernel, 100).unwrap();
        let signal: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.17).cos()).collect();
        let fast = jtc.correlate_prepared(&signal, &prep).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&fast, &digital) < 1e-9);
    }

    #[test]
    fn prepared_validates_inputs() {
        let jtc = JtcSimulator::new(16).unwrap();
        assert!(matches!(
            jtc.prepare_kernel(&[], 8),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            jtc.prepare_kernel(&[1.0], 0),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            jtc.prepare_kernel(&[1.0], 17),
            Err(JtcError::InputTooLarge { .. })
        ));
        let prep = jtc.prepare_kernel(&[1.0, 1.0], 8).unwrap();
        assert!(matches!(
            jtc.correlate_prepared(&[1.0; 7], &prep),
            Err(JtcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            jtc.correlate_prepared(&[], &prep),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            prep.signal_spectrum(&[1.0; 7]),
            Err(JtcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            prep.signal_spectrum(&[]),
            Err(JtcError::EmptyOperand { .. })
        ));
    }

    #[test]
    fn kernel_longer_than_signal_is_empty() {
        let jtc = JtcSimulator::new(16).unwrap();
        let prep = jtc.prepare_kernel(&[1.0; 5], 3).unwrap();
        assert!(prep.correlate(&[1.0; 3]).unwrap().is_empty());
        let spec = prep.signal_spectrum(&[1.0; 3]).unwrap();
        assert!(prep.correlate_spectrum(&spec).unwrap().is_empty());
    }

    #[test]
    fn prepared_is_deterministic_across_calls() {
        let jtc = JtcSimulator::new(32).unwrap();
        let kernel = vec![0.3, -0.2, 0.7];
        let prep = jtc.prepare_kernel(&kernel, 20).unwrap();
        let signal: Vec<f64> = (0..20).map(|i| (i as f64 * 0.9).sin()).collect();
        let a = prep.correlate(&signal).unwrap();
        let b = prep.correlate(&signal).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A freshly prepared spectrum is bit-identical too.
        let prep2 = jtc.prepare_kernel(&kernel, 20).unwrap();
        let c = prep2.correlate(&signal).unwrap();
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn shared_spectrum_path_is_bit_identical() {
        // One signal transform applied against several kernels must produce
        // exactly what the per-kernel fused path produces.
        let jtc = JtcSimulator::new(64).unwrap();
        let kernels: Vec<Vec<f64>> = vec![
            vec![0.25, 0.5, 1.0, 0.5, 0.25],
            vec![-1.0, 2.0, -1.0, 0.5, 0.0],
            vec![0.1, 0.1, 0.1, 0.1, 0.1],
        ];
        let preps: Vec<PreparedSpectrum> = kernels
            .iter()
            .map(|k| jtc.prepare_kernel(k, 40).unwrap())
            .collect();
        let signal: Vec<f64> = (0..40).map(|i| (i as f64 * 0.31).sin() + 0.2).collect();
        // All kernels share a geometry, so any of them can take the
        // transform.
        let spectrum = preps[0].signal_spectrum(&signal).unwrap();
        assert_eq!(spectrum.signal_len(), 40);
        assert_eq!(spectrum.grid_size(), preps[0].grid_size());
        for prep in &preps {
            let shared = prep.correlate_spectrum(&spectrum).unwrap();
            let fused = prep.correlate(&signal).unwrap();
            assert_eq!(shared.len(), fused.len());
            for (a, b) in shared.iter().zip(&fused) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn prepared_grid_is_tight_and_still_exact() {
        let jtc = JtcSimulator::new(256).unwrap();
        let kernel = vec![0.25, -0.5, 1.0, 0.5, -0.25, 0.1, 0.3];
        let prep = jtc.prepare_kernel(&kernel, 256).unwrap();
        // Tight 5-smooth grid, strictly smaller than the 2048-point
        // simulator grid the per-call path uses.
        assert!(prep.grid_size() < jtc.grid_size());
        assert_eq!(prep.grid_size() % 2, 0);
        let signal: Vec<f64> = (0..256).map(|i| ((i as f64) * 0.13).sin() + 0.4).collect();
        let fast = prep.correlate(&signal).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&fast, &digital) < 1e-9);
    }

    #[test]
    fn batched_signal_spectra_are_bit_identical_to_serial() {
        let jtc = JtcSimulator::new(64).unwrap();
        let prep = jtc.prepare_kernel(&[0.3, -0.2, 0.7], 40).unwrap();
        for count in [1usize, 2, 3, 5] {
            let signals: Vec<f64> = (0..40 * count)
                .map(|i| ((i as f64) * 0.29).sin() + 0.1)
                .collect();
            let batch = prep.signal_spectra_batch(&signals, count).unwrap();
            assert_eq!(batch.len(), count);
            for (row, spec) in batch.iter().enumerate() {
                let serial = prep
                    .signal_spectrum(&signals[row * 40..(row + 1) * 40])
                    .unwrap();
                let a = prep.correlate_spectrum(spec).unwrap();
                let b = prep.correlate_spectrum(&serial).unwrap();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "count {count} row {row}");
                }
            }
        }
        // Ragged batches are rejected.
        assert!(matches!(
            prep.signal_spectra_batch(&[1.0; 41], 2),
            Err(JtcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            prep.signal_spectra_batch(&[], 2),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            prep.signal_spectra_batch(&[1.0; 40], 0),
            Err(JtcError::EmptyOperand { .. })
        ));
    }

    #[test]
    fn prepare_signal_batch_matches_prepare_signal() {
        // Through the row-tiling trait, with a DAC in the chain: per-row
        // quantisation plus batched transforms must reproduce the serial
        // path bit for bit.
        let engine = crate::engine::JtcEngine::new(crate::engine::JtcEngineConfig {
            capacity: 64,
            dac_bits: Some(8),
            adc_bits: None,
            sensing_snr_db: None,
            noise_seed: 0,
        })
        .unwrap();
        let prep = engine.prepare(&[0.4, -0.1, 0.8], 32).unwrap();
        for count in [1usize, 2, 4, 5] {
            let signals: Vec<f64> = (0..32 * count)
                .map(|i| ((i as f64) * 0.37).cos() * (1.0 + i as f64 / 100.0))
                .collect();
            let batch = prep
                .prepare_signal_batch(&signals, count)
                .expect("batch preparation succeeds");
            assert_eq!(batch.len(), count);
            for (row, shared) in batch.iter().enumerate() {
                let tile = &signals[row * 32..(row + 1) * 32];
                let serial = prep.prepare_signal(tile).unwrap();
                let a = prep.correlate_with_signal(shared.as_ref(), tile);
                let b = prep.correlate_with_signal(serial.as_ref(), tile);
                let c = prep.correlate_valid(tile);
                assert_eq!(a.len(), c.len());
                for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                    assert_eq!(x.to_bits(), y.to_bits(), "count {count} row {row}");
                    assert_eq!(x.to_bits(), z.to_bits(), "count {count} row {row}");
                }
            }
        }
        // Ragged batches fall back to None (callers then go one-at-a-time).
        assert!(prep.prepare_signal_batch(&[1.0; 33], 2).is_none());
        assert!(prep.prepare_signal_batch(&[1.0; 32], 0).is_none());
    }

    #[test]
    fn correlate_spectrum_rejects_foreign_geometry() {
        let jtc = JtcSimulator::new(64).unwrap();
        let prep_a = jtc.prepare_kernel(&[1.0, 0.5], 40).unwrap();
        let prep_b = jtc.prepare_kernel(&[1.0, 0.5], 32).unwrap();
        let spectrum = prep_a
            .signal_spectrum(&vec![1.0; 40])
            .expect("valid spectrum");
        assert!(matches!(
            prep_b.correlate_spectrum(&spectrum),
            Err(JtcError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn staged_correlation_matches_unstaged_and_accounts_time() {
        let jtc = JtcSimulator::new(64).unwrap();
        let prep = PreparedKernel::new(
            jtc.prepare_kernel(&[0.3, -0.2, 0.7], 48).unwrap(),
            1.0,
            None,
            None,
        );
        let signal: Vec<f64> = (0..48).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut times = StageTimes::default();
        let staged = prep.correlate_staged(&signal, &mut times).unwrap();
        let unstaged = prep.correlate(&signal).unwrap();
        for (a, b) in staged.iter().zip(&unstaged) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(times.total() > Duration::ZERO);
        assert!(times.inverse > Duration::ZERO);
    }

    #[test]
    fn traced_paths_are_bit_identical_and_attribute_stages() {
        let jtc = JtcSimulator::new(64).unwrap();
        let prep = PreparedKernel::new(
            jtc.prepare_kernel(&[0.3, -0.2, 0.7], 48).unwrap(),
            1.0,
            None,
            None,
        );
        let signal: Vec<f64> = (0..48).map(|i| (i as f64 * 0.13).sin()).collect();
        let tel = Telemetry::enabled();

        let plain = prep.correlate_valid(&signal);
        let traced = prep.correlate_valid_traced(&signal, &tel);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let totals = tel.stage_totals();
        for stage in Stage::ALL {
            assert_eq!(totals.stage_calls(stage), 1, "{}", stage.name());
        }

        // Shared-signal path: spectrum stages only, no signal-FFT stage.
        let shared = prep.prepare_signal(&signal).unwrap();
        let plain = prep.correlate_with_signal(&*shared, &signal);
        let before = tel.stage_totals();
        let traced = prep.correlate_with_signal_traced(&*shared, &signal, &tel);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let delta = tel.stage_totals().delta_since(&before);
        assert_eq!(delta.stage_calls(Stage::SignalFft), 0);
        assert_eq!(delta.stage_calls(Stage::SpectrumApply), 1);
        assert_eq!(delta.stage_calls(Stage::Inverse), 1);
        assert_eq!(delta.stage_calls(Stage::DacAdc), 1);

        // Round trip through the from-totals view preserves every stage.
        let times = StageTimes::from_totals(&delta);
        assert_eq!(times.signal_fft, Duration::ZERO);
        assert_eq!(
            times.total().as_nanos() as u64,
            delta.total_ns(),
            "view must cover all stages"
        );
    }
}
