//! Execution of 2D convolutions through tiled 1D convolutions.
//!
//! [`TiledConvolver`] drives a [`Conv1dEngine`] according to a
//! [`TilingPlan`]:
//!
//! * [`TiledConvolver::correlate2d_valid`] reproduces 2D `valid`
//!   cross-correlation **exactly** (the identity proved in Section III-A),
//! * [`TiledConvolver::correlate2d_same`] reproduces 2D `same`
//!   cross-correlation either approximately (the paper's default, with the
//!   documented *edge effect* at row boundaries) or exactly (with horizontal
//!   zero-padding, at the cost of longer tiles).
//!
//! # Throughput engineering
//!
//! The convolver is built for batch throughput, and its loops are grouped
//! **by input signal** rather than by kernel so that per-signal work is
//! shared:
//!
//! * the tiled kernel is prepared **once** per 2D convolution through
//!   [`Conv1dEngine::prepare_kernel`] and cached (keyed by the exact kernel
//!   bits and the tile length) so repeated convolutions with the same
//!   weights — every image of a batch — skip the per-kernel work entirely.
//!   Engines report [`Conv1dEngine::prepares_kernels`] so engines without a
//!   fast path never pay the cache-key hashing;
//! * the multi-kernel entry points
//!   ([`TiledConvolver::correlate2d_valid_multi`] /
//!   [`TiledConvolver::correlate2d_same_multi`]) correlate **each input
//!   tile against every kernel before moving to the next tile**: the tile
//!   is built once, and engines that support signal sharing
//!   ([`PreparedConv1d::prepare_signal`]) compute the tile's transform
//!   (for the JTC: its real-input half-spectrum) once and replay it against
//!   all N prepared kernel spectra — one spectrum-add plus one inverse
//!   transform per kernel instead of two transforms each. A CNN layer
//!   correlates each tile against up to `2 × out_channels` kernels, so this
//!   removes the dominant redundant signal FFTs of batched inference. On
//!   serial multi-kernel row tiling the tile transforms are additionally
//!   computed as **one batched pass**
//!   ([`PreparedConv1d::prepare_signal_batch`]): every tile of the image is
//!   packed planar and transformed in a single plan walk before the
//!   per-tile loop consumes the seeded cache;
//! * shared signal transforms live in a **per-call scratch cache** (capped
//!   at 1024 entries with wholesale eviction, the same pattern as the
//!   prepared-kernel cache); row
//!   partitioning also reuses one row partition's transform across all
//!   kernel rows that slide over it. Hits and misses are reported through
//!   [`ThroughputStats`];
//! * independent tiles/rows are dispatched across rayon worker threads with
//!   deterministic ordering (results are collected in tile order, and each
//!   tile is a pure function of its inputs), so the parallel output is
//!   bit-identical to the serial output. Engines that report
//!   [`Conv1dEngine::is_deterministic`] `== false` (optical sensing noise)
//!   are always driven serially so their noise streams stay reproducible;
//! * [`ThroughputStats`] (tiles, 1D convolutions, spectrum reuse, wall
//!   time) is exposed via the `*_with_stats` variants for the perf harness
//!   and the CI bench gate.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pf_dsp::conv::Matrix;
use pf_telemetry::{Counter, Stage, StageAcc, Stopwatch, Telemetry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::engine::{Conv1dEngine, PreparedConv1d, PreparedSignal};
use crate::error::TilingError;
use crate::plan::{TilingPlan, TilingVariant};
use crate::tiler::{fill_tile_rows, tile_input_rows, tile_kernel_rows};

/// How `same`-mode horizontal boundaries are handled (Section III-A, "Edge
/// effect").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EdgeHandling {
    /// The paper's default: rows are tiled without horizontal padding, so a
    /// kernel row that slides past the end of an input row picks up values
    /// from the beginning of the next row instead of zeros. Cheap, slightly
    /// approximate at the left/right image borders.
    #[default]
    Wraparound,
    /// Each input row is zero-padded horizontally before tiling, making the
    /// result identical to 2D `same` convolution at the cost of
    /// `kernel_cols - 1` extra elements per tiled row.
    ZeroPad,
}

/// Which grain of parallelism a tiled execution uses.
///
/// The tiling layer only ever parallelises over *tiles* — rows of one
/// image's joint plane. Batch callers (the facade `Session`, `pf-nn`'s
/// `TiledExecutor`) can instead parallelise over *images* and drive each
/// convolver serially. The two grains are bit-identical (every tile is a
/// pure function of its inputs and results are collected in input order);
/// they differ only in throughput, and the crossover depends on batch size
/// versus pool width — see `docs/PERFORMANCE.md`, "Reading the scaling
/// curves".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ParallelGrain {
    /// Pick per call: batch callers go image-grain when the batch alone can
    /// fill the pool (`images >= threads`), tile-grain otherwise; a lone
    /// convolver behaves like [`ParallelGrain::Tile`] gated by the engine's
    /// cost hint ([`Conv1dEngine::prefers_parallel_tiles`]).
    #[default]
    Auto,
    /// Parallelise across images of a batch; tiles within each image run
    /// serially. The right grain when the batch is at least as wide as the
    /// pool — no fork/join inside each image.
    Image,
    /// Parallelise across tiles within each image; images of a batch run
    /// serially. The right grain for small batches of large images, where
    /// image-grain work would leave most of the pool idle. Overrides the
    /// engine's cost hint (an explicit request), but never its determinism
    /// gate — stochastic engines always run serially.
    Tile,
}

impl ParallelGrain {
    /// Stable lower-case name, used in reports and on the `perf` CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ParallelGrain::Auto => "auto",
            ParallelGrain::Image => "image",
            ParallelGrain::Tile => "tile",
        }
    }

    /// Parses a lower-case name (inverse of [`ParallelGrain::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(ParallelGrain::Auto),
            "image" => Some(ParallelGrain::Image),
            "tile" => Some(ParallelGrain::Tile),
            _ => None,
        }
    }
}

impl std::fmt::Display for ParallelGrain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution statistics of one tiled 2D convolution (or one multi-kernel
/// convolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThroughputStats {
    /// Number of tiled 1D input vectors constructed.
    pub tiles: usize,
    /// Number of 1D convolutions executed on the backend.
    pub convs_1d: usize,
    /// 1D convolutions that consumed an already-computed shared signal
    /// transform instead of recomputing it. Best-effort under parallel
    /// dispatch (two workers may compute the same transform concurrently).
    pub spectrum_hits: usize,
    /// Shared signal transforms actually computed.
    pub spectrum_misses: usize,
    /// Wall-clock time of the whole 2D convolution.
    pub elapsed: Duration,
}

impl ThroughputStats {
    /// Wall time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Mean microseconds per 1D convolution (0 when no convolutions ran).
    pub fn micros_per_conv(&self) -> f64 {
        if self.convs_1d == 0 {
            return 0.0;
        }
        self.elapsed.as_secs_f64() * 1e6 / self.convs_1d as f64
    }

    /// Accumulates another stats record (summing tiles, convs, spectrum
    /// reuse and time).
    pub fn merge(&mut self, other: &ThroughputStats) {
        self.tiles += other.tiles;
        self.convs_1d += other.convs_1d;
        self.spectrum_hits += other.spectrum_hits;
        self.spectrum_misses += other.spectrum_misses;
        self.elapsed += other.elapsed;
    }
}

/// Cache key: exact bit pattern of the tiled kernel plus the tile length it
/// was prepared for.
type PrepKey = (usize, Vec<u64>);

type PrepMap = HashMap<PrepKey, Option<Arc<dyn PreparedConv1d>>>;

/// Position of one 1D signal within the current 2D convolution call:
/// (first input row, start column, end column). Within one call, equal keys
/// denote bit-identical signal content, so the key doubles as the shared
/// signal-transform cache key without hashing the samples themselves.
type SigKey = (isize, usize, usize);

/// The per-call shared signal-transform scratch: transforms keyed by signal
/// position, plus reuse counters surfaced through [`ThroughputStats`].
#[derive(Debug, Default)]
struct SignalScratch {
    map: HashMap<SigKey, Arc<dyn PreparedSignal>>,
    hits: usize,
    misses: usize,
}

/// One kernel's per-call 1D execution state: the tiled kernel vector and
/// (on engines with a fast path) its prepared form.
struct Kernel1d {
    tiled: Vec<f64>,
    prep: Option<Arc<dyn PreparedConv1d>>,
}

/// Executes 2D convolutions on a 1D convolution backend via row tiling.
#[derive(Debug)]
pub struct TiledConvolver<E> {
    engine: E,
    n_conv: usize,
    grain: ParallelGrain,
    /// Prepared kernels shared across clones (and therefore across a whole
    /// batch): `None` entries record that the engine declined to prepare.
    prep_cache: Arc<Mutex<PrepMap>>,
    /// Observability handle: disabled by default (zero-cost no-op path).
    /// When enabled, 1D convolutions run through the traced engine variants
    /// (which attribute per-stage time) and each 2D call flushes its
    /// [`ThroughputStats`] into `tiling.*` counters.
    telemetry: Telemetry,
    /// The `tiling.*` counter handles, resolved once when the telemetry
    /// handle is attached: the per-2D-call flush must not pay five
    /// name-lookup allocations.
    counters: TilingCounters,
}

/// Cached handles for the `tiling.*` counters (all no-ops when built from
/// a disabled handle).
#[derive(Clone, Debug, Default)]
struct TilingCounters {
    tiles: Counter,
    convs_1d: Counter,
    spectrum_hits: Counter,
    spectrum_misses: Counter,
    conv2d_calls: Counter,
    kernels_prepared: Counter,
}

impl TilingCounters {
    fn new(tel: &Telemetry) -> Self {
        Self {
            tiles: tel.counter("tiling.tiles"),
            convs_1d: tel.counter("tiling.convs_1d"),
            spectrum_hits: tel.counter("tiling.spectrum_hits"),
            spectrum_misses: tel.counter("tiling.spectrum_misses"),
            conv2d_calls: tel.counter("tiling.conv2d_calls"),
            kernels_prepared: tel.counter("tiling.kernels_prepared"),
        }
    }
}

impl<E: Clone> Clone for TiledConvolver<E> {
    fn clone(&self) -> Self {
        Self {
            engine: self.engine.clone(),
            n_conv: self.n_conv,
            grain: self.grain,
            prep_cache: Arc::clone(&self.prep_cache),
            telemetry: self.telemetry.clone(),
            counters: self.counters.clone(),
        }
    }
}

impl<E: Conv1dEngine> TiledConvolver<E> {
    /// Creates a convolver for a backend with 1D capacity `n_conv`
    /// (the number of input waveguides of a PFCU). Parallel tile dispatch
    /// is enabled by default; see [`TiledConvolver::with_parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::CapacityTooSmall`] if `n_conv` is zero or
    /// exceeds the backend's own maximum signal length.
    pub fn new(engine: E, n_conv: usize) -> Result<Self, TilingError> {
        if n_conv == 0 {
            return Err(TilingError::CapacityTooSmall {
                n_conv,
                required: 1,
            });
        }
        if let Some(max) = engine.max_signal_len() {
            if n_conv > max {
                return Err(TilingError::CapacityTooSmall {
                    n_conv: max,
                    required: n_conv,
                });
            }
        }
        Ok(Self {
            engine,
            n_conv,
            grain: ParallelGrain::Auto,
            prep_cache: Arc::new(Mutex::new(HashMap::new())),
            telemetry: Telemetry::disabled(),
            counters: TilingCounters::default(),
        })
    }

    /// Attaches a telemetry handle. With a disabled handle (the default)
    /// execution is byte-for-byte the untraced path; with an enabled handle
    /// 1D convolutions report per-stage time and each 2D call flushes its
    /// [`ThroughputStats`] into the `tiling.*` counters. Results are
    /// bit-identical either way — tracing observes, never perturbs.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// Replaces the telemetry handle in place (for already-built convolvers).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.counters = TilingCounters::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enables or disables parallel tile dispatch. The results are
    /// bit-identical either way; disabling is useful to avoid nested
    /// parallelism when the caller already parallelises at a coarser grain
    /// (e.g. per image of a batch). Sugar for [`TiledConvolver::with_grain`]
    /// with [`ParallelGrain::Auto`] / [`ParallelGrain::Image`].
    pub fn with_parallel(self, parallel: bool) -> Self {
        self.with_grain(if parallel {
            ParallelGrain::Auto
        } else {
            ParallelGrain::Image
        })
    }

    /// Sets the parallelism grain. At the convolver level
    /// [`ParallelGrain::Image`] means "serial tiles — my caller owns the
    /// threads", [`ParallelGrain::Tile`] forces tile dispatch even on
    /// engines whose cost hint declines it, and [`ParallelGrain::Auto`]
    /// (the default) leaves the decision to the engine's hint. All grains
    /// produce bit-identical results.
    pub fn with_grain(mut self, grain: ParallelGrain) -> Self {
        self.grain = grain;
        self
    }

    /// The configured parallelism grain.
    pub fn grain(&self) -> ParallelGrain {
        self.grain
    }

    /// Whether parallel tile dispatch is enabled.
    pub fn parallel(&self) -> bool {
        self.grain != ParallelGrain::Image
    }

    /// The configured 1D capacity.
    pub fn n_conv(&self) -> usize {
        self.n_conv
    }

    /// A reference to the underlying backend.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// A convolver driving `engine` with this one's capacity, grain,
    /// telemetry and **prepared-kernel cache** (the same `Arc`, not a
    /// copy). Every prepared correlation goes through
    /// [`Conv1dEngine::run_prepared`] of the engine that runs it, so
    /// engines that differ only in per-call state — a stochastic engine
    /// reseeded per request — share one set of prepared kernels, each
    /// drawing its own noise. `engine` must prepare exactly what this
    /// convolver's engine prepares (same configuration); the cache is keyed
    /// by kernel and tile length only.
    pub fn with_engine<F: Conv1dEngine>(&self, engine: F) -> TiledConvolver<F> {
        TiledConvolver {
            engine,
            n_conv: self.n_conv,
            grain: self.grain,
            prep_cache: Arc::clone(&self.prep_cache),
            telemetry: self.telemetry.clone(),
            counters: self.counters.clone(),
        }
    }

    /// Builds the tiling plan this convolver would use for the given shapes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`].
    pub fn plan(&self, input: &Matrix, kernel: &Matrix) -> Result<TilingPlan, TilingError> {
        TilingPlan::new(
            input.rows(),
            input.cols(),
            kernel.rows(),
            kernel.cols(),
            self.n_conv,
        )
    }

    /// 2D `valid` cross-correlation computed through tiled 1D convolutions.
    ///
    /// The result is bit-identical (up to backend numerics) to
    /// [`pf_dsp::conv::correlate2d`] with [`pf_dsp::conv::PaddingMode::Valid`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`].
    pub fn correlate2d_valid(
        &self,
        input: &Matrix,
        kernel: &Matrix,
    ) -> Result<Matrix, TilingError> {
        Ok(self.correlate2d_valid_with_stats(input, kernel)?.0)
    }

    /// Like [`TiledConvolver::correlate2d_valid`], additionally returning
    /// the execution statistics of this convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`].
    pub fn correlate2d_valid_with_stats(
        &self,
        input: &Matrix,
        kernel: &Matrix,
    ) -> Result<(Matrix, ThroughputStats), TilingError> {
        let (mut outs, stats) =
            self.correlate2d_valid_multi_with_stats(input, std::slice::from_ref(kernel))?;
        Ok((outs.pop().expect("one kernel in, one plane out"), stats))
    }

    /// Correlates one input against **many kernels of one shape**, grouped
    /// by input tile: each tile is built (and, on engines with signal
    /// sharing, transformed) once and applied against every kernel. On
    /// deterministic engines the k-th output plane is bit-identical to
    /// `self.correlate2d_valid(input, &kernels[k])`; on stochastic engines
    /// (sensing noise) the noise stream is consumed tile-by-tile across the
    /// kernel set rather than kernel-by-kernel, so the planes are drawn
    /// from the same distribution but are not bitwise equal to sequential
    /// per-kernel calls (the multi call itself replays deterministically
    /// under a fixed seed).
    ///
    /// An empty kernel slice yields an empty result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`], plus
    /// [`TilingError::MismatchedKernels`] if the kernels differ in shape.
    pub fn correlate2d_valid_multi(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
    ) -> Result<Vec<Matrix>, TilingError> {
        Ok(self.correlate2d_valid_multi_with_stats(input, kernels)?.0)
    }

    /// Like [`TiledConvolver::correlate2d_valid_multi`], additionally
    /// returning the execution statistics of the whole multi-kernel
    /// convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TiledConvolver::correlate2d_valid_multi`].
    pub fn correlate2d_valid_multi_with_stats(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
    ) -> Result<(Vec<Matrix>, ThroughputStats), TilingError> {
        let start = Instant::now();
        let Some(first) = kernels.first() else {
            return Ok((Vec::new(), ThroughputStats::default()));
        };
        check_kernel_shapes(kernels)?;
        let plan = self.plan(input, first)?;
        let out_rows = input.rows() - first.rows() + 1;
        let out_cols = input.cols() - first.cols() + 1;
        let mut outs: Vec<Matrix> = (0..kernels.len())
            .map(|_| Matrix::zeros(out_rows, out_cols))
            .collect();
        let scratch = Mutex::new(SignalScratch::default());

        let (tiles, convs) = match plan.variant {
            TilingVariant::RowTiling => {
                self.valid_by_row_tiling(input, kernels, &plan, &scratch, &mut outs)
            }
            TilingVariant::PartialRowTiling => {
                self.valid_by_partial_tiling(input, kernels, &plan, &scratch, &mut outs)
            }
            TilingVariant::RowPartitioning => {
                self.valid_by_partitioning(input, kernels, &scratch, &mut outs)
            }
        };
        let stats = finish_stats(start, tiles, convs, scratch);
        self.record_throughput(&stats);
        Ok((outs, stats))
    }

    /// 2D `same` cross-correlation (output has the input's shape) computed
    /// through tiled 1D convolutions.
    ///
    /// With [`EdgeHandling::ZeroPad`] the result equals the digital reference
    /// exactly; with [`EdgeHandling::Wraparound`] the left/right image
    /// borders differ slightly (the paper's edge effect), which is what the
    /// Table I accuracy evaluation quantifies.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TilingPlan::new`]. With `ZeroPad` the padded row
    /// length must still fit the 1D capacity.
    pub fn correlate2d_same(
        &self,
        input: &Matrix,
        kernel: &Matrix,
        edges: EdgeHandling,
    ) -> Result<Matrix, TilingError> {
        Ok(self.correlate2d_same_with_stats(input, kernel, edges)?.0)
    }

    /// Like [`TiledConvolver::correlate2d_same`], additionally returning the
    /// execution statistics of this convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TiledConvolver::correlate2d_same`].
    pub fn correlate2d_same_with_stats(
        &self,
        input: &Matrix,
        kernel: &Matrix,
        edges: EdgeHandling,
    ) -> Result<(Matrix, ThroughputStats), TilingError> {
        let (mut outs, stats) =
            self.correlate2d_same_multi_with_stats(input, std::slice::from_ref(kernel), edges)?;
        Ok((outs.pop().expect("one kernel in, one plane out"), stats))
    }

    /// `same`-mode counterpart of
    /// [`TiledConvolver::correlate2d_valid_multi`]: one input against many
    /// kernels of one shape, grouped by input tile. On deterministic
    /// engines the k-th output plane is bit-identical to
    /// `self.correlate2d_same(input, &kernels[k], edges)`; stochastic
    /// engines consume their noise stream in the tile-grouped order (see
    /// [`TiledConvolver::correlate2d_valid_multi`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TiledConvolver::correlate2d_same`], plus
    /// [`TilingError::MismatchedKernels`] if the kernels differ in shape.
    pub fn correlate2d_same_multi(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        edges: EdgeHandling,
    ) -> Result<Vec<Matrix>, TilingError> {
        Ok(self
            .correlate2d_same_multi_with_stats(input, kernels, edges)?
            .0)
    }

    /// Like [`TiledConvolver::correlate2d_same_multi`], additionally
    /// returning the execution statistics of the whole multi-kernel
    /// convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TiledConvolver::correlate2d_same_multi`].
    pub fn correlate2d_same_multi_with_stats(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        edges: EdgeHandling,
    ) -> Result<(Vec<Matrix>, ThroughputStats), TilingError> {
        let start = Instant::now();
        let Some(first) = kernels.first() else {
            return Ok((Vec::new(), ThroughputStats::default()));
        };
        check_kernel_shapes(kernels)?;
        let working = match edges {
            EdgeHandling::Wraparound => input.clone(),
            EdgeHandling::ZeroPad => pad_columns(input, (first.cols() - 1) / 2, first.cols() / 2),
        };
        let plan = TilingPlan::new(
            working.rows(),
            working.cols(),
            first.rows(),
            first.cols(),
            self.n_conv,
        )?;

        let pr = (first.rows() - 1) / 2;
        let pc = (first.cols() - 1) / 2;
        let mut outs: Vec<Matrix> = (0..kernels.len())
            .map(|_| Matrix::zeros(input.rows(), input.cols()))
            .collect();
        let scratch = Mutex::new(SignalScratch::default());

        let (tiles, convs) = match plan.variant {
            TilingVariant::RowTiling => self
                .same_by_row_tiling(&working, kernels, &plan, pr, pc, edges, &scratch, &mut outs),
            _ => {
                // For the partial/partitioned variants the per-row splitting
                // below is already exact row-by-row, so reuse it.
                self.same_by_row_accumulation(
                    &working, kernels, &plan, pr, pc, edges, &scratch, &mut outs,
                )
            }
        };
        let stats = finish_stats(start, tiles, convs, scratch);
        self.record_throughput(&stats);
        Ok((outs, stats))
    }

    /// Flushes one 2D call's [`ThroughputStats`] into the `tiling.*`
    /// counters. Batched per call (not per tile) so the hot loop stays
    /// untouched; a no-op when telemetry is disabled.
    fn record_throughput(&self, stats: &ThroughputStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.counters.tiles.add(stats.tiles as u64);
        self.counters.convs_1d.add(stats.convs_1d as u64);
        self.counters.spectrum_hits.add(stats.spectrum_hits as u64);
        self.counters
            .spectrum_misses
            .add(stats.spectrum_misses as u64);
        self.counters.conv2d_calls.inc();
    }

    // ----- shared machinery ------------------------------------------------

    /// Prepared-kernel cache size cap. A CNN batch touches a few hundred
    /// distinct (kernel, tile length) pairs at most; a workload streaming
    /// unbounded distinct kernels (template matching) would otherwise grow
    /// the map forever, so the cache resets wholesale at the cap — crude,
    /// but fixed-kernel workloads never hit it and preparation is cheap to
    /// redo.
    const PREP_CACHE_CAP: usize = 1024;

    /// Shared signal-transform scratch cap, mirroring
    /// [`TiledConvolver::PREP_CACHE_CAP`]'s wholesale-eviction pattern. The
    /// scratch lives for one 2D convolution call; a huge input convolved
    /// under row partitioning could otherwise accumulate one transform per
    /// (row, partition) pair for the whole call.
    const SPECTRUM_CACHE_CAP: usize = 1024;

    /// Stage attribution measures one convolution in this many (scaled
    /// back up at flush; see `extrapolate_ns`). Within one tile or kernel
    /// set every convolution runs the identical stage sequence on
    /// identical geometry, so a strided sample reconstructs the split at a
    /// quarter of the clock-read cost — what keeps traced runs inside the
    /// CI overhead budget.
    const STAGE_SAMPLE_STRIDE: usize = 4;

    /// Scales a sampled per-stage split up to `total` convolutions.
    fn extrapolate_ns(ns: [u64; Stage::COUNT], total: u64, sampled: u64) -> [u64; Stage::COUNT] {
        if sampled == 0 || sampled >= total {
            return ns;
        }
        ns.map(|v| ((v as u128 * total as u128) / sampled as u128) as u64)
    }

    /// Looks up (or builds) the prepared form of `kernel` for tiles of
    /// `signal_len` samples. `None` means the engine has no fast path.
    fn prepared(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        if !self.engine.prepares_kernels() {
            // Building and hashing the bit-pattern key costs more than a
            // short dot product; engines without a fast path skip it.
            return None;
        }
        let key: PrepKey = (signal_len, kernel.iter().map(|v| v.to_bits()).collect());
        if let Some(entry) = self.prep_cache.lock().get(&key) {
            return entry.clone();
        }
        // Build outside the lock: preparation may run an FFT.
        let prep = self.engine.prepare_kernel(kernel, signal_len);
        self.counters.kernels_prepared.inc();
        let mut cache = self.prep_cache.lock();
        if cache.len() >= Self::PREP_CACHE_CAP {
            cache.clear();
        }
        cache.entry(key).or_insert_with(|| prep.clone());
        prep
    }

    /// Builds the per-call execution state of one kernel.
    fn kernel1d(&self, tiled: Vec<f64>, signal_len: usize) -> Kernel1d {
        let prep = self.prepared(&tiled, signal_len);
        Kernel1d { tiled, prep }
    }

    /// Runs `f` — a batched shared-transform preparation — attributing its
    /// wall time to the `signal_fft` stage when telemetry is enabled.
    /// Without this (and the equivalent mark in `apply_kernel_set`) a
    /// traced shared run would show no signal-FFT time at all: the shared
    /// path computes its transforms only at the prepare sites. The
    /// preparation also includes the input-DAC quantisation of the
    /// signals; that sliver rides along into `signal_fft` rather than
    /// `dac_adc` (the transform dominates).
    fn attribute_signal_fft<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.telemetry.is_enabled() {
            return f();
        }
        let mut sw = Stopwatch::start();
        let out = f();
        let mut ns = [0u64; Stage::COUNT];
        ns[Stage::SignalFft.index()] = sw.lap_ns();
        self.telemetry.stage_add_ns(ns);
        out
    }

    /// Runs one 1D convolution through the prepared fast path when
    /// available, falling back to the engine. `acc` (present exactly when
    /// telemetry is enabled) collects the per-stage split; the caller owns
    /// it across its tile loop and flushes once.
    fn run1d(
        &self,
        prep: Option<&Arc<dyn PreparedConv1d>>,
        signal: &[f64],
        kernel: &[f64],
        acc: Option<&mut StageAcc>,
    ) -> Vec<f64> {
        match prep {
            Some(p) => self.engine.run_prepared(&**p, None, signal, acc),
            None => self.engine.correlate_valid(signal, kernel),
        }
    }

    /// Correlates one signal against a whole kernel set, sharing the
    /// signal's transform across every kernel that supports it.
    ///
    /// `share` additionally enables the per-call scratch cache lookup; it is
    /// off for single-kernel row tiling, where tile positions never repeat
    /// and the shared path would only add copies.
    fn apply_kernel_set(
        &self,
        scratch: &Mutex<SignalScratch>,
        key: SigKey,
        signal: &[f64],
        kernels: &[Kernel1d],
        share: bool,
    ) -> Vec<Vec<f64>> {
        let share_key = if share {
            kernels
                .iter()
                .find_map(|k| k.prep.as_ref().and_then(|p| p.signal_key()))
        } else {
            None
        };

        // Two set-local accumulators, one registry flush at the end: `acc`
        // collects exact marks (the shared-transform preparation, fallback
        // convolutions), `conv_acc` collects the strided consumer-conv
        // sample that `extrapolate_ns` scales back up to the full set.
        let enabled = self.telemetry.is_enabled();
        let mut acc = enabled.then(StageAcc::start);
        let mut conv_acc = enabled.then(StageAcc::start);

        let mut shared: Option<Arc<dyn PreparedSignal>> = None;
        let mut computed_here = false;
        if let Some(sk) = share_key {
            shared = scratch.lock().map.get(&key).cloned();
            if shared.is_none() {
                let producer = kernels
                    .iter()
                    .find(|k| k.prep.as_ref().is_some_and(|p| p.signal_key() == Some(sk)))
                    .and_then(|k| k.prep.as_ref());
                // Compute outside the lock: this is the signal FFT. The
                // preparation includes the input-DAC quantisation of the
                // signal; that sliver rides into `signal_fft` (the
                // transform dominates, and splitting it out would cost an
                // extra clock read per tile).
                if let Some(sig) = producer.and_then(|p| p.prepare_signal(signal)) {
                    if let Some(acc) = acc.as_mut() {
                        acc.mark(Stage::SignalFft);
                    }
                    computed_here = true;
                    let mut guard = scratch.lock();
                    if guard.map.len() >= Self::SPECTRUM_CACHE_CAP {
                        guard.map.clear();
                    }
                    guard.map.insert(key, Arc::clone(&sig));
                    shared = Some(sig);
                }
            }
        }

        let mut consumers = 0usize;
        let mut sampled = 0u64;
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(kernels.len());
        for k in kernels {
            if let (Some(sig), Some(prep)) = (&shared, k.prep.as_ref()) {
                if prep.signal_key() == share_key {
                    let measure = consumers.is_multiple_of(Self::STAGE_SAMPLE_STRIDE);
                    consumers += 1;
                    let conv = match conv_acc.as_mut() {
                        Some(conv) if measure => {
                            sampled += 1;
                            conv.skip();
                            Some(conv)
                        }
                        _ => None,
                    };
                    out.push(
                        self.engine
                            .run_prepared(&**prep, Some(&**sig), signal, conv),
                    );
                    continue;
                }
            }
            out.push(match acc.as_mut() {
                Some(acc) => {
                    acc.skip();
                    self.run1d(k.prep.as_ref(), signal, &k.tiled, Some(acc))
                }
                None => self.run1d(k.prep.as_ref(), signal, &k.tiled, None),
            });
        }
        if let (Some(acc), Some(conv)) = (acc.as_mut(), conv_acc.as_mut()) {
            let mut ns = acc.ns();
            let scaled = Self::extrapolate_ns(conv.ns(), consumers as u64, sampled);
            for (n, s) in ns.iter_mut().zip(scaled) {
                *n += s;
            }
            self.telemetry.stage_add_ns(ns);
        }

        if consumers > 0 {
            let mut guard = scratch.lock();
            if computed_here {
                guard.misses += 1;
                guard.hits += consumers - 1;
            } else {
                guard.hits += consumers;
            }
        }
        out
    }

    /// Seeds the shared-signal scratch from a **batched** transform pass:
    /// all tile signals are packed planar (`keys.len()` rows, back to back
    /// in `signals`) and handed to the producing kernel's
    /// [`PreparedConv1d::prepare_signal_batch`], which engines with a
    /// batched transform kernel run as one stage walk across every row.
    /// The per-tile loop that follows then finds each transform already
    /// cached.
    ///
    /// Each seeded transform is bit-identical to what the per-tile path
    /// would have computed (the trait contract), so consuming code needs no
    /// changes and results are unchanged bit for bit. Counters: one miss
    /// per transform seeded here; every consumption downstream is a hit.
    fn seed_shared_signals(
        &self,
        scratch: &Mutex<SignalScratch>,
        kernels: &[Kernel1d],
        keys: &[SigKey],
        signals: &[f64],
    ) {
        let Some(producer) = kernels
            .iter()
            .find(|k| k.prep.as_ref().is_some_and(|p| p.signal_key().is_some()))
            .and_then(|k| k.prep.as_ref())
        else {
            return;
        };
        let Some(transforms) =
            self.attribute_signal_fft(|| producer.prepare_signal_batch(signals, keys.len()))
        else {
            return;
        };
        let mut guard = scratch.lock();
        for (key, sig) in keys.iter().zip(transforms) {
            if guard.map.len() >= Self::SPECTRUM_CACHE_CAP {
                guard.map.clear();
            }
            guard.map.insert(*key, sig);
            guard.misses += 1;
        }
    }

    /// Whether this call would actually fan work out across threads.
    fn parallel_active(&self, items: usize) -> bool {
        // Three gates: the configured grain, determinism (noise streams
        // must keep their serial order), and — under `Auto` — the engine's
        // own cost hint: the vendored rayon spawns scoped threads per call,
        // so parallelising memory-bound dot-product tiles would lose
        // outright. An explicit `Tile` grain overrides the cost hint (the
        // caller asked to measure exactly that), never the determinism gate.
        let grain_allows = match self.grain {
            ParallelGrain::Image => false,
            ParallelGrain::Tile => true,
            ParallelGrain::Auto => self.engine.prefers_parallel_tiles(),
        };
        grain_allows && items > 1 && self.engine.is_deterministic()
    }

    /// Maps `f` over `items`, in parallel when the engine allows it.
    /// Results are always collected in input order, so the parallel path is
    /// indistinguishable from the serial one.
    fn dispatch<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.parallel_active(items.len()) {
            items.par_iter().map(f).collect()
        } else {
            items.iter().map(f).collect()
        }
    }

    // ----- valid-mode implementations ------------------------------------

    fn valid_by_row_tiling(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        plan: &TilingPlan,
        scratch: &Mutex<SignalScratch>,
        outs: &mut [Matrix],
    ) -> (usize, usize) {
        let si = input.cols();
        let n_or = plan.valid_output_rows_per_conv;
        let tile_len = plan.rows_per_tile * si;
        let ks: Vec<Kernel1d> = kernels
            .iter()
            .map(|k| {
                self.kernel1d(
                    tile_kernel_rows(k, 0, k.rows(), si, plan.tiled_kernel_len()),
                    tile_len,
                )
            })
            .collect();
        // Tile positions never repeat within a call, so the scratch cache
        // only pays off when several kernels share one tile transform.
        let share = kernels.len() > 1;

        let starts: Vec<usize> = (0..outs[0].rows()).step_by(n_or).collect();
        let write = |out: &mut Matrix, r0: usize, corr: &[f64]| {
            let (rows, cols) = (out.rows(), out.cols());
            for rr in 0..n_or {
                let out_r = r0 + rr;
                if out_r >= rows {
                    break;
                }
                out.row_mut(out_r)
                    .copy_from_slice(&corr[rr * si..rr * si + cols]);
            }
        };

        if self.parallel_active(starts.len()) {
            let corrs = self.dispatch(&starts, |&r0| {
                let tiled_input =
                    tile_input_rows(input, r0 as isize, plan.rows_per_tile, self.n_conv);
                self.apply_kernel_set(
                    scratch,
                    (r0 as isize, 0, tile_len),
                    &tiled_input[..tile_len],
                    &ks,
                    share,
                )
            });
            for (per_kernel, &r0) in corrs.iter().zip(&starts) {
                for (out, corr) in outs.iter_mut().zip(per_kernel) {
                    write(out, r0, corr);
                }
            }
        } else {
            // Serial fast path: one tile buffer reused across every tile,
            // results written back immediately (no intermediate collection;
            // the single-kernel case additionally skips the per-kernel
            // result vector entirely).
            let mut buf = vec![0.0; self.n_conv];
            if share && starts.len() <= Self::SPECTRUM_CACHE_CAP {
                // Batched pre-pass: pack every tile planar and transform
                // the whole batch in one plan walk; the loop below hits
                // the seeded cache tile by tile.
                let mut signals = Vec::with_capacity(starts.len() * tile_len);
                let keys: Vec<SigKey> = starts
                    .iter()
                    .map(|&r0| {
                        fill_tile_rows(&mut buf, input, r0 as isize, plan.rows_per_tile);
                        signals.extend_from_slice(&buf[..tile_len]);
                        (r0 as isize, 0, tile_len)
                    })
                    .collect();
                self.seed_shared_signals(scratch, &ks, &keys, &signals);
            }
            // Single accumulator across the tile loop with the same
            // strided sampling as the kernel-set path (which flushes
            // inside `apply_kernel_set`); the `skip` drops tile refills
            // and result write-back from the next mark.
            let mut acc = self.telemetry.is_enabled().then(StageAcc::start);
            let (mut tiles, mut sampled) = (0u64, 0u64);
            for (i, &r0) in starts.iter().enumerate() {
                fill_tile_rows(&mut buf, input, r0 as isize, plan.rows_per_tile);
                let signal = &buf[..tile_len];
                if ks.len() == 1 && !share {
                    tiles += 1;
                    let corr = match acc.as_mut() {
                        Some(acc) if i.is_multiple_of(Self::STAGE_SAMPLE_STRIDE) => {
                            sampled += 1;
                            acc.skip();
                            self.run1d(ks[0].prep.as_ref(), signal, &ks[0].tiled, Some(acc))
                        }
                        _ => self.run1d(ks[0].prep.as_ref(), signal, &ks[0].tiled, None),
                    };
                    write(&mut outs[0], r0, &corr);
                } else {
                    let per_kernel = self.apply_kernel_set(
                        scratch,
                        (r0 as isize, 0, tile_len),
                        signal,
                        &ks,
                        share,
                    );
                    for (out, corr) in outs.iter_mut().zip(&per_kernel) {
                        write(out, r0, corr);
                    }
                }
            }
            if let Some(acc) = acc.as_mut() {
                self.telemetry
                    .stage_add_ns(Self::extrapolate_ns(acc.ns(), tiles, sampled));
            }
        }
        (starts.len(), starts.len() * kernels.len())
    }

    fn valid_by_partial_tiling(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        plan: &TilingPlan,
        scratch: &Mutex<SignalScratch>,
        outs: &mut [Matrix],
    ) -> (usize, usize) {
        // One output row at a time; kernel rows are processed in groups of
        // `rows_per_tile` and their contributions accumulated (Section
        // III-B). The per-group tiled kernels are prepared once, up front;
        // consecutive output rows revisit the same input-row windows, so
        // the shared-signal scratch is active even for a single kernel.
        let si = input.cols();
        let n_ir = plan.rows_per_tile.max(1);
        let mut groups: Vec<(usize, usize, Vec<Kernel1d>)> = Vec::new();
        let mut k_start = 0;
        while k_start < kernels[0].rows() {
            let count = n_ir.min(kernels[0].rows() - k_start);
            let ks: Vec<Kernel1d> = kernels
                .iter()
                .map(|k| {
                    self.kernel1d(
                        tile_kernel_rows(k, k_start, count, si, (count - 1) * si + k.cols()),
                        count * si,
                    )
                })
                .collect();
            groups.push((k_start, count, ks));
            k_start += count;
        }

        let rows: Vec<usize> = (0..outs[0].rows()).collect();
        let out_cols = outs[0].cols();
        let accs = self.dispatch(&rows, |&out_r| {
            let mut acc = vec![vec![0.0; out_cols]; kernels.len()];
            for (k_start, count, ks) in &groups {
                let tiled_input =
                    tile_input_rows(input, (out_r + k_start) as isize, *count, self.n_conv);
                let sig = &tiled_input[..count * si];
                let key = ((out_r + k_start) as isize, 0, count * si);
                let per_kernel = self.apply_kernel_set(scratch, key, sig, ks, true);
                for (acc_k, corr) in acc.iter_mut().zip(&per_kernel) {
                    for (c, a) in acc_k.iter_mut().enumerate() {
                        *a += corr[c];
                    }
                }
            }
            acc
        });
        for (acc, &out_r) in accs.iter().zip(&rows) {
            for (out, acc_k) in outs.iter_mut().zip(acc) {
                out.row_mut(out_r).copy_from_slice(acc_k);
            }
        }
        let n = rows.len() * groups.len();
        (n, n * kernels.len())
    }

    fn valid_by_partitioning(
        &self,
        input: &Matrix,
        kernels: &[Matrix],
        scratch: &Mutex<SignalScratch>,
        outs: &mut [Matrix],
    ) -> (usize, usize) {
        // Overlap-save over columns: each kernel row is correlated with
        // partitions of the matching input row and results accumulated
        // (Section III-C). Every row shares the same column partitioning,
        // so the partition list and the per-(kernel, kernel row, partition)
        // prepared kernels are hoisted out of the dispatch loop. One input
        // row partition is slid over by *every* kernel row of *every*
        // kernel, so its shared transform is computed once and replayed
        // `kernels × kernel_rows` times through the scratch cache.
        let kernel_rows = kernels[0].rows();
        let kernel_cols = kernels[0].cols();
        let step = self.n_conv - kernel_cols + 1;
        let rows: Vec<usize> = (0..outs[0].rows()).collect();
        let out_cols = outs[0].cols();
        let parts = column_partitions(out_cols, input.cols(), self.n_conv, step);
        // sets[dr][p] is the kernel set correlated against partition p of
        // input row `out_r + dr`.
        let sets: Vec<Vec<Vec<Kernel1d>>> = (0..kernel_rows)
            .map(|dr| {
                parts
                    .iter()
                    .map(|&(s, e)| {
                        kernels
                            .iter()
                            .map(|k| self.kernel1d(k.row(dr).to_vec(), e - s))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let accs = self.dispatch(&rows, |&out_r| {
            let mut acc = vec![vec![0.0; out_cols]; kernels.len()];
            for (dr, row_sets) in sets.iter().enumerate() {
                let row = input.row(out_r + dr);
                for (p, &(start, end)) in parts.iter().enumerate() {
                    let key = ((out_r + dr) as isize, start, end);
                    let per_kernel =
                        self.apply_kernel_set(scratch, key, &row[start..end], &row_sets[p], true);
                    for (acc_k, corr) in acc.iter_mut().zip(&per_kernel) {
                        for (i, v) in corr.iter().enumerate() {
                            if start + i < out_cols {
                                acc_k[start + i] += v;
                            }
                        }
                    }
                }
            }
            acc
        });
        for (acc, &out_r) in accs.iter().zip(&rows) {
            for (out, acc_k) in outs.iter_mut().zip(acc) {
                out.row_mut(out_r).copy_from_slice(acc_k);
            }
        }
        // Row partitioning slices rows in place: no tiled vectors built.
        (0, rows.len() * kernel_rows * parts.len() * kernels.len())
    }

    // ----- same-mode implementations --------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn same_by_row_tiling(
        &self,
        working: &Matrix,
        kernels: &[Matrix],
        plan: &TilingPlan,
        pr: usize,
        pc: usize,
        edges: EdgeHandling,
        scratch: &Mutex<SignalScratch>,
        outs: &mut [Matrix],
    ) -> (usize, usize) {
        let si = working.cols();
        let n_or = plan.valid_output_rows_per_conv;
        let tile_len = plan.rows_per_tile * si;
        let ks: Vec<Kernel1d> = kernels
            .iter()
            .map(|k| {
                self.kernel1d(
                    tile_kernel_rows(k, 0, k.rows(), si, plan.tiled_kernel_len()),
                    tile_len,
                )
            })
            .collect();
        let share = kernels.len() > 1;

        let starts: Vec<usize> = (0..outs[0].rows()).step_by(n_or).collect();
        let write = |outs: &mut [Matrix], r0: usize, per_kernel: &[Vec<f64>]| {
            for ((out, corr), kernel) in outs.iter_mut().zip(per_kernel).zip(kernels) {
                for rr in 0..n_or {
                    let out_r = r0 + rr;
                    if out_r >= out.rows() {
                        break;
                    }
                    for c in 0..out.cols() {
                        // Window top-left column in `working` coordinates.
                        let wc = match edges {
                            EdgeHandling::Wraparound => c as isize - pc as isize,
                            EdgeHandling::ZeroPad => c as isize, // already padded left by pc
                        };
                        let p = rr as isize * si as isize + wc;
                        let value = if p >= 0 && (p as usize) < corr.len() {
                            corr[p as usize]
                        } else {
                            // The window starts before this tile (left border
                            // of the tile's first output row) or runs past
                            // its end (right border of its last output row).
                            // In hardware these samples come from the
                            // neighbouring tile's output; reproduce them
                            // exactly with a direct dot product so the only
                            // approximation left is the genuine wraparound
                            // edge effect.
                            window_dot(working, kernel, out_r as isize - pr as isize, wc)
                        };
                        out.set(out_r, c, value);
                    }
                }
            }
        };

        if self.parallel_active(starts.len()) {
            let corrs = self.dispatch(&starts, |&r0| {
                let tile_start = r0 as isize - pr as isize;
                let tiled_input =
                    tile_input_rows(working, tile_start, plan.rows_per_tile, self.n_conv);
                self.apply_kernel_set(
                    scratch,
                    (tile_start, 0, tile_len),
                    &tiled_input[..tile_len],
                    &ks,
                    share,
                )
            });
            for (per_kernel, &r0) in corrs.iter().zip(&starts) {
                write(outs, r0, per_kernel);
            }
        } else {
            let mut buf = vec![0.0; self.n_conv];
            if share && starts.len() <= Self::SPECTRUM_CACHE_CAP {
                // Same batched pre-pass as the valid path.
                let mut signals = Vec::with_capacity(starts.len() * tile_len);
                let keys: Vec<SigKey> = starts
                    .iter()
                    .map(|&r0| {
                        let tile_start = r0 as isize - pr as isize;
                        fill_tile_rows(&mut buf, working, tile_start, plan.rows_per_tile);
                        signals.extend_from_slice(&buf[..tile_len]);
                        (tile_start, 0, tile_len)
                    })
                    .collect();
                self.seed_shared_signals(scratch, &ks, &keys, &signals);
            }
            for &r0 in &starts {
                let tile_start = r0 as isize - pr as isize;
                fill_tile_rows(&mut buf, working, tile_start, plan.rows_per_tile);
                let per_kernel = self.apply_kernel_set(
                    scratch,
                    (tile_start, 0, tile_len),
                    &buf[..tile_len],
                    &ks,
                    share,
                );
                write(outs, r0, &per_kernel);
            }
        }
        (starts.len(), starts.len() * kernels.len())
    }

    #[allow(clippy::too_many_arguments)]
    fn same_by_row_accumulation(
        &self,
        working: &Matrix,
        kernels: &[Matrix],
        plan: &TilingPlan,
        pr: usize,
        pc: usize,
        edges: EdgeHandling,
        scratch: &Mutex<SignalScratch>,
        outs: &mut [Matrix],
    ) -> (usize, usize) {
        // Valid-style execution row by row with vertical zero rows; identical
        // maths to the partial/partitioned valid paths but with offset rows.
        let si = working.cols();
        let n_ir = plan.rows_per_tile.max(1);
        let rows: Vec<usize> = (0..outs[0].rows()).collect();
        let out_cols = outs[0].cols();
        let kernel_rows = kernels[0].rows();

        let mut tiles = 0usize;
        let mut convs = 0usize;
        let accs: Vec<Vec<Vec<f64>>> = if plan.variant == TilingVariant::PartialRowTiling {
            // Prepare the per-group tiled kernels once, like the valid path.
            let mut groups: Vec<(usize, usize, Vec<Kernel1d>)> = Vec::new();
            let mut k_start = 0;
            while k_start < kernel_rows {
                let count = n_ir.min(kernel_rows - k_start);
                let ks: Vec<Kernel1d> = kernels
                    .iter()
                    .map(|k| {
                        self.kernel1d(
                            tile_kernel_rows(k, k_start, count, si, (count - 1) * si + k.cols()),
                            count * si,
                        )
                    })
                    .collect();
                groups.push((k_start, count, ks));
                k_start += count;
            }
            convs += rows.len() * groups.len() * kernels.len();
            tiles += rows.len() * groups.len();
            self.dispatch(&rows, |&out_r| {
                let top = out_r as isize - pr as isize;
                let mut acc = vec![vec![0.0; out_cols]; kernels.len()];
                for (k_start, count, ks) in &groups {
                    let tile_start = top + *k_start as isize;
                    let tiled_input = tile_input_rows(working, tile_start, *count, self.n_conv);
                    let key = (tile_start, 0, count * si);
                    let per_kernel =
                        self.apply_kernel_set(scratch, key, &tiled_input[..count * si], ks, true);
                    for ((acc_k, corr), kernel) in acc.iter_mut().zip(&per_kernel).zip(kernels) {
                        for (c, slot) in acc_k.iter_mut().enumerate() {
                            let wc = match edges {
                                EdgeHandling::Wraparound => c as isize - pc as isize,
                                EdgeHandling::ZeroPad => c as isize,
                            };
                            *slot += if wc >= 0 && (wc as usize) < corr.len() {
                                corr[wc as usize]
                            } else {
                                partial_window_dot(working, kernel, top, wc, *k_start, *count)
                            };
                        }
                    }
                }
                acc
            })
        } else {
            // Row partitioning, with the same hoisting as the valid path.
            let kernel_cols = kernels[0].cols();
            let step = self.n_conv - kernel_cols + 1;
            let corr_len = working.cols().saturating_sub(kernel_cols) + 1;
            let parts = column_partitions(corr_len, working.cols(), self.n_conv, step);
            let sets: Vec<Vec<Vec<Kernel1d>>> = (0..kernel_rows)
                .map(|dr| {
                    parts
                        .iter()
                        .map(|&(s, e)| {
                            kernels
                                .iter()
                                .map(|k| self.kernel1d(k.row(dr).to_vec(), e - s))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            // Count only convolutions that actually run: border output rows
            // skip kernel rows that fall outside the input.
            for &out_r in &rows {
                let top = out_r as isize - pr as isize;
                for dr in 0..kernel_rows {
                    let r = top + dr as isize;
                    if r >= 0 && r < working.rows() as isize {
                        convs += parts.len() * kernels.len();
                    }
                }
            }
            self.dispatch(&rows, |&out_r| {
                let top = out_r as isize - pr as isize;
                let mut acc = vec![vec![0.0; out_cols]; kernels.len()];
                for (dr, row_sets) in sets.iter().enumerate() {
                    let r = top + dr as isize;
                    if r < 0 || r >= working.rows() as isize {
                        continue;
                    }
                    let row = working.row(r as usize);
                    let mut corr_rows = vec![vec![0.0; corr_len]; kernels.len()];
                    for (p, &(start, end)) in parts.iter().enumerate() {
                        let key = (r, start, end);
                        let per_kernel = self.apply_kernel_set(
                            scratch,
                            key,
                            &row[start..end],
                            &row_sets[p],
                            true,
                        );
                        for (corr_row, corr) in corr_rows.iter_mut().zip(&per_kernel) {
                            for (i, v) in corr.iter().enumerate() {
                                if start + i < corr_len {
                                    corr_row[start + i] = *v;
                                }
                            }
                        }
                    }
                    for ((acc_k, corr_row), kernel) in acc.iter_mut().zip(&corr_rows).zip(kernels) {
                        let krow = kernel.row(dr);
                        for (c, slot) in acc_k.iter_mut().enumerate() {
                            let wc = match edges {
                                EdgeHandling::Wraparound => c as isize - pc as isize,
                                EdgeHandling::ZeroPad => c as isize,
                            };
                            if wc >= 0 && (wc as usize) < corr_row.len() {
                                *slot += corr_row[wc as usize];
                            } else {
                                *slot += row_window_dot(row, krow, wc);
                            }
                        }
                    }
                }
                acc
            })
        };
        for (acc, &out_r) in accs.iter().zip(&rows) {
            for (out, acc_k) in outs.iter_mut().zip(acc) {
                out.row_mut(out_r).copy_from_slice(acc_k);
            }
        }
        (tiles, convs)
    }
}

/// Multi-kernel calls require one shared shape (one tiling plan, one
/// prepared-signal geometry).
fn check_kernel_shapes(kernels: &[Matrix]) -> Result<(), TilingError> {
    let expected = (kernels[0].rows(), kernels[0].cols());
    for k in &kernels[1..] {
        let found = (k.rows(), k.cols());
        if found != expected {
            return Err(TilingError::MismatchedKernels { expected, found });
        }
    }
    Ok(())
}

/// Folds the per-call signal scratch into the final stats record.
fn finish_stats(
    start: Instant,
    tiles: usize,
    convs: usize,
    scratch: Mutex<SignalScratch>,
) -> ThroughputStats {
    let scratch = scratch.into_inner();
    ThroughputStats {
        tiles,
        convs_1d: convs,
        spectrum_hits: scratch.hits,
        spectrum_misses: scratch.misses,
        elapsed: start.elapsed(),
    }
}

/// Overlap-save column partitions shared by every row: `(start, end)` input
/// ranges stepping by `step` until the produced samples cover `needed`
/// output columns, each clipped to the `row_len`-sample row.
fn column_partitions(
    needed: usize,
    row_len: usize,
    n_conv: usize,
    step: usize,
) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut start = 0;
    while start < needed {
        parts.push((start, (start + n_conv).min(row_len)));
        start += step;
    }
    parts
}

/// Zero-pads a matrix horizontally by `left`/`right` columns.
fn pad_columns(input: &Matrix, left: usize, right: usize) -> Matrix {
    let mut out = Matrix::zeros(input.rows(), input.cols() + left + right);
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            out.set(r, c + left, input.get(r, c));
        }
    }
    out
}

/// Direct dot product of the kernel with the window whose top-left corner is
/// at (`top_row`, `left_col`) of `input`, out-of-range elements reading as
/// the row-major "flat" continuation (the wraparound semantics of the tiled
/// 1D view) when inside the matrix, or zero when outside it entirely.
fn window_dot(input: &Matrix, kernel: &Matrix, top_row: isize, left_col: isize) -> f64 {
    let mut acc = 0.0;
    for dr in 0..kernel.rows() {
        let r = top_row + dr as isize;
        if r < 0 || r >= input.rows() as isize {
            continue;
        }
        acc += row_window_dot(input.row(r as usize), kernel.row(dr), left_col);
    }
    acc
}

fn partial_window_dot(
    input: &Matrix,
    kernel: &Matrix,
    top_row: isize,
    left_col: isize,
    k_start: usize,
    count: usize,
) -> f64 {
    let mut acc = 0.0;
    for i in 0..count {
        let dr = k_start + i;
        let r = top_row + dr as isize;
        if r < 0 || r >= input.rows() as isize {
            continue;
        }
        acc += row_window_dot(input.row(r as usize), kernel.row(dr), left_col);
    }
    acc
}

fn row_window_dot(row: &[f64], krow: &[f64], left_col: isize) -> f64 {
    let mut acc = 0.0;
    for (dc, &k) in krow.iter().enumerate() {
        let c = left_col + dc as isize;
        if c >= 0 && (c as usize) < row.len() {
            acc += row[c as usize] * k;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DigitalEngine;
    use pf_dsp::conv::{correlate1d, correlate2d, PaddingMode};
    use pf_dsp::util::{max_abs_diff, relative_l2_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::new(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap()
    }

    fn convolver(n_conv: usize) -> TiledConvolver<DigitalEngine> {
        TiledConvolver::new(DigitalEngine, n_conv).unwrap()
    }

    #[test]
    fn telemetry_counters_flow_and_results_match_disabled() {
        let input = random_matrix(8, 8, 900);
        let kernel = random_matrix(3, 3, 901);
        let tel = Telemetry::enabled();
        let plain = convolver(20).correlate2d_valid(&input, &kernel).unwrap();
        let traced = convolver(20)
            .with_telemetry(tel.clone())
            .correlate2d_valid(&input, &kernel)
            .unwrap();
        assert_eq!(plain.data(), traced.data(), "tracing must not perturb");
        let snap = tel.snapshot();
        assert!(snap.counter("tiling.convs_1d") > 0);
        assert!(snap.counter("tiling.tiles") > 0);
        assert_eq!(snap.counter("tiling.conv2d_calls"), 1);
    }

    #[test]
    fn constructor_validation() {
        assert!(TiledConvolver::new(DigitalEngine, 0).is_err());
        assert!(TiledConvolver::new(DigitalEngine, 256).is_ok());
        assert_eq!(convolver(256).n_conv(), 256);
        assert!(convolver(256).parallel());
        assert!(!convolver(256).with_parallel(false).parallel());
    }

    #[test]
    fn valid_mode_equals_reference_row_tiling() {
        // Figure 3 setting: 5x5, 3x3, capacity 20.
        let input = random_matrix(5, 5, 1);
        let kernel = random_matrix(3, 3, 2);
        let tiled = convolver(20).correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-12);
    }

    #[test]
    fn valid_mode_equals_reference_many_shapes() {
        for (rows, cols, k, n_conv, seed) in [
            (8, 8, 3, 256, 3u64),
            (12, 9, 3, 64, 4),
            (7, 7, 5, 49, 5),
            (16, 16, 1, 32, 6),
            (10, 10, 3, 30, 7), // exactly sk*si
            (6, 6, 5, 30, 8),
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernel = random_matrix(k, k, seed + 100);
            let tiled = convolver(n_conv)
                .correlate2d_valid(&input, &kernel)
                .unwrap();
            let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
            assert!(
                max_abs_diff(tiled.data(), reference.data()) < 1e-10,
                "mismatch for {rows}x{cols} k{k} n{n_conv}"
            );
        }
    }

    #[test]
    fn valid_mode_partial_row_tiling_matches_reference() {
        // si = 10, sk*si = 30 > n_conv = 15 >= si -> partial row tiling.
        let input = random_matrix(10, 10, 11);
        let kernel = random_matrix(3, 3, 12);
        let c = convolver(15);
        assert_eq!(
            c.plan(&input, &kernel).unwrap().variant,
            TilingVariant::PartialRowTiling
        );
        let tiled = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn valid_mode_row_partitioning_matches_reference() {
        // n_conv = 7 < si = 12 -> row partitioning.
        let input = random_matrix(12, 12, 21);
        let kernel = random_matrix(3, 3, 22);
        let c = convolver(7);
        assert_eq!(
            c.plan(&input, &kernel).unwrap().variant,
            TilingVariant::RowPartitioning
        );
        let tiled = c.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn same_mode_zero_pad_is_exact() {
        for (rows, cols, k, n_conv, seed) in [
            (8, 8, 3, 256, 31u64),
            (10, 10, 5, 256, 32),
            (12, 12, 3, 48, 33),
            (9, 9, 3, 16, 34), // partial tiling path (padded cols = 11 < 16 < 33)
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernel = random_matrix(k, k, seed + 1000);
            let tiled = convolver(n_conv)
                .correlate2d_same(&input, &kernel, EdgeHandling::ZeroPad)
                .unwrap();
            let reference = correlate2d(&input, &kernel, PaddingMode::Same);
            assert!(
                max_abs_diff(tiled.data(), reference.data()) < 1e-10,
                "mismatch for {rows}x{cols} k{k} n{n_conv}"
            );
        }
    }

    #[test]
    fn same_mode_wraparound_interior_is_exact() {
        let input = random_matrix(10, 10, 41);
        let kernel = random_matrix(3, 3, 42);
        let tiled = convolver(256)
            .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
            .unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        // Interior (excluding one-pixel border) must match exactly.
        for r in 1..9 {
            for c in 1..9 {
                assert!(
                    (tiled.get(r, c) - reference.get(r, c)).abs() < 1e-10,
                    "interior mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn same_mode_wraparound_edge_error_is_small() {
        // The paper argues the edge effect has minimal impact; check the
        // relative error across the whole output stays small for a smooth
        // input.
        let input = Matrix::new(
            16,
            16,
            (0..256).map(|i| ((i as f64) * 0.05).sin() + 1.5).collect(),
        )
        .unwrap();
        // A fixed mixed-sign kernel with a clearly non-zero sum: a random
        // kernel can sum to ~0, which deflates the reference norm and blows
        // up the *relative* error regardless of the edge effect under test.
        let kernel =
            Matrix::new(3, 3, vec![0.2, -0.1, 0.3, 0.4, 1.0, -0.2, 0.1, 0.3, 0.2]).unwrap();
        let tiled = convolver(256)
            .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
            .unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        let err = relative_l2_error(tiled.data(), reference.data());
        assert!(err < 0.25, "edge-effect error unexpectedly large: {err}");
        // And strictly larger than zero: the approximation is real.
        assert!(err > 0.0);
    }

    #[test]
    fn same_mode_row_partitioning_zero_pad_matches_reference() {
        let input = random_matrix(12, 12, 61);
        let kernel = random_matrix(3, 3, 62);
        let c = convolver(7);
        let tiled = c
            .correlate2d_same(&input, &kernel, EdgeHandling::ZeroPad)
            .unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn plan_is_exposed() {
        let input = random_matrix(32, 32, 71);
        let kernel = random_matrix(3, 3, 72);
        let plan = convolver(256).plan(&input, &kernel).unwrap();
        assert_eq!(plan.variant, TilingVariant::RowTiling);
        assert_eq!(plan.rows_per_tile, 8);
    }

    #[test]
    fn kernel_larger_than_input_is_rejected() {
        let input = random_matrix(3, 3, 81);
        let kernel = random_matrix(5, 5, 82);
        assert!(convolver(256).correlate2d_valid(&input, &kernel).is_err());
    }

    #[test]
    fn grain_names_round_trip() {
        for grain in [
            ParallelGrain::Auto,
            ParallelGrain::Image,
            ParallelGrain::Tile,
        ] {
            assert_eq!(ParallelGrain::from_name(grain.name()), Some(grain));
            assert_eq!(format!("{grain}"), grain.name());
        }
        assert_eq!(ParallelGrain::from_name("rows"), None);
        assert_eq!(ParallelGrain::default(), ParallelGrain::Auto);
    }

    #[test]
    fn grain_gates_parallel_dispatch() {
        let c = convolver(256);
        assert_eq!(c.grain(), ParallelGrain::Auto);
        // DigitalEngine's cost hint declines tile parallelism, so Auto
        // stays serial...
        assert!(!c.parallel_active(8));
        // ...an explicit Tile grain overrides the hint...
        let tile = convolver(256).with_grain(ParallelGrain::Tile);
        assert!(tile.parallel_active(8));
        assert!(!tile.parallel_active(1)); // but one tile is never fanned out
                                           // ...and Image keeps tiles serial no matter what.
        let image = convolver(256).with_grain(ParallelGrain::Image);
        assert!(!image.parallel_active(8));
        assert!(!image.parallel());
        // Clones keep the grain.
        assert_eq!(tile.clone().grain(), ParallelGrain::Tile);
    }

    #[test]
    fn tile_grain_is_bit_identical_to_serial_at_several_pool_widths() {
        let input = random_matrix(24, 24, 95);
        let kernel = random_matrix(3, 3, 96);
        let ser = convolver(64)
            .with_grain(ParallelGrain::Image)
            .correlate2d_valid(&input, &kernel)
            .unwrap();
        for width in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let par = pool
                .install(|| {
                    convolver(64)
                        .with_grain(ParallelGrain::Tile)
                        .correlate2d_valid(&input, &kernel)
                })
                .unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "divergence at pool width {width}");
            }
        }
    }

    #[test]
    fn parallel_and_serial_are_bit_identical() {
        for (rows, cols, k, n_conv, seed) in [
            (32, 32, 3, 256, 91u64), // row tiling, several tiles
            (10, 10, 3, 15, 92),     // partial row tiling
            (12, 12, 3, 7, 93),      // row partitioning
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernel = random_matrix(k, k, seed + 500);
            let par = convolver(n_conv)
                .correlate2d_valid(&input, &kernel)
                .unwrap();
            let ser = convolver(n_conv)
                .with_parallel(false)
                .correlate2d_valid(&input, &kernel)
                .unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parallel/serial divergence");
            }
            let par = convolver(n_conv)
                .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
                .unwrap();
            let ser = convolver(n_conv)
                .with_parallel(false)
                .correlate2d_same(&input, &kernel, EdgeHandling::Wraparound)
                .unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parallel/serial divergence");
            }
        }
    }

    #[test]
    fn multi_kernel_matches_per_kernel_calls_bitwise() {
        // Every variant: the multi path must reproduce the single-kernel
        // path bit for bit, in both padding modes.
        for (rows, cols, n_conv, seed) in [
            (12, 12, 256, 201u64), // row tiling
            (10, 10, 15, 202),     // partial row tiling
            (12, 12, 7, 203),      // row partitioning
        ] {
            let input = random_matrix(rows, cols, seed);
            let kernels: Vec<Matrix> = (0..4).map(|i| random_matrix(3, 3, seed + 10 + i)).collect();
            let c = convolver(n_conv);
            let multi = c.correlate2d_valid_multi(&input, &kernels).unwrap();
            assert_eq!(multi.len(), kernels.len());
            for (kernel, plane) in kernels.iter().zip(&multi) {
                let single = c.correlate2d_valid(&input, kernel).unwrap();
                for (a, b) in single.data().iter().zip(plane.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "valid multi divergence");
                }
            }
            for edges in [EdgeHandling::Wraparound, EdgeHandling::ZeroPad] {
                let multi = c.correlate2d_same_multi(&input, &kernels, edges).unwrap();
                for (kernel, plane) in kernels.iter().zip(&multi) {
                    let single = c.correlate2d_same(&input, kernel, edges).unwrap();
                    for (a, b) in single.data().iter().zip(plane.data()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "same multi divergence");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_kernel_validates_shapes_and_handles_empty() {
        let input = random_matrix(8, 8, 211);
        let c = convolver(64);
        let empty: Vec<Matrix> = Vec::new();
        let (outs, stats) = c
            .correlate2d_valid_multi_with_stats(&input, &empty)
            .unwrap();
        assert!(outs.is_empty());
        assert_eq!(stats.convs_1d, 0);
        let kernels = vec![random_matrix(3, 3, 212), random_matrix(2, 3, 213)];
        assert!(matches!(
            c.correlate2d_valid_multi(&input, &kernels),
            Err(TilingError::MismatchedKernels { .. })
        ));
        assert!(matches!(
            c.correlate2d_same_multi(&input, &kernels, EdgeHandling::Wraparound),
            Err(TilingError::MismatchedKernels { .. })
        ));
    }

    /// Digital-reference engine that opts into the prepared fast path and
    /// counts how many kernels it has prepared — the probe for the cache
    /// tests below. Clones share the counter, mirroring how clones of the
    /// convolver share the cache.
    #[derive(Debug, Clone, Default)]
    struct CountingPrepEngine {
        prepares: Arc<std::sync::atomic::AtomicUsize>,
    }

    #[derive(Debug)]
    struct PreparedDigital {
        kernel: Vec<f64>,
        signal_len: usize,
    }

    impl PreparedConv1d for PreparedDigital {
        fn signal_len(&self) -> usize {
            self.signal_len
        }

        fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, &self.kernel)
        }
    }

    impl Conv1dEngine for CountingPrepEngine {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }

        fn prepares_kernels(&self) -> bool {
            true
        }

        fn prepare_kernel(
            &self,
            kernel: &[f64],
            signal_len: usize,
        ) -> Option<Arc<dyn PreparedConv1d>> {
            self.prepares
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(Arc::new(PreparedDigital {
                kernel: kernel.to_vec(),
                signal_len,
            }))
        }
    }

    /// A prepared digital kernel that also opts into signal sharing: the
    /// "transform" is just a copy of the signal, so sharing is observable
    /// through the stats without changing any numerics.
    #[derive(Debug, Clone, Default)]
    struct SharingDigital;

    #[derive(Debug)]
    struct SharedDigitalSignal {
        signal: Vec<f64>,
    }

    impl PreparedSignal for SharedDigitalSignal {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[derive(Debug)]
    struct SharingPreparedDigital {
        kernel: Vec<f64>,
        signal_len: usize,
    }

    impl PreparedConv1d for SharingPreparedDigital {
        fn signal_len(&self) -> usize {
            self.signal_len
        }

        fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, &self.kernel)
        }

        fn signal_key(&self) -> Option<u64> {
            Some(self.signal_len as u64)
        }

        fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
            Some(Arc::new(SharedDigitalSignal {
                signal: signal.to_vec(),
            }))
        }

        fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
            match prepared.as_any().downcast_ref::<SharedDigitalSignal>() {
                Some(shared) => DigitalEngine.correlate_valid(&shared.signal, &self.kernel),
                None => self.correlate_valid(signal),
            }
        }
    }

    impl Conv1dEngine for SharingDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }

        fn prepares_kernels(&self) -> bool {
            true
        }

        fn prepare_kernel(
            &self,
            kernel: &[f64],
            signal_len: usize,
        ) -> Option<Arc<dyn PreparedConv1d>> {
            Some(Arc::new(SharingPreparedDigital {
                kernel: kernel.to_vec(),
                signal_len,
            }))
        }
    }

    #[test]
    fn multi_kernel_shares_signal_transforms_and_counts_reuse() {
        // Row tiling, 4 kernels: every tile's transform is computed in the
        // batched pre-pass (one miss per tile) and every per-kernel
        // correlation then consumes the seeded transform (a hit).
        let input = random_matrix(12, 12, 221);
        let kernels: Vec<Matrix> = (0..4).map(|i| random_matrix(3, 3, 222 + i)).collect();
        let c = TiledConvolver::new(SharingDigital, 64).unwrap();
        let (outs, stats) = c
            .correlate2d_valid_multi_with_stats(&input, &kernels)
            .unwrap();
        // 12 output rows, 5 rows/tile, 3 valid rows per tile -> 4 tiles.
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.convs_1d, 4 * 4);
        assert_eq!(stats.spectrum_misses, 4, "one batched transform per tile");
        assert_eq!(stats.spectrum_hits, 4 * 4, "every 1D conv consumed a seed");
        for (kernel, plane) in kernels.iter().zip(&outs) {
            let reference = correlate2d(&input, kernel, PaddingMode::Valid);
            assert!(max_abs_diff(plane.data(), reference.data()) < 1e-10);
        }

        // Single-kernel row tiling skips the scratch entirely: tile
        // positions never repeat, so there is nothing to share.
        let (_, stats) = c.correlate2d_valid_with_stats(&input, &kernels[0]).unwrap();
        assert_eq!(stats.spectrum_misses, 0);
        assert_eq!(stats.spectrum_hits, 0);
    }

    #[test]
    fn partitioning_reuses_row_transforms_across_kernel_rows() {
        // n_conv = 7 < si = 12 -> row partitioning. One row partition is
        // slid over by every kernel row reaching it, so even a single
        // kernel sees spectrum reuse.
        let input = random_matrix(12, 12, 231);
        let kernel = random_matrix(3, 3, 232);
        let c = TiledConvolver::new(SharingDigital, 7).unwrap();
        let (out, stats) = c.correlate2d_valid_with_stats(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-10);
        assert!(stats.spectrum_misses > 0);
        assert!(
            stats.spectrum_hits > 0,
            "kernel rows must reuse row-partition transforms"
        );
        assert_eq!(
            stats.spectrum_hits + stats.spectrum_misses,
            stats.convs_1d,
            "every 1D convolution went through the shared path"
        );
    }

    #[test]
    fn spectrum_scratch_evicts_at_the_cap() {
        // A synthetic workload with more distinct signals than the cap:
        // partitioning a tall input produces one key per (row, partition).
        let rows = TiledConvolver::<SharingDigital>::SPECTRUM_CACHE_CAP + 40;
        let input = random_matrix(rows, 12, 241);
        let kernel = random_matrix(1, 3, 242);
        let c = TiledConvolver::new(SharingDigital, 7).unwrap();
        let (out, stats) = c.correlate2d_valid_with_stats(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-10);
        // More transforms computed than the cap holds: eviction happened,
        // results stayed exact, and the counters still balance.
        assert!(stats.spectrum_misses > TiledConvolver::<SharingDigital>::SPECTRUM_CACHE_CAP);
        assert_eq!(stats.spectrum_hits + stats.spectrum_misses, stats.convs_1d);
    }

    #[test]
    fn prep_cache_evicts_at_the_cap_and_reprepares_correctly() {
        let cap = TiledConvolver::<CountingPrepEngine>::PREP_CACHE_CAP;
        let engine = CountingPrepEngine::default();
        let prepares = Arc::clone(&engine.prepares);
        let c = TiledConvolver::new(engine, 64).unwrap();

        // Fill the cache with `cap` distinct kernels; every one is a miss.
        for i in 0..cap {
            let kernel = [i as f64 + 0.5];
            assert!(c.prepared(&kernel, 8).is_some());
        }
        assert_eq!(prepares.load(std::sync::atomic::Ordering::Relaxed), cap);
        assert_eq!(c.prep_cache.lock().len(), cap);

        // A repeat within the cap is a hit: no new preparation.
        assert!(c.prepared(&[0.5], 8).is_some());
        assert_eq!(prepares.load(std::sync::atomic::Ordering::Relaxed), cap);

        // One more distinct kernel trips the cap: the cache resets
        // wholesale and holds only the newcomer.
        assert!(c.prepared(&[-1.0], 8).is_some());
        assert_eq!(prepares.load(std::sync::atomic::Ordering::Relaxed), cap + 1);
        assert_eq!(c.prep_cache.lock().len(), 1);

        // A re-requested evicted kernel is re-prepared — and still computes
        // the exact digital result.
        let signal: Vec<f64> = (0..8).map(|i| i as f64 * 0.25).collect();
        let before = prepares.load(std::sync::atomic::Ordering::Relaxed);
        let prep = c.prepared(&[0.5], 8).expect("re-prepared");
        assert_eq!(
            prepares.load(std::sync::atomic::Ordering::Relaxed),
            before + 1,
            "evicted kernel must be prepared again"
        );
        assert_eq!(
            prep.correlate_valid(&signal),
            DigitalEngine.correlate_valid(&signal, &[0.5])
        );
        assert_eq!(c.prep_cache.lock().len(), 2);
    }

    #[test]
    fn prep_cache_is_shared_across_clones() {
        let engine = CountingPrepEngine::default();
        let prepares = Arc::clone(&engine.prepares);
        let original = TiledConvolver::new(engine, 20).unwrap();
        let clone = original.clone();

        let input = random_matrix(5, 5, 1);
        let kernel = random_matrix(3, 3, 2);
        let a = original.correlate2d_valid(&input, &kernel).unwrap();
        let after_first = prepares.load(std::sync::atomic::Ordering::Relaxed);
        assert!(after_first >= 1);

        // The clone reuses the original's prepared kernel: no new
        // preparations, identical bits out.
        let b = clone.correlate2d_valid(&input, &kernel).unwrap();
        assert_eq!(
            prepares.load(std::sync::atomic::Ordering::Relaxed),
            after_first,
            "clone must hit the shared cache"
        );
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // One shared cache, not two copies. (Lengths read one at a time:
        // both handles hold the *same* mutex.)
        let original_len = original.prep_cache.lock().len();
        let clone_len = clone.prep_cache.lock().len();
        assert_eq!(original_len, clone_len);
        assert!(Arc::ptr_eq(&original.prep_cache, &clone.prep_cache));
    }

    /// Runs prepared kernels with a constant added to every output: makes
    /// it observable which engine's `run_prepared` the executor called.
    #[derive(Debug, Default)]
    struct ShiftingRunner {
        shift: f64,
        prepares: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Conv1dEngine for ShiftingRunner {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            DigitalEngine.correlate_valid(signal, kernel)
        }

        fn prepares_kernels(&self) -> bool {
            true
        }

        fn prepare_kernel(
            &self,
            kernel: &[f64],
            signal_len: usize,
        ) -> Option<Arc<dyn PreparedConv1d>> {
            self.prepares
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            DigitalEngine.prepare_kernel(kernel, signal_len)
        }

        fn run_prepared(
            &self,
            prepared: &dyn PreparedConv1d,
            shared: Option<&dyn PreparedSignal>,
            signal: &[f64],
            acc: Option<&mut StageAcc>,
        ) -> Vec<f64> {
            let mut out = prepared.dispatch(shared, signal, acc);
            for v in &mut out {
                *v += self.shift;
            }
            out
        }
    }

    #[test]
    fn with_engine_shares_the_cache_and_runs_through_the_new_engine() {
        let tel = Telemetry::enabled();
        let engine = CountingPrepEngine::default();
        let prepares = Arc::clone(&engine.prepares);
        let original = TiledConvolver::new(engine, 20)
            .unwrap()
            .with_telemetry(tel.clone());
        let input = random_matrix(5, 5, 3);
        let kernels = [random_matrix(3, 3, 4), random_matrix(3, 3, 5)];
        let base = original.correlate2d_valid_multi(&input, &kernels).unwrap();
        let prepared = prepares.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(prepared, 2);
        assert_eq!(tel.snapshot().counter("tiling.kernels_prepared"), 2);

        let runner = ShiftingRunner {
            shift: 1.0,
            ..ShiftingRunner::default()
        };
        let runner_prepares = Arc::clone(&runner.prepares);
        let shifted = original.with_engine(runner);
        assert!(Arc::ptr_eq(&original.prep_cache, &shifted.prep_cache));
        assert_eq!(shifted.n_conv(), original.n_conv());
        assert_eq!(shifted.grain(), original.grain());
        let out = shifted.correlate2d_valid_multi(&input, &kernels).unwrap();
        // Every 1D convolution went through the new engine's run_prepared
        // (each output sample comes from exactly one of them), on the
        // kernels the first engine prepared: nothing was prepared again.
        assert_eq!(
            runner_prepares.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        assert_eq!(
            prepares.load(std::sync::atomic::Ordering::Relaxed),
            prepared
        );
        assert_eq!(tel.snapshot().counter("tiling.kernels_prepared"), 2);
        for (a, b) in base.iter().zip(&out) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_ne!(x.to_bits(), y.to_bits());
                assert!((y - x - 1.0).abs() < 1e-12, "{x} -> {y}");
            }
        }
    }

    /// A backend with no prepared fast path at all (the trait defaults).
    #[derive(Debug, Clone, Copy, Default)]
    struct PlainDigital;

    impl Conv1dEngine for PlainDigital {
        fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
            correlate1d(signal, kernel, PaddingMode::Valid)
        }
    }

    #[test]
    fn non_preparing_engine_skips_the_prep_cache() {
        // An engine reporting prepares_kernels() == false must never pay
        // for a cache key — not even a None marker may appear.
        let c = TiledConvolver::new(PlainDigital, 20).unwrap();
        let input = random_matrix(5, 5, 251);
        let kernel = random_matrix(3, 3, 252);
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        let out = c.correlate2d_valid(&input, &kernel).unwrap();
        assert!(max_abs_diff(out.data(), reference.data()) < 1e-12);
        assert!(
            c.prep_cache.lock().is_empty(),
            "no entries (not even None markers) for a non-preparing engine"
        );
    }

    #[test]
    fn same_mode_partitioning_stats_count_only_real_convolutions() {
        // 12x12 input, 3x3 kernel, capacity 7 -> row partitioning in same
        // mode. corr_len = 10, step = 5 -> 2 partitions per kernel row.
        // Interior output rows run all 3 kernel rows (6 convs); the top and
        // bottom border rows skip one out-of-range kernel row (4 convs):
        // 10 * 6 + 2 * 4 = 68.
        let input = random_matrix(12, 12, 111);
        let kernel = random_matrix(3, 3, 112);
        let (_, stats) = convolver(7)
            .correlate2d_same_with_stats(&input, &kernel, EdgeHandling::Wraparound)
            .unwrap();
        assert_eq!(stats.convs_1d, 68);
        // Row partitioning slices rows in place: no tiled vectors built.
        assert_eq!(stats.tiles, 0);
    }

    #[test]
    fn stats_count_convolutions() {
        // Figure 3 setting: 3 tiles for a 5x5 input (see plan tests).
        let input = random_matrix(5, 5, 101);
        let kernel = random_matrix(3, 3, 102);
        let (_, stats) = convolver(20)
            .correlate2d_valid_with_stats(&input, &kernel)
            .unwrap();
        assert_eq!(stats.convs_1d, 2); // ceil(3 output rows / 2 per conv)
        assert_eq!(stats.tiles, 2);
        assert!(stats.micros_per_conv() >= 0.0);
        let mut merged = ThroughputStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.convs_1d, 2 * stats.convs_1d);
        assert_eq!(
            merged.spectrum_hits + merged.spectrum_misses,
            2 * (stats.spectrum_hits + stats.spectrum_misses)
        );
    }
}
