//! Analog-to-digital converter model.
//!
//! ADCs perform the O-E read-out of the photodetector outputs. In the
//! baseline JTC system they dominate power (Figure 6); temporal accumulation
//! reduces their frequency 16× (Section V-C). The model captures:
//!
//! * uniform mid-rise quantisation of a bounded analog value,
//! * linear power scaling with sampling frequency (the assumption the paper
//!   makes explicit in Section V-D),
//! * Walden figure-of-merit based power estimation used to derive the NG
//!   scaling factor.

use serde::{Deserialize, Serialize};

use crate::error::PhotonicsError;
use crate::units::Milliwatts;

/// An idealised successive-approximation ADC with uniform quantisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adc {
    bits: u32,
    frequency_ghz: f64,
    power_mw: f64,
}

impl Adc {
    /// Creates an ADC model.
    ///
    /// `power_mw` is the power at `frequency_ghz`; use [`Adc::scaled_to`] to
    /// derive models at other sampling rates.
    ///
    /// # Errors
    ///
    /// Returns an error if `bits` is 0 or greater than 16, or if the
    /// frequency or power is not positive.
    pub fn new(bits: u32, frequency_ghz: f64, power_mw: f64) -> Result<Self, PhotonicsError> {
        if bits == 0 || bits > 16 {
            return Err(PhotonicsError::UnsupportedResolution { bits });
        }
        if frequency_ghz <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "frequency_ghz",
                value: frequency_ghz,
                requirement: "must be positive",
            });
        }
        if power_mw <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "power_mw",
                value: power_mw,
                requirement: "must be positive",
            });
        }
        Ok(Self {
            bits,
            frequency_ghz,
            power_mw,
        })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Sampling frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.frequency_ghz
    }

    /// Power at the configured sampling frequency.
    pub fn power(&self) -> Milliwatts {
        Milliwatts(self.power_mw)
    }

    /// Returns a copy of this ADC re-timed to `frequency_ghz`, scaling power
    /// linearly with frequency (the paper's assumption: "the power of ADC
    /// scales linearly with frequency").
    ///
    /// # Errors
    ///
    /// Returns an error if the requested frequency is not positive.
    pub fn scaled_to(&self, frequency_ghz: f64) -> Result<Self, PhotonicsError> {
        if frequency_ghz <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "frequency_ghz",
                value: frequency_ghz,
                requirement: "must be positive",
            });
        }
        Ok(Self {
            bits: self.bits,
            frequency_ghz,
            power_mw: self.power_mw * frequency_ghz / self.frequency_ghz,
        })
    }

    /// Number of quantisation levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantises `value` assuming a symmetric full-scale range
    /// `[-full_scale, full_scale]`, returning the reconstructed analog value.
    ///
    /// Values outside the range are clipped (saturating converter), which is
    /// exactly what makes 8-bit partial sums lossy and motivates temporal
    /// accumulation (Section V-C).
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn quantize(&self, value: f64, full_scale: f64) -> f64 {
        assert!(full_scale > 0.0, "full_scale must be positive");
        let step = self.step(full_scale);
        Self::quantize_step(value, full_scale, step)
    }

    /// Width of one code for the symmetric range `[-full_scale, full_scale]`.
    fn step(&self, full_scale: f64) -> f64 {
        2.0 * full_scale / self.levels() as f64
    }

    fn quantize_step(value: f64, full_scale: f64, step: f64) -> f64 {
        let clipped = value.clamp(-full_scale, full_scale - step);
        let code = ((clipped + full_scale) / step).round();
        code * step - full_scale
    }

    /// Quantises an entire slice with a shared full-scale range.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn quantize_slice(&self, values: &[f64], full_scale: f64) -> Vec<f64> {
        values
            .iter()
            .map(|&v| self.quantize(v, full_scale))
            .collect()
    }

    /// Quantises `values` in place with a shared full-scale range —
    /// [`Adc::quantize_slice`] without the output allocation, bit-identical
    /// to it element for element.
    ///
    /// # Panics
    ///
    /// Panics if `full_scale` is not positive.
    pub fn quantize_in_place(&self, values: &mut [f64], full_scale: f64) {
        assert!(full_scale > 0.0, "full_scale must be positive");
        let step = self.step(full_scale);
        for v in values {
            *v = Self::quantize_step(*v, full_scale, step);
        }
    }

    /// Worst-case quantisation error (half an LSB) for the given full scale.
    pub fn max_quantization_error(&self, full_scale: f64) -> f64 {
        full_scale / self.levels() as f64
    }

    /// Estimates converter power from the Walden figure of merit
    /// `P = FoM * 2^bits * f_s` where `fom_fj_per_conv` is in
    /// femtojoules per conversion step.
    pub fn power_from_walden_fom(
        bits: u32,
        frequency_ghz: f64,
        fom_fj_per_conv: f64,
    ) -> Milliwatts {
        // fJ/step * steps * GHz = 1e-15 J * 1e9 /s = 1e-6 W = 1e-3 mW per fJ*GHz
        let steps = (1u64 << bits) as f64;
        Milliwatts(fom_fj_per_conv * steps * frequency_ghz * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc8() -> Adc {
        Adc::new(8, 0.625, 0.93).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Adc::new(0, 1.0, 1.0).is_err());
        assert!(Adc::new(20, 1.0, 1.0).is_err());
        assert!(Adc::new(8, -1.0, 1.0).is_err());
        assert!(Adc::new(8, 1.0, 0.0).is_err());
        assert!(Adc::new(8, 1.0, 1.0).is_ok());
    }

    #[test]
    fn paper_adc_parameters() {
        let adc = adc8();
        assert_eq!(adc.bits(), 8);
        assert_eq!(adc.levels(), 256);
        assert_eq!(adc.power(), Milliwatts(0.93));
    }

    #[test]
    fn linear_frequency_scaling() {
        // Temporal accumulation: 10 GHz -> 625 MHz is 16x less power,
        // equivalently baseline 10 GHz ADC is 16x the 625 MHz one.
        let adc = adc8();
        let fast = adc.scaled_to(10.0).unwrap();
        assert!((fast.power().value() - 0.93 * 16.0).abs() < 1e-9);
        assert!(adc.scaled_to(0.0).is_err());
    }

    #[test]
    fn quantization_is_idempotent() {
        let adc = adc8();
        for &v in &[0.0, 0.3, -0.77, 0.99, -1.0] {
            let q1 = adc.quantize(v, 1.0);
            let q2 = adc.quantize(q1, 1.0);
            assert!((q1 - q2).abs() < 1e-12);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = adc8();
        let full_scale = 2.0;
        let lsb = 2.0 * full_scale / 256.0;
        for i in 0..1000 {
            let v = -full_scale + (i as f64 / 999.0) * (2.0 * full_scale - lsb);
            let q = adc.quantize(v, full_scale);
            assert!(
                (q - v).abs() <= lsb / 2.0 + 1e-12,
                "error too large at {v}: {q}"
            );
        }
        assert!((adc.max_quantization_error(full_scale) - full_scale / 256.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_clips_out_of_range() {
        let adc = adc8();
        let q = adc.quantize(10.0, 1.0);
        assert!(q <= 1.0);
        let q = adc.quantize(-10.0, 1.0);
        assert!(q >= -1.0 - 1e-12);
    }

    #[test]
    fn quantize_slice_matches_scalar() {
        let adc = adc8();
        let vals = [0.1, -0.5, 0.9];
        let qs = adc.quantize_slice(&vals, 1.0);
        for (v, q) in vals.iter().zip(&qs) {
            assert_eq!(*q, adc.quantize(*v, 1.0));
        }
    }

    #[test]
    fn quantize_in_place_matches_slice_bitwise() {
        let adc = adc8();
        let vals: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() * 1.3).collect();
        for full_scale in [0.5, 1.0, 1.7] {
            let mut in_place = vals.clone();
            adc.quantize_in_place(&mut in_place, full_scale);
            let sliced = adc.quantize_slice(&vals, full_scale);
            for (a, b) in in_place.iter().zip(&sliced) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "full_scale must be positive")]
    fn quantize_in_place_rejects_bad_full_scale() {
        adc8().quantize_in_place(&mut [0.5], 0.0);
    }

    #[test]
    #[should_panic(expected = "full_scale must be positive")]
    fn quantize_rejects_bad_full_scale() {
        adc8().quantize(0.0, 0.0);
    }

    #[test]
    fn walden_fom_power() {
        // 8-bit, 625 MHz, 50 fJ/conv-step -> 256 * 0.625 * 50 fJ * 1e9/s = 8 uW * ... compute:
        let p = Adc::power_from_walden_fom(8, 0.625, 50.0);
        // 50e-15 J * 256 * 0.625e9 Hz = 8e-3 W? No: 50e-15*256*0.625e9 = 8e-3... = 8 mW
        assert!((p.value() - 8.0).abs() < 1e-9);
        // Better FoM -> lower power
        let p2 = Adc::power_from_walden_fom(8, 0.625, 10.0);
        assert!(p2.value() < p.value());
    }

    #[test]
    fn more_bits_means_finer_quantization() {
        let coarse = Adc::new(4, 1.0, 1.0).unwrap();
        let fine = Adc::new(12, 1.0, 1.0).unwrap();
        assert!(fine.max_quantization_error(1.0) < coarse.max_quantization_error(1.0));
    }
}
