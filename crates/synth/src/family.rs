//! Drive-family generation.
//!
//! The Lifetime traces cover an entire drive family: thousands of drives
//! of the same model deployed in very different roles. [`FamilySpec`]
//! reproduces the two family-level phenomena the paper reports:
//!
//! * **Cross-drive variability** — per-drive load scales follow a
//!   log-normal distribution (most drives moderately loaded, a heavy
//!   upper tail), and
//! * **a saturated sub-population** — a small fraction of drives
//!   periodically pin the mechanism at full utilization for hours at a
//!   time (backup targets, scrubbing, batch analytics).
//!
//! Each drive gets an hour series (via [`HourSeriesSpec`]) and the
//! lifetime record accumulated from it, exactly the way drive firmware
//! accumulates its lifetime counters. Generation runs through the
//! [`spindle_engine`] pool; each drive is a shard seeded by
//! [`spindle_engine::shard_seed`]`(seed, index)`, so the output is
//! identical regardless of worker count.

use crate::hourgen::{HourSeriesSpec, WEEK_HOURS};
use crate::{Result, SynthError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spindle_engine::{shard_seed, Pool};
use spindle_trace::lifetime::accumulate_lifetime;
use spindle_trace::{DriveId, HourRecord, HourSeries, LifetimeRecord};

/// One generated family member.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveRecord {
    /// The drive's hour-granularity history.
    pub series: HourSeries,
    /// Lifetime counters accumulated from the history.
    pub lifetime: LifetimeRecord,
    /// The load scale factor this drive was assigned.
    pub scale: f64,
    /// Whether the drive belongs to the saturated sub-population.
    pub saturator: bool,
}

/// Specification of a synthetic drive family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// Number of drives.
    pub drives: u32,
    /// Template hour-series spec (drive id and base rate are overridden
    /// per drive).
    pub template: HourSeriesSpec,
    /// Log-space standard deviation of the per-drive load scale
    /// (log-normal with unit median).
    pub scale_sigma: f64,
    /// Fraction of drives in the saturated sub-population.
    pub saturator_fraction: f64,
    /// Mean saturation episodes per week for a saturator drive.
    pub episodes_per_week: f64,
    /// Minimum episode length in hours.
    pub episode_hours_min: u32,
    /// Maximum episode length in hours.
    pub episode_hours_max: u32,
}

impl Default for FamilySpec {
    fn default() -> Self {
        FamilySpec {
            drives: 200,
            template: HourSeriesSpec::default(),
            scale_sigma: 1.0,
            saturator_fraction: 0.05,
            episodes_per_week: 1.5,
            episode_hours_min: 2,
            episode_hours_max: 12,
        }
    }
}

impl FamilySpec {
    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.drives == 0 {
            return Err(SynthError::InvalidParameter {
                name: "drives",
                reason: "family needs at least one drive",
            });
        }
        self.template.validate()?;
        if self.scale_sigma < 0.0 {
            return Err(SynthError::InvalidParameter {
                name: "scale_sigma",
                reason: "must be non-negative",
            });
        }
        if !(0.0..=1.0).contains(&self.saturator_fraction) {
            return Err(SynthError::InvalidParameter {
                name: "saturator_fraction",
                reason: "must lie in [0, 1]",
            });
        }
        if self.episodes_per_week < 0.0 {
            return Err(SynthError::InvalidParameter {
                name: "episodes_per_week",
                reason: "must be non-negative",
            });
        }
        if self.episode_hours_min == 0 || self.episode_hours_min > self.episode_hours_max {
            return Err(SynthError::InvalidParameter {
                name: "episode_hours_min",
                reason: "need 1 <= min <= max",
            });
        }
        Ok(())
    }

    /// Generates the family, deterministically for a given `seed`,
    /// using the default-sized engine pool.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn generate(&self, seed: u64) -> Result<Vec<DriveRecord>> {
        self.generate_with_pool(seed, &Pool::with_default_jobs())
    }

    /// Generates the family on the given pool.
    ///
    /// Each drive is an engine shard seeded by
    /// [`shard_seed`]`(seed, index)`, so the output is bit-identical
    /// for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn generate_with_pool(&self, seed: u64, pool: &Pool) -> Result<Vec<DriveRecord>> {
        self.validate()?;
        let indices: Vec<u32> = (0..self.drives).collect();
        Ok(pool.map(indices, |_ord, idx| self.generate_drive(idx, seed)))
    }

    /// Generates one drive of the family.
    fn generate_drive(&self, index: u32, seed: u64) -> DriveRecord {
        let drive_seed = shard_seed(seed, u64::from(index));
        let mut rng = StdRng::seed_from_u64(drive_seed);

        // Log-normal scale with unit median.
        let gauss: f64 = {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let scale = (self.scale_sigma * gauss).exp();
        let saturator = rng.gen_bool(self.saturator_fraction);

        let mut spec = self.template.clone();
        spec.drive = DriveId(index);
        spec.base_ops_per_hour =
            (self.template.base_ops_per_hour * scale).min(spec.capacity_ops_per_hour() * 0.8);
        // Stagger diurnal phase a little across the family (machines in
        // different time zones / roles).
        spec.start_hour_of_week = rng.gen_range(0..WEEK_HOURS);

        let mut series = spec
            .generate(drive_seed.wrapping_add(1))
            .expect("validated template generates");

        if saturator {
            series = self.inject_saturation(&spec, series, &mut rng);
        }

        let lifetime = accumulate_lifetime(series.records()).expect("generated series accumulates");
        DriveRecord {
            series,
            lifetime,
            scale,
            saturator,
        }
    }

    /// Overwrites randomly placed episodes with fully saturated hours.
    fn inject_saturation<R: Rng + ?Sized>(
        &self,
        spec: &HourSeriesSpec,
        series: HourSeries,
        rng: &mut R,
    ) -> HourSeries {
        let hours = series.len() as u32;
        let weeks = hours as f64 / WEEK_HOURS as f64;
        let episodes = poisson_small(self.episodes_per_week * weeks, rng).max(1);
        let cap_ops = spec.capacity_ops_per_hour() as u64;
        let mut records: Vec<HourRecord> = series.records().to_vec();
        for _ in 0..episodes {
            let len = rng.gen_range(self.episode_hours_min..=self.episode_hours_max);
            if len >= hours {
                continue;
            }
            let start = rng.gen_range(0..hours - len);
            for h in start..start + len {
                let r = &mut records[h as usize];
                // Saturation episodes are sequential streaming jobs
                // (backup, scrub): write-leaning large transfers at the
                // service ceiling.
                let ops = cap_ops;
                let writes = (ops as f64 * 0.7) as u64;
                let reads = ops - writes;
                *r = HourRecord::new(
                    r.drive,
                    r.hour,
                    reads,
                    writes,
                    (reads as f64 * spec.mean_request_sectors * 4.0) as u64,
                    (writes as f64 * spec.mean_request_sectors * 4.0) as u64,
                    3600.0,
                )
                .expect("saturated counters satisfy invariants");
            }
        }
        HourSeries::new(records).expect("hour indices unchanged")
    }
}

/// Poisson sample for small means (Knuth's method).
fn poisson_small<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // defensive cap; unreachable for sane means
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FamilySpec {
        FamilySpec {
            drives: 40,
            template: HourSeriesSpec {
                hours: 2 * WEEK_HOURS,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        for f in [
            |s: &mut FamilySpec| s.drives = 0,
            |s: &mut FamilySpec| s.scale_sigma = -1.0,
            |s: &mut FamilySpec| s.saturator_fraction = 2.0,
            |s: &mut FamilySpec| s.episodes_per_week = -1.0,
            |s: &mut FamilySpec| s.episode_hours_min = 0,
            |s: &mut FamilySpec| {
                s.episode_hours_min = 10;
                s.episode_hours_max = 5;
            },
            |s: &mut FamilySpec| s.template.hours = 0,
        ] {
            let mut s = small_spec();
            f(&mut s);
            assert!(s.validate().is_err());
        }
        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn family_has_requested_size_and_unique_ids() {
        let family = small_spec().generate(1).unwrap();
        assert_eq!(family.len(), 40);
        for (i, d) in family.iter().enumerate() {
            assert_eq!(d.series.drive(), DriveId(i as u32));
            assert_eq!(d.lifetime.drive, DriveId(i as u32));
            assert_eq!(d.lifetime.power_on_hours, 2 * WEEK_HOURS as u64);
        }
    }

    #[test]
    fn generation_is_deterministic_across_runs() {
        let a = small_spec().generate(2).unwrap();
        let b = small_spec().generate(2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_identical_across_worker_counts() {
        let spec = small_spec();
        let seq = spec.generate_with_pool(9, &Pool::new(1)).unwrap();
        for jobs in [2, 4, 8] {
            let par = spec.generate_with_pool(9, &Pool::new(jobs)).unwrap();
            assert_eq!(seq, par, "family differs at jobs={jobs}");
        }
    }

    #[test]
    fn lifetime_matches_series_accumulation() {
        let family = small_spec().generate(3).unwrap();
        for d in &family {
            let acc = accumulate_lifetime(d.series.records()).unwrap();
            assert_eq!(acc, d.lifetime);
        }
    }

    #[test]
    fn scales_are_variable_across_the_family() {
        let family = FamilySpec {
            drives: 100,
            ..small_spec()
        }
        .generate(4)
        .unwrap();
        let utils: Vec<f64> = family
            .iter()
            .map(|d| d.lifetime.mean_utilization())
            .collect();
        let min = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = utils.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max / min.max(1e-9) > 5.0,
            "family utilization spread too small: {min}..{max}"
        );
    }

    #[test]
    fn saturators_have_long_saturated_runs() {
        let spec = FamilySpec {
            drives: 60,
            saturator_fraction: 0.2,
            ..small_spec()
        };
        let family = spec.generate(5).unwrap();
        let saturators: Vec<_> = family.iter().filter(|d| d.saturator).collect();
        assert!(!saturators.is_empty());
        for d in saturators {
            assert!(
                d.series.longest_saturated_run(0.99) >= spec.episode_hours_min as usize,
                "saturator without a saturated run"
            );
        }
    }

    #[test]
    fn non_saturators_rarely_pin_the_drive() {
        let spec = FamilySpec {
            drives: 30,
            saturator_fraction: 0.0,
            scale_sigma: 0.3,
            ..small_spec()
        };
        let family = spec.generate(6).unwrap();
        let pinned = family
            .iter()
            .filter(|d| d.series.longest_saturated_run(0.99) >= 2)
            .count();
        assert!(
            pinned <= 2,
            "{pinned} of 30 moderate drives had multi-hour saturated runs"
        );
    }

    #[test]
    fn saturator_fraction_is_respected() {
        let spec = FamilySpec {
            drives: 400,
            saturator_fraction: 0.10,
            ..small_spec()
        };
        let family = spec.generate(7).unwrap();
        let count = family.iter().filter(|d| d.saturator).count();
        let frac = count as f64 / 400.0;
        assert!((frac - 0.10).abs() < 0.05, "saturator fraction {frac}");
    }

    #[test]
    fn poisson_small_mean_zero() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(poisson_small(0.0, &mut rng), 0);
        let x = poisson_small(3.0, &mut rng);
        assert!(x < 30);
    }
}
