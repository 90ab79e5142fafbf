//! Experiment sizing.

use spindle_obs::ObsConfig;

/// Sizing knobs shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Base random seed; every experiment derives sub-seeds from it.
    pub seed: u64,
    /// Span of each millisecond-trace generation, in seconds.
    pub ms_span_secs: f64,
    /// Weeks of hour-trace generation.
    pub hour_weeks: u32,
    /// Drives in the lifetime family.
    pub family_drives: u32,
    /// Drives examined individually in the hour-scale table.
    pub t4_drives: u32,
    /// What the simulators of the experiments' environment runs
    /// record. Off in both presets; the `experiments` binary sets it
    /// from its flags.
    pub obs: ObsConfig,
}

impl ExpConfig {
    /// Paper-scale configuration: one-day millisecond traces, 8-week
    /// hour traces, a 1000-drive family.
    pub fn full() -> Self {
        ExpConfig {
            seed: 20090,
            ms_span_secs: 86_400.0,
            hour_weeks: 8,
            family_drives: 1000,
            t4_drives: 32,
            obs: ObsConfig::disabled(),
        }
    }

    /// Reduced configuration for tests and micro-benchmarks: ~20-minute
    /// millisecond traces, 2-week hour traces, a 60-drive family. Every
    /// qualitative result still holds at this scale.
    pub fn quick() -> Self {
        ExpConfig {
            seed: 20090,
            ms_span_secs: 1_200.0,
            hour_weeks: 2,
            family_drives: 60,
            t4_drives: 8,
            obs: ObsConfig::disabled(),
        }
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_scale() {
        let f = ExpConfig::full();
        let q = ExpConfig::quick();
        assert!(f.ms_span_secs > q.ms_span_secs);
        assert!(f.family_drives > q.family_drives);
        assert_eq!(ExpConfig::default(), f);
        // Observers stay off unless a front end asks for them.
        assert_eq!(f.obs, ObsConfig::disabled());
        assert_eq!(q.obs, ObsConfig::disabled());
    }
}
