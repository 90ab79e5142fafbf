//! Observability configuration.

/// What the instrumentation layer is allowed to record.
///
/// The default is fully disabled: instrumented code paths must cost
/// nothing beyond an untaken branch unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record counters, gauges, histograms, and spans.
    pub metrics: bool,
}

impl ObsConfig {
    /// Nothing is recorded (the default).
    pub const fn disabled() -> Self {
        ObsConfig { metrics: false }
    }

    /// The same configuration as [`ObsConfig::metrics_only`]. Kept as
    /// an alias for callers written when a separate event ring existed;
    /// new code uses `metrics_only()`.
    pub const fn enabled() -> Self {
        Self::metrics_only()
    }

    /// Metrics on: counters, histograms and spans are recorded.
    pub const fn metrics_only() -> Self {
        ObsConfig { metrics: true }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = ObsConfig::default();
        assert_eq!(c, ObsConfig::disabled());
        assert!(!c.metrics);
    }

    #[test]
    fn enabled_is_an_alias_of_metrics_only() {
        assert_eq!(ObsConfig::enabled(), ObsConfig::metrics_only());
    }

    #[test]
    fn metrics_only_skips_events() {
        // Simulator events reach only the flight recorder's
        // `drive.events` track; the configuration holds the metrics
        // switch and nothing else.
        let c = ObsConfig::metrics_only();
        assert!(c.metrics);
        assert_eq!(c, ObsConfig { metrics: true });
        assert_ne!(c, ObsConfig::disabled());
    }
}
