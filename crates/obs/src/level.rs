//! The global recording level and its `JCC_OBS` / `--quiet` parsing.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing; every instrumentation hook is a near-free check.
    Off,
    /// Record metrics (counters, gauges, histograms, span timings).
    Summary,
}

impl ObsLevel {
    /// Parse the `JCC_OBS` value. Unknown strings fall back to `Summary`
    /// (the bench default), so a typo degrades loudly rather than silently
    /// disabling observation.
    pub fn parse(s: &str) -> ObsLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => ObsLevel::Off,
            _ => ObsLevel::Summary,
        }
    }

    /// The level's canonical name (`off` / `summary`).
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Summary => "summary",
        }
    }
}

/// 0 = off, 1 = summary. Off by default: libraries and tests
/// pay nothing unless a binary opts in.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Set the global recording level.
pub fn set_level(level: ObsLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global recording level.
pub fn level() -> ObsLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => ObsLevel::Off,
        _ => ObsLevel::Summary,
    }
}

/// True when recording is on (`summary`). The hot-path guard: one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

/// Resolve the level a bench binary should run at: `JCC_OBS` if set,
/// otherwise `Summary`. (`--quiet` controls printing, not the level; see
/// [`crate::bench::BenchReporter`].)
pub fn level_from_env() -> ObsLevel {
    match std::env::var("JCC_OBS") {
        Ok(v) => ObsLevel::parse(&v),
        Err(_) => ObsLevel::Summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_all_spellings() {
        assert_eq!(ObsLevel::parse("off"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("OFF"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("0"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("none"), ObsLevel::Off);
        assert_eq!(ObsLevel::parse("summary"), ObsLevel::Summary);
        assert_eq!(ObsLevel::parse(" Summary "), ObsLevel::Summary);
        // Unknown values, a stray `trace` among them, degrade to the
        // default, not to off.
        assert_eq!(ObsLevel::parse("verbose"), ObsLevel::Summary);
        assert_eq!(ObsLevel::parse("trace"), ObsLevel::Summary);
    }

    #[test]
    fn names_round_trip() {
        for l in [ObsLevel::Off, ObsLevel::Summary] {
            assert_eq!(ObsLevel::parse(l.name()), l);
        }
    }
}
