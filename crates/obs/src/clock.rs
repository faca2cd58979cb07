//! The workspace's single monotonic-clock access point.
//!
//! Everything in `crates/` that wants wall time goes through [`Stopwatch`]
//! or [`monotonic_ns`]; the root `clippy.toml` bans `std::time::Instant`
//! elsewhere (`disallowed_types`) so no timing can bypass the observability
//! layer.

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide epoch: all [`monotonic_ns`] readings are relative to the
/// first call, so event timestamps from different threads share one origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic epoch.
pub fn monotonic_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A monotonic stopwatch — the replacement for ad-hoc `Instant::now()`
/// pairs in benches and examples.
///
/// ```
/// let sw = ffw_obs::Stopwatch::start();
/// // ... work ...
/// println!("took {:.3} s", sw.elapsed_secs());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Elapsed time as a [`std::time::Duration`] (handy for `{:.1?}`).
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Nanoseconds elapsed since start.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Returns the elapsed seconds and restarts the stopwatch.
    pub fn lap_secs(&mut self) -> f64 {
        let s = self.elapsed_secs();
        self.started = Instant::now();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_nonnegative() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed_ns() < 60_000_000_000, "sane magnitude");
    }

    #[test]
    fn lap_restarts() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let first = sw.lap_secs();
        assert!(first > 0.0);
        assert!(sw.elapsed_secs() <= first + 1.0);
    }
}
