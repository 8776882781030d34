//! Opt-in per-dot-layer timing, for the hot-path benchmarks.
//!
//! The `hotpath_speedup` bench bin needs a per-layer breakdown of where
//! inference time goes, for both the packed fast path and the frozen
//! `reference` baseline. Rather than plumb timing
//! sinks through every call signature, the engine records one
//! [`DotSample`] per dot step into a process-global buffer — patch
//! staging, projection and hashing alike, so samples from datapaths that
//! stage patches differently stay comparable — but **only while a
//! caller has switched the profiler on**; the hot
//! loop's only steady-state cost is one relaxed atomic load.
//!
//! ```
//! use deepcam_core::profile;
//!
//! profile::enable();
//! // ... run engine inference ...
//! let samples = profile::disable_and_take();
//! assert!(samples.is_empty() || samples[0].seconds >= 0.0);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One timed dot step (one layer × one mini-batch × one worker
/// sharding decision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotSample {
    /// Dot-layer index in traversal order.
    pub layer_idx: usize,
    /// Patch rows processed by the call.
    pub rows: usize,
    /// Kernel contexts compared against each row.
    pub m: usize,
    /// Hash width of the layer.
    pub k: usize,
    /// Wall-clock seconds of the whole step (patch staging, projection,
    /// sign pack, Hamming, reconstruction and bias).
    pub seconds: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLES: Mutex<Vec<DotSample>> = Mutex::new(Vec::new());

/// Switches sampling on and clears previously collected samples.
pub fn enable() {
    SAMPLES.lock().expect("profiler lock").clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Switches sampling off and returns everything collected since
/// [`enable`].
pub fn disable_and_take() -> Vec<DotSample> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SAMPLES.lock().expect("profiler lock"))
}

/// Cheap steady-state check used by the engine before timing anything.
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one sample (no-op when sampling is off — callers check
/// [`enabled`] first to avoid even the `Instant` reads).
pub(crate) fn record(sample: DotSample) {
    if enabled() {
        SAMPLES.lock().expect("profiler lock").push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the global profiler state: intra-binary parallelism
    // would make separate enable/disable tests race each other.
    #[test]
    fn enable_take_round_trip_and_disabled_noop() {
        let _ = disable_and_take();
        record(DotSample {
            layer_idx: 0,
            rows: 1,
            m: 1,
            k: 1,
            seconds: 0.5,
        });
        assert!(disable_and_take().is_empty(), "disabled profiler records");
        enable();
        record(DotSample {
            layer_idx: 3,
            rows: 10,
            m: 4,
            k: 256,
            seconds: 0.25,
        });
        let samples = disable_and_take();
        // Other tests' engine runs may interleave while the profiler is
        // on, so assert containment rather than exact length.
        assert!(samples
            .iter()
            .any(|s| s.layer_idx == 3 && s.seconds == 0.25));
        // Taking drains the buffer.
        assert!(disable_and_take().is_empty());
    }
}
