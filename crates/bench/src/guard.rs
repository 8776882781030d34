//! Overwrite guard and run statistics for the committed `BENCH_*.json`
//! artifacts.
//!
//! The repo commits benchmark JSONs (`BENCH_perf.json`,
//! `BENCH_compiler.json`, `BENCH_serve.json`) whose numbers are only
//! meaningful together with the `host_cores` they were measured on. The
//! guard stops a casual re-run on a *smaller* machine from silently
//! replacing a measurement from a bigger one. Pass `--force` to
//! overwrite anyway. [`Spread`] is the median with min/max every `perf`
//! timing records, and decides when a ratio of two is a speedup.

/// Number of logical cores on this host (1 when undetectable).
// analyze: allow(determinism, "the guard exists to compare hosts; probing this host is its job")
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Median, minimum and maximum of a set of wall-clock samples, in
/// milliseconds (shared by the bench bins so their statistics can never
/// drift apart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median sample.
    pub median: f64,
    /// The fastest sample.
    pub min: f64,
    /// The slowest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `runs`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample set.
    pub fn of(mut runs: Vec<f64>) -> Spread {
        runs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        Spread {
            median: runs[runs.len() / 2],
            min: runs[0],
            max: runs[runs.len() - 1],
        }
    }

    /// `self.median / after.median` when the two min–max intervals do
    /// not overlap; `None` when they do, so the runs cannot tell the two
    /// apart.
    pub fn speedup_to(&self, after: &Spread) -> Option<f64> {
        (after.max < self.min || self.max < after.min).then(|| self.median / after.median)
    }

    /// The spread as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}",
            self.median, self.min, self.max
        )
    }
}

/// Extracts the `"host_cores": N` field from a committed bench JSON.
///
/// The vendored serde shim has no deserializer, so this is a plain
/// string scan; it returns `None` when the file or field is absent (in
/// which case there is nothing to guard).
pub fn recorded_host_cores(json: &str) -> Option<usize> {
    let key = "\"host_cores\"";
    let start = json.find(key)? + key.len();
    let rest = json[start..].trim_start_matches([':', ' ']);
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The host-core guard's decision for one committed JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Overwriting is fine: nothing committed, no recorded host, the
    /// current host is at least as big, or `--force` was passed.
    Proceed,
    /// The committed JSON was recorded on a bigger host (`recorded` >
    /// `current` cores): keep it.
    KeepExisting {
        /// Cores of the host the committed JSON was measured on.
        recorded: usize,
        /// Cores of this host.
        current: usize,
    },
}

impl GuardVerdict {
    /// Whether the caller should run and overwrite.
    pub fn proceed(&self) -> bool {
        matches!(self, GuardVerdict::Proceed)
    }
}

/// Decides whether `path` may be overwritten by a run on a
/// `current_cores`-core host, **printing the verdict either way**, and
/// returns it. A refusal is a successful outcome (the guard worked), so
/// callers exit 0 after a `KeepExisting` — they just skip the
/// measurement, which costs nothing because this runs before any timing.
// analyze: allow(determinism, "reads the committed JSON and prints the verdict; runs before any timing, never inside a kernel")
pub fn check_overwrite(path: &str, current_cores: usize, force: bool) -> GuardVerdict {
    let recorded = std::fs::read_to_string(path)
        .ok()
        .as_deref()
        .and_then(recorded_host_cores);
    let verdict = match recorded {
        Some(recorded) if recorded > current_cores && !force => GuardVerdict::KeepExisting {
            recorded,
            current: current_cores,
        },
        _ => GuardVerdict::Proceed,
    };
    match verdict {
        GuardVerdict::Proceed => match recorded {
            Some(recorded) => println!(
                "guard: overwriting {path} (recorded on {recorded} cores, this host has \
                 {current_cores}{})",
                if force { ", --force" } else { "" }
            ),
            None => println!("guard: no committed run at {path}; writing a fresh one"),
        },
        GuardVerdict::KeepExisting { recorded, current } => println!(
            "guard: keeping {path} — it records a run on {recorded} cores and this host has \
             only {current}. A smaller machine cannot reproduce multi-core speedups (see the \
             ROADMAP re-measure item); pass --force to overwrite anyway. Exiting 0."
        ),
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_host_cores_field() {
        let json = "{\n  \"experiment\": \"x\",\n  \"host_cores\": 16,\n  \"images\": 4\n}";
        assert_eq!(recorded_host_cores(json), Some(16));
        assert_eq!(recorded_host_cores("{}"), None);
        assert_eq!(recorded_host_cores("{\"host_cores\": \"oops\"}"), None);
    }

    #[test]
    fn speedup_needs_disjoint_intervals() {
        let before = Spread::of(vec![10.0, 12.0, 11.0]);
        assert_eq!(
            before,
            Spread {
                median: 11.0,
                min: 10.0,
                max: 12.0
            }
        );
        let after = Spread::of(vec![5.0, 5.5, 6.0]);
        assert_eq!(before.speedup_to(&after), Some(2.0));
        assert_eq!(after.speedup_to(&before), Some(0.5));
        let overlapping = Spread::of(vec![9.0, 10.5, 9.5]);
        assert_eq!(before.speedup_to(&overlapping), None);
    }

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn guard_verdicts() {
        let dir = std::env::temp_dir().join("deepcam_guard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path_str = path.to_str().unwrap();

        // Nothing committed → proceed.
        let _ = std::fs::remove_file(&path);
        assert!(check_overwrite(path_str, 1, false).proceed());

        // Recorded on a bigger host → keep, but it is a *returned*
        // verdict, not a process exit.
        std::fs::write(&path, "{\"host_cores\": 64}").unwrap();
        assert_eq!(
            check_overwrite(path_str, 1, false),
            GuardVerdict::KeepExisting {
                recorded: 64,
                current: 1
            }
        );
        // --force overrides.
        assert!(check_overwrite(path_str, 1, true).proceed());
        // Equal or bigger host → proceed.
        assert!(check_overwrite(path_str, 64, false).proceed());
        assert!(check_overwrite(path_str, 128, false).proceed());

        std::fs::remove_file(&path).unwrap();
    }
}
