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
//! [`BenchArgs`] is the one command-line parser of the bins that write
//! those files: a flag it does not know, or a value it cannot read, stops
//! the run before anything is measured or overwritten.

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

/// The command line of a bench bin: the shared `--out PATH`,
/// `--repeats R` and `--force`, plus the bin's own numeric flags and
/// switches. Every number is a count of at least 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--out PATH`: where to write the JSON.
    pub out: Option<String>,
    /// `--repeats R`: timed runs per measurement.
    pub repeats: Option<usize>,
    /// `--force`: overwrite a JSON recorded on a bigger host.
    pub force: bool,
    numbers: Vec<(String, usize)>,
    switches: Vec<String>,
}

impl BenchArgs {
    /// Parses `args` (the program name excluded); `numeric` names the
    /// bin's own flags that take a count, `switches` those that take
    /// none.
    ///
    /// # Errors
    ///
    /// An unknown flag or stray argument, a flag given twice, a missing
    /// value, or a value that is not a count of at least 1.
    pub fn parse(args: &[String], numeric: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut parsed = BenchArgs::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if args.iter().filter(|a| *a == flag).count() > 1 {
                return Err(format!("{flag} given twice"));
            }
            let mut value = || match rest.next() {
                Some(v) if !v.starts_with("--") => Ok(v.clone()),
                _ => Err(format!("{flag} needs a value")),
            };
            let count = |v: String| match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("{flag} needs a count of at least 1, not {v:?}")),
            };
            match flag.as_str() {
                "--out" => parsed.out = Some(value()?),
                "--repeats" => parsed.repeats = Some(count(value()?)?),
                "--force" => parsed.force = true,
                f if numeric.contains(&f) => parsed.numbers.push((f.into(), count(value()?)?)),
                f if switches.contains(&f) => parsed.switches.push(f.into()),
                f => return Err(format!("unknown argument {f:?}")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process's arguments; on a fault, prints it and `usage`
    /// and exits with status 2.
    // analyze: allow(determinism, "reads the command line and reports a refusal; runs before any timing, never inside a kernel")
    pub fn from_env(usage: &str, numeric: &[&str], switches: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::parse(&args, numeric, switches).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {usage}");
            std::process::exit(2)
        })
    }

    /// The value of the bin's numeric flag `flag`, if given.
    pub fn number(&self, flag: &str) -> Option<usize> {
        self.numbers
            .iter()
            .find(|(f, _)| f == flag)
            .map(|&(_, v)| v)
    }

    /// Whether the bin's switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|f| f == flag)
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<BenchArgs, String> {
        BenchArgs::parse(&args(line), &["--images"], &["--smoke"])
    }

    #[test]
    fn parses_shared_and_own_flags() {
        let got = parse("--out x.json --repeats 3 --force --images 4 --smoke").unwrap();
        assert_eq!(got.out.as_deref(), Some("x.json"));
        assert_eq!(got.repeats, Some(3));
        assert!(got.force && got.switch("--smoke"));
        assert_eq!(got.number("--images"), Some(4));
        assert_eq!(parse("").unwrap(), BenchArgs::default());
        assert_eq!(parse("--force").unwrap().number("--images"), None);
    }

    #[test]
    fn refuses_a_bare_out() {
        // Falling back to the default path would overwrite the committed
        // JSON.
        assert!(parse("--out").unwrap_err().contains("--out needs a value"));
        assert!(parse("--out --force").is_err());
    }

    #[test]
    fn refuses_an_unparsable_or_zero_count() {
        for line in [
            "--repeats x",
            "--repeats -1",
            "--repeats 0",
            "--repeats",
            "--images 2.5",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn refuses_unknown_flags_and_stray_arguments() {
        assert!(parse("--repeat 3")
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse("--clients 4").is_err(), "another bin's flag");
        assert!(parse("extra").is_err());
        assert!(parse("--images 2 5").is_err());
    }

    #[test]
    fn refuses_a_repeated_flag() {
        assert!(parse("--repeats 2 --repeats 3")
            .unwrap_err()
            .contains("twice"));
        assert!(parse("--force --force").is_err());
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
