//! Command-line plumbing shared by the `octopocs` and `octopocsd`
//! binaries: one argv walker, one usage-error exit, and one parser for
//! the engine flags every verifying command takes.
//!
//! Each command passes [`EngineFlags::flag`] the subset of
//! [`ENGINE_FLAGS`] it accepts, so a flag outside that subset stays an
//! unknown flag of that command, and every accepted flag is validated
//! the same way everywhere.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use octo_cfg::CfgMode;
use octo_faults::FaultPlan;
use octo_sched::WatchdogConfig;
use octo_taint::ContextMode;

use crate::batch::BatchOptions;
use crate::config::PipelineConfig;

/// Every engine flag: `octopocs batch` and `octopocsd` accept all of
/// them.
pub const ENGINE_FLAGS: &[&str] = &[
    "--workers",
    "--deadline-secs",
    "--cache-dir",
    "--retry",
    "--retry-backoff-ms",
    "--watchdog-quiet-secs",
    "--fault-plan",
    "--theta",
    "--accelerate-loops",
    "--static-cfg",
    "--context-free",
    "--prescreen",
];

/// The values still to come on a command line: the cursor a flag takes
/// its value from.
#[derive(Debug)]
pub struct Argv<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl Argv<'_> {
    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    /// The value after `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }

    /// The value after `flag`, parsed as a count of at least 1.
    pub fn parse_nonzero<T: FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
    ) -> Result<T, String>
    where
        T::Err: Display,
    {
        let n: T = self.parse(flag)?;
        if n == T::default() {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }

    /// The value after `flag`, parsed as a positive, finite number of
    /// seconds.
    pub fn seconds(&mut self, flag: &str) -> Result<Duration, String> {
        let secs: f64 = self.parse(flag)?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("{flag} must be positive"));
        }
        Ok(Duration::from_secs_f64(secs))
    }
}

/// Walks `argv` flag by flag: `on_flag` gets each flag and the cursor it
/// takes any value from. The first error stops the walk.
pub fn walk<'a>(
    argv: &'a [String],
    mut on_flag: impl FnMut(&'a str, &mut Argv<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let mut args = Argv { rest: argv.iter() };
    while let Some(flag) = args.rest.next() {
        on_flag(flag, &mut args)?;
    }
    Ok(())
}

/// Prints a command-line error — `msg` when it is not empty, then
/// `usage` — and returns exit code 3.
pub fn usage_error(usage: &str, msg: &str) -> ExitCode {
    if msg.is_empty() {
        eprintln!("{usage}");
    } else {
        eprintln!("{msg}\n{usage}");
    }
    ExitCode::from(3)
}

/// The engine settings a command line builds: batch options and the
/// pipeline configuration, both starting from their defaults.
#[derive(Debug, Clone, Default)]
pub struct EngineFlags {
    /// Scheduler, deadline, cache, retry, watchdog and fault knobs.
    pub options: BatchOptions,
    /// Pipeline knobs.
    pub config: PipelineConfig,
}

impl EngineFlags {
    /// Parses `flag` when `accepted` lists it, taking its value from
    /// `args`; `Ok(false)` for any other flag.
    pub fn flag(
        &mut self,
        flag: &str,
        args: &mut Argv<'_>,
        accepted: &[&str],
    ) -> Result<bool, String> {
        if !accepted.contains(&flag) {
            return Ok(false);
        }
        let (options, config) = (&mut self.options, &mut self.config);
        match flag {
            "--workers" => options.workers = args.parse_nonzero(flag)?,
            "--deadline-secs" => options.deadline = Some(args.seconds(flag)?),
            "--cache-dir" => options.cache_dir = Some(PathBuf::from(args.value(flag)?)),
            "--retry" => options.retry.max_attempts = args.parse_nonzero(flag)?,
            "--retry-backoff-ms" => {
                let ms: u64 = args.parse(flag)?;
                if ms == 0 {
                    return Err(format!(
                        "{flag} must be positive (omit the flag for no backoff)"
                    ));
                }
                options.retry.base_backoff = Duration::from_millis(ms);
            }
            "--watchdog-quiet-secs" => {
                options.watchdog = Some(WatchdogConfig::with_quiet(args.seconds(flag)?))
            }
            "--fault-plan" => {
                let path = args.value(flag)?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let plan = FaultPlan::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
                options.faults = Some(Arc::new(plan));
            }
            "--theta" => config.theta = args.parse(flag)?,
            "--accelerate-loops" => config.loop_acceleration = true,
            "--static-cfg" => config.cfg_mode = CfgMode::Static,
            "--context-free" => config.taint_context = ContextMode::ContextFree,
            "--prescreen" => config.static_prescreen = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<EngineFlags, String> {
        let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
        let mut engine = EngineFlags::default();
        walk(&argv, |flag, args| {
            if engine.flag(flag, args, ENGINE_FLAGS)? {
                Ok(())
            } else {
                Err(format!("unknown flag `{flag}`"))
            }
        })?;
        Ok(engine)
    }

    #[test]
    fn engine_flags_set_options_and_config() {
        let engine = parse(&[
            "--workers",
            "3",
            "--deadline-secs",
            "1.5",
            "--retry",
            "2",
            "--retry-backoff-ms",
            "7",
            "--theta",
            "9",
            "--static-cfg",
            "--prescreen",
        ])
        .unwrap();
        assert_eq!(engine.options.workers, 3);
        assert_eq!(engine.options.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(engine.options.retry.max_attempts, 2);
        assert_eq!(engine.options.retry.base_backoff, Duration::from_millis(7));
        assert_eq!(engine.config.theta, 9);
        assert_eq!(engine.config.cfg_mode, CfgMode::Static);
        assert!(engine.config.static_prescreen);
        assert!(!engine.config.loop_acceleration);
    }

    #[test]
    fn values_are_validated_and_errors_name_the_flag() {
        for (argv, want) in [
            (&["--workers", "0"][..], "--workers must be at least 1"),
            (&["--retry", "0"], "--retry must be at least 1"),
            (
                &["--deadline-secs", "nan"],
                "--deadline-secs must be positive",
            ),
            (
                &["--watchdog-quiet-secs", "-1"],
                "--watchdog-quiet-secs must be positive",
            ),
            (
                &["--retry-backoff-ms", "0"],
                "--retry-backoff-ms must be positive",
            ),
            (&["--theta", "x"], "bad --theta: "),
            (&["--theta"], "missing value for --theta"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with(want), "{argv:?}: {err}");
        }
    }
}
