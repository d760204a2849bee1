//! Command line of the benchmark binary.

use crate::Result;

/// Usage text printed on a bad command line.
pub const USAGE: &str = "usage: perfbench --workload <store_multi|cluster_2w|live_append|all> \
     [--seed N] [--seconds S] [--trace 0|1] [--scale F]";

/// Parsed arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, or `all` to run every workload in turn.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of closed-loop measurement.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input-size multiplier; 1.0 is the benchmark's size, the smoke
    /// test uses a tiny one.
    pub scale: f64,
}

impl Args {
    /// Parses `--key value` pairs (the program name already stripped).
    ///
    /// # Errors
    ///
    /// Unknown keys, missing values, unparsable numbers, a missing
    /// `--workload` and out-of-range values.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args> {
        let mut workload = None;
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
            scale: 1.0,
        };
        let mut it = argv.into_iter();
        while let Some(key) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {key} {value:?}: {e}");
            match key.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"want 0 or 1").into()),
                    }
                }
                "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
                _ => return Err(format!("unknown argument {key}\n{USAGE}").into()),
            }
        }
        args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        if !(args.scale > 0.0 && args.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".into());
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(argv("--workload hit --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "hit");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.scale, 1.0);
        assert!(Args::parse(argv("--seed 7")).is_err());
        assert!(Args::parse(argv("--workload x --trace 2")).is_err());
        assert!(Args::parse(argv("--workload x --bogus 1")).is_err());
        assert!(Args::parse(argv("--workload x --seconds")).is_err());
    }
}
