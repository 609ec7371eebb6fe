//! Strict command line: four subcommands, five flags, nothing ignored.
//! An unknown flag, a flag without its value, a value that does not
//! parse, or a repeated flag is an error — a typo never silently runs
//! the default mode.

use std::path::PathBuf;

use crate::spec::{Workload, DEFAULT_SECONDS};

/// Usage text, printed with every parse error.
pub const USAGE: &str = "\
usage: e2e <run|check|repeat> [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out PATH]
       e2e compare A.json B.json

  run      every workload five times (or --workload NAME once, in this process), checks outputs, prints every metric
  check    every workload at 1/20 size with the full §3 trace replay (the only small mode)
  repeat   two full sets, runs alternating, then compares them; --out DIR writes set-a.json and set-b.json
  compare  per workload × end-to-end metric: both medians, relative difference, spread, bound; non-zero on breach

  --workload  session_zipf | session_mixed | engine_match | engine_contend
  --seed      generator seed (default 1)
  --seconds   nominal length of each measured phase; operation counts are fixed functions of it (default 12)
  --trace     1: also run the traced phase and the replay probes (per-layer table); default 0
  --out       write the result set (run, check) or both sets (repeat: a directory) as JSON";

/// Options of `run`, `check` and `repeat`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Opts {
    /// Restrict to one workload (runs in this process).
    pub workload: Option<Workload>,
    /// Generator seed.
    pub seed: u64,
    /// Nominal seconds per measured phase.
    pub seconds: u64,
    /// Run the traced phase too.
    pub traced: bool,
    /// Where to write JSON.
    pub out: Option<PathBuf>,
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `e2e run`.
    Run(Opts),
    /// `e2e check`.
    Check(Opts),
    /// `e2e repeat`.
    Repeat(Opts),
    /// `e2e compare A B`.
    Compare(PathBuf, PathBuf),
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    match sub.as_str() {
        "compare" => match rest {
            [a, b] if !a.starts_with("--") && !b.starts_with("--") => {
                Ok(Command::Compare(a.into(), b.into()))
            }
            _ => Err("compare takes exactly two result files".into()),
        },
        "run" => opts(rest).map(Command::Run),
        "check" => {
            let o = opts(rest)?;
            if rest.iter().any(|a| a == "--seconds") {
                return Err("check has one fixed size; --seconds does not apply".into());
            }
            Ok(Command::Check(o))
        }
        "repeat" => opts(rest).map(Command::Repeat),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut seen: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if seen.contains(&flag) {
            return Err(format!("`{flag}` given twice"));
        }
        seen.push(flag);
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("`--seed {v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = match v.parse() {
                    Ok(s @ 1..=60) => s,
                    _ => {
                        return Err(format!(
                            "`--seconds {v}` is not a whole number from 1 to 60"
                        ))
                    }
                };
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace {v}`: expected 0 or 1")),
                };
            }
            "--out" => o.out = Some(value()?.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_documented_forms() {
        let Ok(Command::Run(o)) =
            parse_str("run --workload engine_match --seed 7 --seconds 10 --trace 1")
        else {
            panic!("driver form must parse")
        };
        assert_eq!(o.workload, Some(Workload::EngineMatch));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 10, true));
        assert!(
            matches!(parse_str("run"), Ok(Command::Run(o)) if !o.traced && o.seconds == DEFAULT_SECONDS)
        );
        assert!(matches!(parse_str("run --trace 0"), Ok(Command::Run(o)) if !o.traced));
        assert!(matches!(parse_str("check --trace 1"), Ok(Command::Check(o)) if o.traced));
        assert!(
            matches!(parse_str("repeat --out results"), Ok(Command::Repeat(o)) if o.out.is_some())
        );
        assert!(matches!(
            parse_str("compare a.json b.json"),
            Ok(Command::Compare(..))
        ));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "",
            "bench",
            "run --quick",
            "run --sead 3",
            "run --seed",
            "run --seed --trace",
            "run --traced",
            "run --seed x",
            "run --seconds 0",
            "run --seconds 61",
            "run --trace 2",
            "run --trace",
            "run --workload zipf",
            "run --seed 1 --seed 2",
            "run --trace 0 --trace 1",
            "run extra",
            "check --seconds 5",
            "compare a.json",
            "compare a.json b.json c.json",
            "compare --out b.json",
        ] {
            assert!(parse_str(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
