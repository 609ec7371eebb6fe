//! The command line of every `dps-bench` binary: [`ReportArgs`], the
//! strict flag parser each binary declares its flags to, and [`GATES`],
//! the one table of the gates CI runs, which the `gate <name>` binary
//! dispatches on and `tests/validator.rs` iterates.

use crate::report::Report;
use crate::{analysis, chaos, commute, matchbench, mvcc, recovery, server_load};

/// What one command-line flag takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--name`, no value.
    Bare(&'static str),
    /// `--name N`, a whole number.
    Int(&'static str),
    /// `--name VALUE`, any text.
    Text(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Bare(n) | Flag::Int(n) | Flag::Text(n) => n,
        }
    }
}

/// The flag set of most gates; a gate with a different surface
/// declares its own slice.
pub const GATE_FLAGS: &[Flag] = &[
    Flag::Bare("--quick"),
    Flag::Bare("--json"),
    Flag::Int("--workers"),
    Flag::Int("--seed"),
];

/// One gate CI runs: its name on the `gate` command line, the flags it
/// accepts, and the function that runs it to a [`Report`].
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// `gate <name>`.
    pub name: &'static str,
    /// The flags after the name.
    pub flags: &'static [Flag],
    /// Runs the gate.
    pub run: fn(&ReportArgs) -> Report,
}

/// Every gate, each declared once: read by the `gate` binary and by
/// `tests/validator.rs`.
pub const GATES: [Gate; 7] = [
    Gate {
        name: "analyze",
        flags: &[Flag::Bare("--quick"), Flag::Bare("--json"), Flag::Int("--workers")],
        run: analysis::gate,
    },
    Gate { name: "chaos", flags: GATE_FLAGS, run: chaos::gate },
    Gate {
        name: "matchbench",
        flags: &[Flag::Bare("--quick"), Flag::Bare("--json")],
        run: matchbench::gate,
    },
    Gate { name: "mvcc", flags: GATE_FLAGS, run: mvcc::gate },
    Gate { name: "recovery", flags: GATE_FLAGS, run: recovery::gate },
    Gate { name: "loadgen", flags: GATE_FLAGS, run: server_load::gate },
    Gate { name: "commute", flags: GATE_FLAGS, run: commute::gate },
];

/// Parses `gate <name> [flags…]` (program name excluded): the named
/// [`GATES`] entry and its parsed flags, or the usage message — for a
/// missing or unknown name, or a flag that gate does not accept — which
/// the binary prints before it exits 2.
pub fn parse_gate(
    args: impl IntoIterator<Item = String>,
) -> Result<(&'static Gate, ReportArgs), String> {
    let mut args = args.into_iter();
    let name = args.next();
    let Some(gate) = GATES.iter().find(|g| Some(g.name) == name.as_deref()) else {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        let what = name.map_or("missing gate name".into(), |n| format!("unknown gate `{n}`"));
        return Err(format!("error: {what}\nusage: gate <{}> [flags]", names.join("|")));
    };
    let parsed = ReportArgs::from_args(gate.flags, args)
        .map_err(|e| format!("error: {e}\nusage: gate {} {}", gate.name, usage(gate.flags)))?;
    Ok((gate, parsed))
}

/// `[--quick] [--workers N] …` for a flag set.
fn usage(flags: &[Flag]) -> String {
    let words: Vec<String> = flags
        .iter()
        .map(|f| match f {
            Flag::Bare(n) => format!("[{n}]"),
            Flag::Int(n) => format!("[{n} N]"),
            Flag::Text(n) => format!("[{n} VALUE]"),
        })
        .collect();
    words.join(" ")
}

/// The strict command line every `dps-bench` binary parses through:
/// each bin declares the flags it accepts, and an unknown flag, a
/// missing value, a non-integer value for an [`Flag::Int`] or a
/// repeated flag is an error — a typo never silently runs the default.
#[derive(Clone, Debug)]
pub struct ReportArgs {
    given: Vec<(&'static str, String)>,
}

impl ReportArgs {
    /// Parses the process arguments against `flags`; on an error prints
    /// it with a usage line and exits 2.
    pub fn parse(bin: &str, flags: &[Flag]) -> Self {
        Self::from_args(flags, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {bin} {}", usage(flags));
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument list (program name excluded).
    pub fn from_args(
        flags: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let flag = *flags
                .iter()
                .find(|f| f.name() == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            if given.iter().any(|(n, _)| *n == flag.name()) {
                return Err(format!("`{arg}` given twice"));
            }
            let value = match flag {
                Flag::Bare(_) => String::new(),
                Flag::Int(_) | Flag::Text(_) => it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("`{arg}` needs a value"))?,
            };
            if matches!(flag, Flag::Int(_)) && value.parse::<u64>().is_err() {
                return Err(format!("`{arg} {value}` is not a whole number"));
            }
            given.push((flag.name(), value));
        }
        Ok(ReportArgs { given })
    }

    /// `--quick`: the faster, noisier variant of the sweep.
    pub fn quick(&self) -> bool {
        self.text("--quick").is_some()
    }

    /// `--json`: emit the machine-readable report on stdout.
    pub fn json(&self) -> bool {
        self.text("--json").is_some()
    }

    /// Value of a given flag (empty for a [`Flag::Bare`]); `None` when
    /// the flag was not on the command line.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Value of a given [`Flag::Int`] flag.
    pub fn flag_u64(&self, name: &str) -> Option<u64> {
        self.text(name).map(|v| v.parse().expect("Int flags are checked at parse time"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<ReportArgs, String> {
        ReportArgs::from_args(GATE_FLAGS, list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn report_args_parse_the_declared_surface() {
        let a = args(&["--quick", "--json", "--workers", "12", "--seed", "7"]).unwrap();
        assert!(a.quick() && a.json());
        assert_eq!(a.flag_u64("--workers"), Some(12));
        assert_eq!(a.flag_u64("--seed"), Some(7));
        let empty = args(&[]).unwrap();
        assert!(!empty.quick() && !empty.json());
        assert_eq!(empty.flag_u64("--workers"), None);
        let text = ReportArgs::from_args(&[Flag::Text("--exp")], ["--exp".into(), "e5.1".into()]);
        assert_eq!(text.unwrap().text("--exp"), Some("e5.1"));
    }

    #[test]
    fn report_args_reject_what_they_do_not_understand() {
        for (list, want) in [
            (&["--wokers", "8"][..], "unknown flag `--wokers`"),
            (&["--workers", "x8"][..], "`--workers x8` is not a whole number"),
            (&["--workers"][..], "`--workers` needs a value"),
            (&["--workers", "--json"][..], "`--workers` needs a value"),
            (&["--quick", "--quick"][..], "`--quick` given twice"),
            (&["extra"][..], "unknown flag `extra`"),
        ] {
            assert_eq!(args(list).unwrap_err(), want, "{list:?}");
        }
    }

    fn gate_args(args: &[&str]) -> Result<(&'static Gate, ReportArgs), String> {
        parse_gate(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_or_missing_gate_name_is_a_usage_error() {
        for args in [&["nope"][..], &["scaling"], &["--quick"], &[]] {
            let err = gate_args(args).expect_err("no such gate");
            assert!(err.contains("usage: gate <analyze|chaos|"), "{err}");
        }
        assert!(gate_args(&["nope"]).unwrap_err().contains("unknown gate `nope`"));
    }

    #[test]
    fn a_gate_parses_only_its_own_flags() {
        let (gate, args) = gate_args(&["chaos", "--quick", "--seed", "7"]).unwrap();
        assert_eq!(gate.name, "chaos");
        assert!(args.quick());
        assert_eq!(args.flag_u64("--seed"), Some(7));
        let err = gate_args(&["matchbench", "--workers", "2"]).unwrap_err();
        assert!(err.contains("unknown flag `--workers`"), "{err}");
        assert!(err.contains("usage: gate matchbench [--quick] [--json]"), "{err}");
    }

    #[test]
    fn gate_names_are_unique() {
        for (i, g) in GATES.iter().enumerate() {
            assert!(GATES[..i].iter().all(|h| h.name != g.name), "{} twice", g.name);
        }
    }
}
