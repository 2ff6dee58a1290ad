//! The strict `--flag [value]` parser shared by the bench binaries.
//!
//! A binary declares its switches (flags without a value) and its options
//! (flags taking exactly one value). Anything else on the command line — an
//! unknown flag, a missing value, a flag given twice, a value that does not
//! parse — is a usage error: the binary prints one `error:` line and exits
//! with status 2, instead of panicking or quietly running with a default
//! the caller did not ask for.

use std::fmt::Display;
use std::str::FromStr;

/// Command-line flags, checked against the binary's declared flag set.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `args` (program name excluded) against the declared
    /// `switches` and `options`.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&'static str],
        options: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags { given: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (name, value) = if let Some(&name) = switches.iter().find(|&&s| s == arg) {
                (name, None)
            } else if let Some(&name) = options.iter().find(|&&s| s == arg) {
                (name, Some(args.next().ok_or_else(|| format!("{name} expects a value"))?))
            } else {
                return Err(format!("unknown argument {arg:?}"));
            };
            if flags.has(name) {
                return Err(format!("{name} given twice"));
            }
            flags.given.push((name, value));
        }
        Ok(flags)
    }

    /// Parses the process arguments; a usage error exits with status 2.
    pub fn from_env(switches: &[&'static str], options: &[&'static str]) -> Flags {
        Flags::parse(std::env::args().skip(1), switches, options).unwrap_or_else(|e| usage_error(e))
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The raw value of option `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Option `name` parsed as `T`, or `default` when it was not given. A
    /// value that does not parse is a usage error (exit status 2).
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                usage_error(format!("{name} expects {}, got {v:?}", std::any::type_name::<T>()))
            }),
        }
    }
}

/// Prints `error: {msg}` and exits with status 2, the usage-error status of
/// every bench binary.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), &["--replay"], &["--nodes", "--out"])
    }

    #[test]
    fn declared_flags_parse_and_defaults_fill_the_rest() {
        let flags = parse(&["--nodes", "40", "--replay"]).unwrap();
        assert!(flags.has("--replay"));
        assert_eq!(flags.get("--nodes", 7usize), 40);
        assert_eq!(flags.value("--out"), None);
        assert_eq!(flags.get("--out", "x.json".to_string()), "x.json");
    }

    #[test]
    fn unknown_repeated_and_valueless_flags_are_rejected() {
        assert_eq!(parse(&["--bogus", "1"]).unwrap_err(), "unknown argument \"--bogus\"");
        assert_eq!(parse(&["--nodes"]).unwrap_err(), "--nodes expects a value");
        assert_eq!(parse(&["--replay", "--replay"]).unwrap_err(), "--replay given twice");
        assert_eq!(parse(&["40"]).unwrap_err(), "unknown argument \"40\"");
    }
}
