//! Minimal flag parsing shared by the harness binaries (no external deps).
//!
//! Each binary declares the flags it accepts and its usage text;
//! [`Args::from_env`] prints the usage and exits 0 on `--help`, and
//! exits 2 with the usage on any undeclared flag, so a mistyped or
//! retired flag is never silently ignored.

use std::collections::HashMap;

/// Parsed `--key value` flags plus positionals.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    pub positional: Vec<String>,
}

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match argv.peek() {
                    Some(v) if !v.starts_with("--") => argv.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                args.flags.insert(key.to_string(), value);
            } else {
                args.positional.push(a);
            }
        }
        args
    }

    /// Parse `argv` against the declared `flags`: `Err(None)` asks for
    /// the usage (`--help`), `Err(Some(flag))` names an undeclared flag.
    pub fn parse_declared(
        argv: impl Iterator<Item = String>,
        flags: &[&str],
    ) -> Result<Args, Option<String>> {
        let args = Self::parse(argv);
        if args.flags.contains_key("help") {
            return Err(None);
        }
        match args.flags.keys().find(|k| !flags.contains(&k.as_str())) {
            Some(unknown) => Err(Some(unknown.clone())),
            None => Ok(args),
        }
    }

    /// The process arguments, parsed against the binary's declared
    /// `flags`. `--help` prints `usage` and exits 0; an undeclared flag
    /// prints an error and `usage` to stderr and exits 2.
    pub fn from_env(usage: &str, flags: &[&str]) -> Args {
        match Self::parse_declared(std::env::args().skip(1), flags) {
            Ok(args) => args,
            Err(None) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(Some(flag)) => {
                eprintln!("unknown flag --{flag}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    pub fn bool(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Comma-separated list flag.
    pub fn list(&self, key: &str, default: &[&str]) -> Vec<String> {
        match self.get(key) {
            Some(s) => s.split(',').map(|x| x.trim().to_string()).collect(),
            None => default.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.get(key) {
            Some(s) => s
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects integers"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse("--secs 0.5 --ns 2,4,8 run --verbose");
        assert_eq!(a.f64("secs", 1.0), 0.5);
        assert_eq!(a.usize_list("ns", &[1]), vec![2, 4, 8]);
        assert!(a.bool("verbose"));
        assert_eq!(a.positional, vec!["run"]);
    }

    fn declared(s: &str) -> Result<Args, Option<String>> {
        Args::parse_declared(s.split_whitespace().map(String::from), &["secs", "ns"])
    }

    #[test]
    fn declared_flags_parse_and_others_are_rejected() {
        let a = declared("--secs 0.5 --ns 2,4 run").unwrap();
        assert_eq!(a.f64("secs", 1.0), 0.5);
        assert_eq!(a.positional, vec!["run"]);
        assert_eq!(
            declared("--secs 1 --workers 2").unwrap_err(),
            Some("workers".into())
        );
        assert_eq!(declared("--help").unwrap_err(), None);
        assert_eq!(declared("--ns 2 --help").unwrap_err(), None, "help wins");
    }

    #[test]
    fn defaults_apply() {
        let a = parse("");
        assert_eq!(a.f64("secs", 0.25), 0.25);
        assert_eq!(a.list("families", &["x", "y"]), vec!["x", "y"]);
        assert!(!a.bool("missing"));
    }
}
