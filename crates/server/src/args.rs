//! The argument parser every binary of the workspace shares
//! (`iloc-server`, `iloc-router`, and the bench crate's `loadgen`,
//! `crash_recovery` and `reproduce`): bare `--switch`es and
//! `--name VALUE` pairs, every one declared up front.
//!
//! A flag nobody declared is an error, not something to skip over: a
//! typo such as `--check-alloc` would otherwise switch a CI gate off
//! and leave the job green, and `iloc-server --data-dri DIR` would
//! serve a store with no write-ahead log.

use std::str::FromStr;

/// The parsed command line of one binary.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Every flag given, in order, with its value when it takes one.
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments against the declared `switches`
    /// (no value) and `valued` flags (one value each); prints what is
    /// wrong and exits with status 2 on anything else.
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), switches, valued).unwrap_or_else(|e| die(&e))
    }

    /// [`Args::from_env`] over an explicit argument list, returning the
    /// complaint instead of exiting.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Args, String> {
        let mut args = args.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            let value = if switches.contains(&arg.as_str()) {
                None
            } else if valued.contains(&arg.as_str()) {
                Some(args.next().ok_or_else(|| format!("{arg} needs a value"))?)
            } else {
                let mut known: Vec<&str> = switches.iter().chain(valued).copied().collect();
                known.sort_unstable();
                return Err(format!(
                    "unknown argument {arg} (known: {})",
                    known.join(" ")
                ));
            };
            given.push((arg, value));
        }
        Ok(Args { given })
    }

    /// Whether `name` (a switch or a valued flag) was given at all.
    pub fn given(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The value given for `name`, if any (the first, when it was
    /// given more than once).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).next()
    }

    /// Every value given for a repeatable `name`, in order.
    pub fn values<'a, 'n>(&'a self, name: &'n str) -> impl Iterator<Item = &'a str> + use<'a, 'n> {
        self.given
            .iter()
            .filter(move |(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The value given for `name`, if any, parsed as `T`; a value that
    /// does not parse exits with status 2.
    pub fn optional<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("invalid value for {name}: {v}")))
        })
    }

    /// [`Args::optional`], or `default` when `name` was not given.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> T {
        self.optional(name).unwrap_or(default)
    }
}

/// Prints a usage complaint and exits with status 2.
pub fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            line.split_whitespace().map(String::from),
            &["--quick", "--check-allocs"],
            &["--addr", "--clients", "--node"],
        )
    }

    #[test]
    fn declared_flags_parse_and_everything_else_is_refused() {
        let args = parse("--quick --clients 8").expect("declared flags");
        assert!(args.given("--quick") && args.given("--clients"));
        assert!(!args.given("--check-allocs"));
        assert_eq!(args.value("--clients"), Some("8"));
        assert_eq!(args.parsed("--clients", 4usize), 8);
        assert_eq!(args.parsed("--addr", 7usize), 7);
        assert_eq!(args.optional::<usize>("--addr"), None);

        // A repeated flag keeps every value, in order.
        let args = parse("--node a --quick --node b").expect("repeats");
        assert_eq!(args.values("--node").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(args.value("--node"), Some("a"));
        assert_eq!(args.values("--addr").count(), 0);

        // The typo that used to turn the allocation gate off silently.
        let typo = parse("--quick --check-alloc").expect_err("typo");
        assert!(typo.contains("--check-alloc"), "{typo}");
        assert!(parse("stray").is_err());
        assert!(parse("--clients")
            .expect_err("value")
            .contains("needs a value"));
    }
}
