//! `--flag value` command-line parsing, nothing more.

use std::str::FromStr;

pub struct Args(Vec<String>);

impl Args {
    pub fn new(args: Vec<String>) -> Args {
        Args(args)
    }

    /// The value following `flag`, if the flag is present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// `flag`'s value parsed as `T`, or `default` when the flag is absent.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.flag(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    /// Arguments that are neither flags nor flag values, in order.
    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.0 {
            if skip {
                skip = false;
            } else if a.starts_with("--") {
                skip = !BOOLEAN_FLAGS.contains(&a.as_str());
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 3] = ["--smoke", "--ladder", "--setup-only"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_values_and_positionals() {
        let a = Args::new(
            [
                "compare", "--bench", "B.json", "a.json", "--smoke", "b.json",
            ]
            .map(String::from)
            .to_vec(),
        );
        assert_eq!(a.value("--bench"), Some("B.json"));
        assert!(a.flag("--smoke") && !a.flag("--ladder"));
        assert_eq!(a.positional(), ["compare", "a.json", "b.json"]);
        assert_eq!(a.num("--seed", 1u64), Ok(1));
        assert!(Args::new(vec!["--seed".into(), "x".into()])
            .num("--seed", 1u64)
            .is_err());
        assert!(Args::new(vec!["--seed".into()])
            .num("--seed", 1u64)
            .is_err());
    }
}
