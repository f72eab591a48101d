//! Minimal flag parsing for the `experiments` binary.
//!
//! Deliberately tiny (the workspace adds no CLI dependency for one binary):
//! `--name` flags with an optional following value, order-insensitive;
//! [`Args::reject_unknown`] turns a misspelled flag into an error instead
//! of a silently ignored entry.

/// Parsed `--flag [value]` pairs.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Flag name → optional value, in appearance order.
    pub flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses raw arguments (everything after the subcommand).
    pub fn parse(raw: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(name) = arg.strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Args { flags }
    }

    /// True if the flag appeared (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The flag's value, if the flag appeared with one.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as `usize`; `Err` carries a message for the
    /// caller to surface.
    pub fn get_usize(&self, name: &str) -> Result<Option<usize>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} wants a number, got {v:?}")),
        }
    }

    /// `Err` naming the first flag outside `known` (names without the
    /// leading `--`).
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    /// Adds a flag programmatically (used by the `all` command to fan out
    /// variants).
    pub fn with_flag(mut self, name: &str, value: Option<&str>) -> Self {
        self.flags
            .push((name.to_string(), value.map(str::to_string)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_with_and_without_values() {
        let a = parse(&["--trees", "50", "--high", "--out", "dir"]);
        assert_eq!(a.get("trees"), Some("50"));
        assert!(a.has("high"));
        assert_eq!(a.get("high"), None);
        assert_eq!(a.get("out"), Some("dir"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn flag_followed_by_flag_has_no_value() {
        let a = parse(&["--quick", "--trees", "10"]);
        assert_eq!(a.get("quick"), None);
        assert_eq!(a.get_usize("trees").unwrap(), Some(10));
    }

    #[test]
    fn numeric_parsing_reports_errors() {
        let a = parse(&["--trees", "many"]);
        let err = a.get_usize("trees").unwrap_err();
        assert!(err.contains("trees") && err.contains("many"));
        assert_eq!(parse(&[]).get_usize("trees").unwrap(), None);
    }

    #[test]
    fn non_flag_tokens_are_ignored() {
        let a = parse(&["stray", "--seed", "7", "stray2"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.flags.len(), 1);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let known = ["trees", "quick"];
        assert!(parse(&["--trees", "5", "--quick"])
            .reject_unknown(&known)
            .is_ok());
        let err = parse(&["--quick", "--tress", "5"])
            .reject_unknown(&known)
            .unwrap_err();
        assert_eq!(err, "unknown flag --tress");
        assert!(parse(&[]).reject_unknown(&[]).is_ok());
    }

    #[test]
    fn with_flag_appends() {
        let a = parse(&["--quick"]).with_flag("variant", Some("fig9"));
        assert!(a.has("quick"));
        assert_eq!(a.get("variant"), Some("fig9"));
    }
}
