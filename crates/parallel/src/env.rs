//! One shared grammar for `DYNAQUAR_*` environment overrides.
//!
//! Every knob the simulator reads from the environment (the worker
//! count, [`THREADS_ENV`](crate::THREADS_ENV)) parses through
//! [`env_override`]: unset and empty values defer silently, values the
//! caller maps to [`EnvParse::Default`] (like an explicit `auto`) defer
//! silently, and anything else earns exactly one process-wide warning
//! per variable naming the rejected value before falling back — a typo
//! must never silently change behaviour *without saying so*.
//!
//! The helper lives in this crate because it is the bottom of the
//! dependency stack: [`ParallelConfig::from_env`](crate::ParallelConfig::from_env)
//! consumes it, and `netsim::env` re-exports the full catalogue of
//! variables for discoverability.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// How a caller classifies the trimmed, non-empty value of its
/// environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvParse<T> {
    /// A usable override; [`env_override`] returns it.
    Value(T),
    /// A value that explicitly requests the built-in default (for
    /// example `auto`); treated exactly like an unset variable.
    Default,
    /// An unrecognized value: fall back like [`EnvParse::Default`], but
    /// emit the one-shot warning naming it.
    Invalid,
}

/// Variables that have already warned this process. One entry per
/// variable, not per value: a runner looping over thousands of
/// simulations must not scroll the real diagnostics away.
fn warned() -> &'static Mutex<BTreeSet<&'static str>> {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Reads `var`, trims it, and classifies it through `parse`.
///
/// Returns `Some(value)` only for [`EnvParse::Value`]; unset, empty,
/// [`EnvParse::Default`], and [`EnvParse::Invalid`] all yield `None`,
/// and the invalid case additionally prints one uniform warning per
/// variable per process:
///
/// ```text
/// warning: ignoring invalid DYNAQUAR_THREADS="fast"; expected a positive worker count (falling back to available parallelism)
/// ```
///
/// `expected` supplies everything after `expected ` — name the accepted
/// grammar *and* the fallback so the user knows both what to type and
/// what they are getting instead.
pub fn env_override<T>(
    var: &'static str,
    expected: &str,
    parse: impl FnOnce(&str) -> EnvParse<T>,
) -> Option<T> {
    let raw = match std::env::var(var) {
        Ok(v) => v,
        Err(_) => return None,
    };
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    match parse(value) {
        EnvParse::Value(v) => Some(v),
        EnvParse::Default => None,
        EnvParse::Invalid => {
            let mut seen = warned().lock().unwrap_or_else(|e| e.into_inner());
            if seen.insert(var) {
                eprintln!("warning: ignoring invalid {var}={value:?}; expected {expected}");
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_positive(v: &str) -> EnvParse<usize> {
        if v.eq_ignore_ascii_case("auto") {
            return EnvParse::Default;
        }
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => EnvParse::Value(n),
            _ => EnvParse::Invalid,
        }
    }

    // Each test owns a distinct variable name: tests in one binary share
    // the process environment.

    #[test]
    fn unset_and_empty_defer_silently() {
        assert_eq!(
            env_override("DYNAQUAR_TEST_UNSET", "a count", parse_positive),
            None
        );
        std::env::set_var("DYNAQUAR_TEST_EMPTY", "   ");
        assert_eq!(
            env_override("DYNAQUAR_TEST_EMPTY", "a count", parse_positive),
            None
        );
    }

    #[test]
    fn valid_values_come_back_trimmed() {
        std::env::set_var("DYNAQUAR_TEST_VALID", "  7 ");
        assert_eq!(
            env_override("DYNAQUAR_TEST_VALID", "a count", parse_positive),
            Some(7)
        );
    }

    #[test]
    fn explicit_auto_is_the_default_not_an_error() {
        std::env::set_var("DYNAQUAR_TEST_AUTO", "Auto");
        assert_eq!(
            env_override("DYNAQUAR_TEST_AUTO", "a count", parse_positive),
            None
        );
    }

    #[test]
    fn invalid_values_fall_back() {
        std::env::set_var("DYNAQUAR_TEST_BAD", "fast");
        assert_eq!(
            env_override("DYNAQUAR_TEST_BAD", "a count", parse_positive),
            None
        );
        // Second read still falls back (and the warned-set keeps it to
        // one line of stderr, though that part is not assertable here).
        assert_eq!(
            env_override("DYNAQUAR_TEST_BAD", "a count", parse_positive),
            None
        );
    }
}
