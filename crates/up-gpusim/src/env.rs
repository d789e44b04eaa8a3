//! Warn-once environment-knob parsing, shared by every crate in the
//! workspace.
//!
//! One contract for `UP_SIM_EXEC` and the `UP_NET_*` family: the
//! variable is read once per process (call sites cache in a
//! `OnceLock`), a valid value overrides the default, and a *set but
//! unparsable* value warns once on stderr and behaves like unset —
//! never a panic, never silently meaning something else.
//! Values are trimmed before parsing, so `UP_NET_IDLE_S=" 4 "` works.

/// Reads and parses an environment-variable knob. Returns `None` when
/// the variable is unset or invalid; invalid values additionally warn on
/// stderr. Cache the result in a `OnceLock` so each knob warns at most
/// once per process.
pub fn knob<T>(
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    parse_value(name, expected, std::env::var(name).ok().as_deref(), parse)
}

/// Testable core of [`knob`]: `raw` is the variable's value (`None` when
/// unset). The raw value is trimmed before `parse` sees it; the warning
/// quotes it untrimmed so the user sees exactly what was set.
pub fn parse_value<T>(
    name: &str,
    expected: &str,
    raw: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let raw = raw?;
    let parsed = parse(raw.trim());
    if parsed.is_none() {
        eprintln!("warning: ignoring invalid {name}={raw:?} (expected {expected})");
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none_without_warning() {
        assert_eq!(parse_value("UP_NET_IDLE_S", "idle seconds", None, |v| v
            .parse::<usize>()
            .ok()), None);
    }

    #[test]
    fn values_are_trimmed_and_invalid_ones_ignored() {
        let parse = |v: &str| v.parse::<usize>().ok();
        assert_eq!(parse_value("UP_NET_IDLE_S", "idle seconds", Some("6"), parse), Some(6));
        assert_eq!(parse_value("UP_NET_IDLE_S", "idle seconds", Some(" 8 "), parse), Some(8));
        assert_eq!(parse_value("UP_NET_IDLE_S", "idle seconds", Some("fourteen"), parse), None);
    }

    #[test]
    fn up_sim_exec_knob() {
        use crate::decoded::ExecBackend;
        assert_eq!(
            parse_value(
                "UP_SIM_EXEC",
                "tree | decoded | compiled | auto",
                Some("compiled"),
                ExecBackend::parse
            ),
            Some(ExecBackend::Compiled)
        );
        assert_eq!(
            parse_value(
                "UP_SIM_EXEC",
                "tree | decoded | compiled | auto",
                Some("turbo"),
                ExecBackend::parse
            ),
            None
        );
    }
}
