//! Shared warn-and-default parsing of `SPECWISE_*` environment knobs.
//!
//! Every knob in the workspace (`SPECWISE_WORKERS`,
//! `SPECWISE_SERVE_WARM_START`, `SPECWISE_ESTIMATOR`, …) follows one
//! contract: an unset variable keeps its default silently; a
//! set-but-malformed value also keeps the default, after a one-line stderr
//! warning naming the variable and the rejected value (a silent fallback
//! here once meant a typo'd `SPECWISE_WORKERS=8x` quietly ran serial). A
//! set knob the workspace no longer reads prints a one-line notice
//! ([`warn_retired_knobs`]) instead of being ignored.
//!
//! Library call paths never read the environment: only the explicit
//! `from_env` constructors (`ExecConfig`, `ServeConfig`, `EstimatorKind`,
//! `FaultConfig`, `Tracer`) do, and only binaries, examples and benches
//! call those. This module is the parser's one home; it lives in
//! `specwise-ckt` because every crate whose `from_env` uses it depends on
//! `specwise-ckt`.

use std::str::FromStr;
use std::time::Duration;

/// Reads and parses one `SPECWISE_*` environment knob.
///
/// Returns `None` when the variable is unset, and also when it is set but
/// malformed — in that case the standard warning line is printed to
/// stderr first. Callers supply the default via `unwrap_or`/`map_or`.
pub fn parse_env_knob<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match parse_knob_checked(name, &raw) {
        Ok(value) => Some(value),
        Err(warning) => {
            eprintln!("{warning}");
            None
        }
    }
}

/// Parses one `SPECWISE_*` value without touching the process environment;
/// a malformed value yields the warning line [`parse_env_knob`] prints
/// before falling back to the default.
///
/// # Errors
///
/// Returns the warning text when `raw` does not parse as `T`.
pub fn parse_knob_checked<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|_| {
        format!("specwise: ignoring malformed {name}={raw:?} (not a valid value); keeping default")
    })
}

/// An on/off knob value: `1`/`on`/`true` or `0`/`off`/`false`, in any
/// case. Anything else is malformed, so a typo such as `of` warns instead
/// of silently meaning "on".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Switch(pub bool);

impl FromStr for Switch {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "1" | "on" | "true" => Ok(Switch(true)),
            "0" | "off" | "false" => Ok(Switch(false)),
            _ => Err(()),
        }
    }
}

/// A finite float knob value: `nan` and `inf` are malformed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finite(pub f64);

impl FromStr for Finite {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Finite(x)),
            _ => Err(()),
        }
    }
}

/// A duration knob value in seconds. Values [`Duration::try_from_secs_f64`]
/// rejects (negative, non-finite, or too long) are malformed, so `inf` warns
/// instead of panicking the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secs(pub Duration);

impl FromStr for Secs {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        let secs: f64 = s.parse().map_err(|_| ())?;
        Duration::try_from_secs_f64(secs).map(Secs).map_err(|_| ())
    }
}

/// The one-line stderr notice for a retired knob given its raw value
/// (`None` when unset): names the variable and says what replaced it.
pub fn retired_knob_notice(name: &str, hint: &str, raw: Option<&str>) -> Option<String> {
    raw.map(|raw| format!("specwise: {name}={raw:?} is no longer read; {hint}"))
}

/// Prints [`retired_knob_notice`] for every `(name, hint)` in `retired`
/// whose variable is set.
pub fn warn_retired_knobs(retired: &[(&str, &str)]) {
    for &(name, hint) in retired {
        if let Some(notice) = retired_knob_notice(name, hint, std::env::var(name).ok().as_deref()) {
            eprintln!("{notice}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_values_warn_and_name_the_variable() {
        let err = parse_knob_checked::<usize>("SPECWISE_WORKERS", "64x").unwrap_err();
        assert!(err.contains("SPECWISE_WORKERS"), "{err}");
        assert!(err.contains("64x"), "{err}");
        assert!(err.contains("keeping default"), "{err}");
    }

    #[test]
    fn well_formed_values_parse_with_whitespace() {
        assert_eq!(
            parse_knob_checked::<usize>("SPECWISE_WORKERS", " 8 "),
            Ok(8)
        );
        assert_eq!(parse_knob_checked::<f64>("X", "1e-9"), Ok(1e-9));
    }

    #[test]
    fn warm_start_switch_accepts_on_off_words_and_warns_on_typos() {
        let words = [("0", false), ("OFF", false), (" false ", false)]
            .into_iter()
            .chain([("1", true), ("On", true), ("true", true)]);
        for (raw, on) in words {
            assert_eq!(
                parse_knob_checked("SPECWISE_SERVE_WARM_START", raw),
                Ok(Switch(on))
            );
        }
        for raw in ["of", "2"] {
            let err = parse_knob_checked::<Switch>("SPECWISE_SERVE_WARM_START", raw).unwrap_err();
            assert!(
                err.contains(&format!("SPECWISE_SERVE_WARM_START={raw:?}")),
                "{err}"
            );
            assert!(err.contains("keeping default"), "{err}");
        }
    }

    #[test]
    fn finite_rejects_nan_and_infinities() {
        for raw in ["inf", "-inf", "nan", "NaN"] {
            let err = parse_knob_checked::<Finite>("SPECWISE_RETRY_PERTURB", raw).unwrap_err();
            assert!(err.contains("keeping default"), "{err}");
        }
        for (raw, x) in [("1e30", 1e30), ("-1", -1.0), (" 1e-9 ", 1e-9)] {
            assert_eq!(
                parse_knob_checked("SPECWISE_RETRY_PERTURB", raw),
                Ok(Finite(x))
            );
        }
    }

    #[test]
    fn secs_rejects_what_a_duration_cannot_hold() {
        for raw in ["inf", "1e30", "nan", "-1"] {
            let err = parse_knob_checked::<Secs>("SPECWISE_SERVE_LEASE_EXPIRY", raw).unwrap_err();
            assert!(
                err.contains(&format!("SPECWISE_SERVE_LEASE_EXPIRY={raw:?}")),
                "{err}"
            );
        }
        assert_eq!(
            parse_knob_checked("SPECWISE_SERVE_HEARTBEAT", "0.25"),
            Ok(Secs(Duration::from_millis(250)))
        );
    }

    #[test]
    fn retired_knobs_get_one_notice_line() {
        assert_eq!(retired_knob_notice("SPECWISE_GRAD", "gone", None), None);
        let notice = retired_knob_notice("SPECWISE_GRAD", "gone", Some("fd")).unwrap();
        assert_eq!(
            notice,
            "specwise: SPECWISE_GRAD=\"fd\" is no longer read; gone"
        );
    }

    #[test]
    fn unset_variables_stay_silent() {
        assert_eq!(
            parse_env_knob::<usize>("SPECWISE_KNOB_THAT_IS_NEVER_SET"),
            None
        );
    }
}
