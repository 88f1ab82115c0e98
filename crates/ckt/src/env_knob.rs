//! Shared warn-and-default parsing of `SPECWISE_*` environment knobs.
//!
//! Every knob in the workspace (`SPECWISE_WORKERS`, `SPECWISE_WARM_START`,
//! `SPECWISE_GRAD`, `SPECWISE_ESTIMATOR`, …) follows one contract: an
//! unset variable keeps its default silently; a set-but-malformed value
//! also keeps the default, after a one-line stderr warning naming the
//! variable and the rejected value (a silent fallback here once meant a
//! typo'd `SPECWISE_WORKERS=8x` quietly ran serial).
//!
//! This module is the parser's one home. It lives in `specwise-ckt`
//! because that is the lowest crate in the workspace graph that reads a
//! knob (`SPECWISE_WARM_START` in the warm-start cache); the higher layers
//! import it from here.

use std::str::FromStr;

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
                parse_knob_checked("SPECWISE_WARM_START", raw),
                Ok(Switch(on))
            );
        }
        for raw in ["of", "2"] {
            let err = parse_knob_checked::<Switch>("SPECWISE_WARM_START", raw).unwrap_err();
            assert!(
                err.contains(&format!("SPECWISE_WARM_START={raw:?}")),
                "{err}"
            );
            assert!(err.contains("keeping default"), "{err}");
        }
    }

    #[test]
    fn unset_variables_stay_silent() {
        assert_eq!(
            parse_env_knob::<usize>("SPECWISE_KNOB_THAT_IS_NEVER_SET"),
            None
        );
    }
}
