//! Fault-injection configuration and the `SPECWISE_FAULTS` knob.

use std::time::Duration;

/// Environment variable holding a fault-injection spec
/// (`seed:rate:kinds`, see [`FaultConfig::parse`]).
pub const FAULTS_ENV_VAR: &str = "SPECWISE_FAULTS";

/// One class of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The simulation "fails to converge": the evaluation returns
    /// `CktError::Simulation(MnaError::NoConvergence)` without touching
    /// the wrapped environment.
    NonConvergence,
    /// The evaluation "succeeds" with all-NaN performances — the silent
    /// failure mode degradation policies must catch (`NaN < 0.0` is false,
    /// so an unguarded pass/fail test would count NaN as passing).
    NanPerformance,
    /// The evaluation completes correctly but only after a latency spike
    /// (a deterministic sleep), exercising timeout-free slow paths.
    LatencySpike,
    /// The evaluation panics mid-flight; the evaluation engine must
    /// isolate it via `catch_unwind` instead of aborting the process.
    WorkerPanic,
}

impl FaultKind {
    /// Every kind, in the order used by spec strings and reports.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::NonConvergence,
        FaultKind::NanPerformance,
        FaultKind::LatencySpike,
        FaultKind::WorkerPanic,
    ];

    /// Stable index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::NonConvergence => 0,
            FaultKind::NanPerformance => 1,
            FaultKind::LatencySpike => 2,
            FaultKind::WorkerPanic => 3,
        }
    }

    /// The spec-string token of this kind (`nonconv`, `nan`, `latency`,
    /// `panic`).
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::NonConvergence => "nonconv",
            FaultKind::NanPerformance => "nan",
            FaultKind::LatencySpike => "latency",
            FaultKind::WorkerPanic => "panic",
        }
    }

    fn from_token(token: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.token() == token)
    }
}

/// Configuration of a [`FaultInjector`](crate::FaultInjector).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every fault decision. Two injectors with the same
    /// seed fault the same points.
    pub seed: u64,
    /// Probability in `[0, 1]` that a given evaluation point is faulted.
    pub rate: f64,
    /// Enabled fault kinds; the faulted point's hash picks among them.
    pub kinds: Vec<FaultKind>,
    /// When `true` (the default), a point faults only on its *first*
    /// evaluation: a same-point retry succeeds, so a retrying engine
    /// produces results bit-identical to a fault-free run.
    pub transient: bool,
    /// Sleep duration of a [`FaultKind::LatencySpike`].
    pub latency: Duration,
}

impl FaultConfig {
    /// A configuration injecting every kind at `rate` with `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            rate,
            kinds: FaultKind::ALL.to_vec(),
            transient: true,
            latency: Duration::from_millis(5),
        }
    }

    /// Restricts the injected kinds.
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets whether faults are transient (first evaluation only) or
    /// persistent (every evaluation of a faulted point fails).
    #[must_use]
    pub fn with_transient(mut self, transient: bool) -> Self {
        self.transient = transient;
        self
    }

    /// Parses a `seed:rate:kinds` spec string: `seed` a `u64`, `rate` a
    /// probability in `[0, 1]`, `kinds` a comma-separated subset of
    /// `nonconv,nan,latency,panic` or `all`. The kinds field may be
    /// omitted (`seed:rate`), meaning `all`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the problem, suitable for the
    /// stderr warning [`FaultConfig::from_env`] prints.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut fields = spec.trim().splitn(3, ':');
        let seed_str = fields.next().unwrap_or("");
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| format!("bad seed {seed_str:?} (expected u64)"))?;
        let rate_str = fields
            .next()
            .ok_or_else(|| "missing rate field (expected seed:rate[:kinds])".to_string())?;
        let rate: f64 = rate_str
            .trim()
            .parse()
            .map_err(|_| format!("bad rate {rate_str:?} (expected f64)"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} outside [0, 1]"));
        }
        let kinds = match fields.next().map(str::trim) {
            None | Some("") | Some("all") => FaultKind::ALL.to_vec(),
            Some(list) => {
                let mut kinds = Vec::new();
                for token in list.split(',') {
                    let token = token.trim();
                    let kind = FaultKind::from_token(token).ok_or_else(|| {
                        format!("unknown fault kind {token:?} (expected nonconv, nan, latency, panic, or all)")
                    })?;
                    if !kinds.contains(&kind) {
                        kinds.push(kind);
                    }
                }
                kinds
            }
        };
        Ok(FaultConfig::new(seed, rate).with_kinds(&kinds))
    }

    /// Reads `SPECWISE_FAULTS` from the process environment. Unset returns
    /// `None`; a set-but-malformed value also returns `None`, after a
    /// one-line stderr warning naming the variable and the rejected value.
    pub fn from_env() -> Option<FaultConfig> {
        let raw = std::env::var(FAULTS_ENV_VAR).ok()?;
        match FaultConfig::parse(&raw) {
            Ok(cfg) => Some(cfg),
            Err(why) => {
                eprintln!(
                    "specwise: ignoring malformed {FAULTS_ENV_VAR}={raw:?}: {why}; \
                     injecting no faults"
                );
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let cfg = FaultConfig::parse("42:0.1:nonconv,panic").unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.rate, 0.1);
        assert_eq!(
            cfg.kinds,
            vec![FaultKind::NonConvergence, FaultKind::WorkerPanic]
        );
        assert!(cfg.transient);
    }

    #[test]
    fn kinds_field_defaults_to_all() {
        assert_eq!(
            FaultConfig::parse("7:0.05").unwrap().kinds,
            FaultKind::ALL.to_vec()
        );
        assert_eq!(
            FaultConfig::parse("7:0.05:all").unwrap().kinds,
            FaultKind::ALL.to_vec()
        );
    }

    #[test]
    fn rejects_malformed_specs_with_a_reason() {
        for (spec, needle) in [
            ("x:0.1:all", "bad seed"),
            ("1", "missing rate"),
            ("1:lots", "bad rate"),
            ("1:1.5", "outside [0, 1]"),
            ("1:0.1:meteor", "unknown fault kind"),
        ] {
            let err = FaultConfig::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_token(kind.token()), Some(kind));
            assert_eq!(FaultKind::ALL[kind.index()], kind);
        }
    }
}
