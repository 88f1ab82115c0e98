//! A SPICE-style netlist deck parser with testbench annotations.
//!
//! The parser is two-layered:
//!
//! 1. [`parse_deck_ast`] turns the text into a [`DeckAst`] — elements whose
//!    values may be `{param}` placeholders, plus typed records for the
//!    testbench directives (`.design`, `.spec`, `.range`, `.match`, …). The
//!    AST can be printed back to canonical deck text with
//!    [`DeckAst::to_deck`] (a `parse → print → parse` round trip is the
//!    identity).
//! 2. [`parse_deck`] (and [`DeckAst::to_circuit`]) lowers the AST to a
//!    [`Circuit`] for direct simulation; every `{param}` placeholder must
//!    have been substituted by then. [`DeckAst::lower`] is the one lowering
//!    behind both: it takes values from a callback and can alias a node,
//!    which is how `specwise-ckt`'s `Testbench` compiles its circuit
//!    templates before binding placeholders to design variables.
//!
//! Supported element lines:
//!
//! ```text
//! * comment lines start with '*', ';' starts an inline comment
//! R<name> <n+> <n-> <value>
//! C<name> <n+> <n-> <value>
//! V<name> <n+> <n-> <value>            ; independent voltage source
//! V<name> <n+> <n-> <value> AC <mag>   ; with AC magnitude
//! I<name> <n+> <n-> <value>            ; independent current source
//! E<name> <n+> <n-> <nc+> <nc-> <gain> ; VCVS
//! G<name> <n+> <n-> <nc+> <nc-> <gm>   ; VCCS
//! M<name> <d> <g> <s> <b> <NMOS|PMOS> W=<value> L=<value>
//! D<name> <a> <k> [IS=<value>] [N=<value>]
//! ```
//!
//! Testbench directives (consumed by `Testbench::from_deck`; ignored when
//! lowering to a plain [`Circuit`]):
//!
//! ```text
//! .name <free text>                    ; environment name
//! .nodes <n1> <n2> ...                 ; pre-declare node ordering
//! .design <var> <unit> <lo> <hi> <init>
//! .spec <name> <unit> <min|max> <bound> <measure>
//! .range <temp|vdd> <lo> <hi>
//! .match <dev> [<dev> ...]             ; local-mismatch group
//! .tb <key> <value>                    ; harness wiring (vinp, out, ...)
//! .temp <celsius>
//! .end
//! ```
//!
//! Values accept the SPICE magnitude suffixes `T G MEG K M U N P F`
//! (case-insensitive; `M` is milli, `MEG` is 1e6) with an optional trailing
//! unit word (`10K`, `2.5u`, `1.2pF`, `3meg`), or a `{param}` placeholder.
//!
//! MOSFETs use the built-in Level-1 model cards
//! ([`MosfetModel::default_nmos`]/[`MosfetModel::default_pmos`]); per-deck
//! model cards are out of scope.

use crate::{Circuit, MnaError, MosPolarity, MosfetModel, MosfetParams, NodeId};

/// Parses a numeric field with SPICE magnitude suffixes.
fn parse_value(token: &str, line: usize) -> Result<f64, ParseDeckError> {
    let t = token.trim();
    if t.is_empty() {
        return Err(ParseDeckError::BadValue {
            line,
            token: token.to_string(),
        });
    }
    // Split the leading numeric part from the suffix.
    let num_end = t
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(t.len());
    // Guard against exponents like 1e-9 whose '-' follows 'e'.
    let (num_str, suffix) = t.split_at(num_end);
    let base: f64 = num_str.parse().map_err(|_| ParseDeckError::BadValue {
        line,
        token: token.to_string(),
    })?;
    let suffix = suffix.to_ascii_lowercase();
    let scale = if suffix.starts_with("meg") {
        1e6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            // A bare unit word like "V" or "Ohm".
            Some(c) if c.is_ascii_alphabetic() => 1.0,
            Some(_) => {
                return Err(ParseDeckError::BadValue {
                    line,
                    token: token.to_string(),
                });
            }
        }
    };
    let value = base * scale;
    // Overflowed literals ("1e999") and any suffix-scaled overflow must be
    // rejected here: a non-finite value poisons every downstream consumer
    // and prints as "inf"/"NaN", which the parser itself cannot read back.
    if !value.is_finite() {
        return Err(ParseDeckError::BadValue {
            line,
            token: token.to_string(),
        });
    }
    Ok(value)
}

/// Hard ingestion limits for deck text, enforced by
/// [`parse_deck_ast_limited`] (and, with the defaults below, by
/// [`parse_deck_ast`] itself).
///
/// These bound the work an untrusted deck can demand before any circuit is
/// built: total size, directive and element counts, and `{param}` brace
/// nesting. Violations surface as typed [`ParseDeckError`] variants — the
/// parser never panics on hostile input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeckLimits {
    /// Maximum deck size in bytes.
    pub max_bytes: usize,
    /// Maximum number of `.`-directive lines (including `.end`).
    pub max_directives: usize,
    /// Maximum number of element lines.
    pub max_elements: usize,
    /// Maximum `{param}` brace-nesting depth. The grammar substitutes one
    /// layer, so depths beyond 1 are always an attempted expansion bomb.
    pub max_param_depth: usize,
    /// Maximum number of distinct non-ground node names. The dense solver
    /// allocates O(n²) for n unknowns, so node count — not element count —
    /// is what bounds the memory an untrusted deck can demand.
    pub max_nodes: usize,
}

impl Default for DeckLimits {
    fn default() -> Self {
        DeckLimits {
            max_bytes: 1 << 20,
            max_directives: 1_024,
            max_elements: 16_384,
            max_param_depth: 1,
            max_nodes: 4_096,
        }
    }
}

/// A value field in a deck: a resolved number or a `{param}` placeholder to
/// be bound by a higher layer (e.g. a design variable of a testbench).
#[derive(Debug, Clone, PartialEq)]
pub enum DeckValue {
    /// A literal numeric value (SI units after suffix expansion).
    Num(f64),
    /// An unbound `{name}` placeholder.
    Param(String),
}

impl DeckValue {
    fn parse(token: &str, line: usize, limits: &DeckLimits) -> Result<Self, ParseDeckError> {
        if let Some(inner) = token.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
            let open = token.chars().take_while(|c| *c == '{').count();
            let close = token.chars().rev().take_while(|c| *c == '}').count();
            // A brace anywhere inside the placeholder name is an attempted
            // deeper expansion, not a legal name character.
            if open.min(close) > limits.max_param_depth || inner.contains(['{', '}']) {
                return Err(ParseDeckError::ParamTooDeep {
                    line,
                    token: token.to_string(),
                    limit: limits.max_param_depth,
                });
            }
            if inner.is_empty() || inner.contains(char::is_whitespace) {
                return Err(ParseDeckError::BadValue {
                    line,
                    token: token.to_string(),
                });
            }
            return Ok(DeckValue::Param(inner.to_string()));
        }
        Ok(DeckValue::Num(parse_value(token, line)?))
    }

    /// The literal value, or an [`ParseDeckError::UnboundParam`] error when
    /// this is still a placeholder.
    fn require_num(&self, line: usize) -> Result<f64, ParseDeckError> {
        match self {
            DeckValue::Num(v) => Ok(*v),
            DeckValue::Param(name) => Err(ParseDeckError::UnboundParam {
                line,
                name: name.clone(),
            }),
        }
    }
}

impl std::fmt::Display for DeckValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // `{:e}` prints the shortest exponent form that round-trips.
            DeckValue::Num(v) => write!(f, "{v:e}"),
            DeckValue::Param(name) => write!(f, "{{{name}}}"),
        }
    }
}

/// One element line of a deck.
#[derive(Debug, Clone)]
pub struct DeckElement {
    /// 1-based source line.
    pub line: usize,
    /// Instance name (the full head token, e.g. `"RZ"`, `"m1"`).
    pub name: String,
    /// Terminals and values.
    pub kind: DeckElementKind,
}

// AST equality is semantic: `line` is provenance, not content. Two decks
// that differ only in layout (comments, blank lines, section order) parse
// to equal ASTs, which is what makes the `to_deck()` round-trip guarantee
// hold for decks written in any directive order.
impl PartialEq for DeckElement {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.kind == other.kind
    }
}

/// The typed body of a [`DeckElement`]. Node fields hold raw node names
/// (`"0"`/`"gnd"` mean ground).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeckElementKind {
    /// `R<name> a b value`.
    Resistor {
        /// First terminal node.
        a: String,
        /// Second terminal node.
        b: String,
        /// Resistance \[Ω\].
        value: DeckValue,
    },
    /// `C<name> a b value`.
    Capacitor {
        /// First terminal node.
        a: String,
        /// Second terminal node.
        b: String,
        /// Capacitance \[F\].
        value: DeckValue,
    },
    /// `V<name> p n dc [AC mag]`.
    VoltageSource {
        /// Positive terminal node.
        p: String,
        /// Negative terminal node.
        n: String,
        /// DC value \[V\].
        dc: DeckValue,
        /// Optional AC magnitude.
        ac: Option<f64>,
    },
    /// `I<name> p n dc [AC mag]`.
    CurrentSource {
        /// Positive terminal node (current flows p → n inside the source).
        p: String,
        /// Negative terminal node.
        n: String,
        /// DC value \[A\].
        dc: DeckValue,
        /// Optional AC magnitude.
        ac: Option<f64>,
    },
    /// `E<name> p n cp cn gain` (VCVS).
    Vcvs {
        /// Positive output node.
        p: String,
        /// Negative output node.
        n: String,
        /// Positive controlling node.
        cp: String,
        /// Negative controlling node.
        cn: String,
        /// Voltage gain.
        gain: DeckValue,
    },
    /// `G<name> p n cp cn gm` (VCCS).
    Vccs {
        /// Positive output node.
        p: String,
        /// Negative output node.
        n: String,
        /// Positive controlling node.
        cp: String,
        /// Negative controlling node.
        cn: String,
        /// Transconductance \[S\].
        gm: DeckValue,
    },
    /// `M<name> d g s b NMOS|PMOS W= L=`.
    Mosfet {
        /// Drain node.
        d: String,
        /// Gate node.
        g: String,
        /// Source node.
        s: String,
        /// Bulk node.
        b: String,
        /// Channel polarity.
        polarity: MosPolarity,
        /// Channel width \[m\].
        w: DeckValue,
        /// Channel length \[m\].
        l: DeckValue,
    },
    /// `D<name> a k [IS=] [N=]`.
    Diode {
        /// Anode node.
        a: String,
        /// Cathode node.
        k: String,
        /// Saturation current \[A\].
        is_sat: DeckValue,
        /// Ideality factor.
        ideality: DeckValue,
    },
}

impl DeckElementKind {
    /// The terminal node names, raw (ground spellings included), in line
    /// order: a source's `p` comes first, a MOSFET's terminals are
    /// `d g s b`.
    pub fn nodes(&self) -> Vec<&str> {
        match self {
            DeckElementKind::Resistor { a, b, .. } | DeckElementKind::Capacitor { a, b, .. } => {
                vec![a, b]
            }
            DeckElementKind::VoltageSource { p, n, .. }
            | DeckElementKind::CurrentSource { p, n, .. } => vec![p, n],
            DeckElementKind::Vcvs { p, n, cp, cn, .. }
            | DeckElementKind::Vccs { p, n, cp, cn, .. } => vec![p, n, cp, cn],
            DeckElementKind::Mosfet { d, g, s, b, .. } => vec![d, g, s, b],
            DeckElementKind::Diode { a, k, .. } => vec![a, k],
        }
    }
}

/// A `.design <var> <unit> <lo> <hi> <init>` directive: one design variable
/// of the testbench, referenced from element values as `{var}`.
#[derive(Debug, Clone)]
pub struct DesignDirective {
    /// 1-based source line.
    pub line: usize,
    /// Variable name.
    pub name: String,
    /// Display/scaling unit (e.g. `um`, `uA`, `pF`).
    pub unit: String,
    /// Lower bound (in `unit`).
    pub lower: f64,
    /// Upper bound (in `unit`).
    pub upper: f64,
    /// Initial value (in `unit`).
    pub initial: f64,
}

impl PartialEq for DesignDirective {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.unit == other.unit
            && self.lower == other.lower
            && self.upper == other.upper
            && self.initial == other.initial
    }
}

/// A `.spec <name> <unit> <min|max> <bound> <measure>` directive.
#[derive(Debug, Clone)]
pub struct SpecDirective {
    /// 1-based source line.
    pub line: usize,
    /// Specification name (e.g. `A0`).
    pub name: String,
    /// Display unit; also selects the SI conversion (e.g. `MHz`, `mW`).
    pub unit: String,
    /// `true` for a `min` (lower-bound) spec, `false` for `max`.
    pub lower_bound: bool,
    /// The bound value (in `unit`).
    pub bound: f64,
    /// The measurement producing this performance (e.g. `dcgain`, `ugf`,
    /// `vdc(out)`).
    pub measure: String,
}

impl PartialEq for SpecDirective {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.unit == other.unit
            && self.lower_bound == other.lower_bound
            && self.bound == other.bound
            && self.measure == other.measure
    }
}

/// A `.range <temp|vdd> <lo> <hi>` directive: one axis of the operating
/// range Θ.
#[derive(Debug, Clone)]
pub struct RangeDirective {
    /// 1-based source line.
    pub line: usize,
    /// The quantity: `"temp"` \[°C\] or `"vdd"` \[V\] (lower-cased).
    pub quantity: String,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

impl PartialEq for RangeDirective {
    fn eq(&self, other: &Self) -> bool {
        self.quantity == other.quantity && self.lower == other.lower && self.upper == other.upper
    }
}

/// A `.match <dev> [<dev> ...]` directive: a group of devices that receive
/// local (Pelgrom) mismatch parameters, in declaration order.
#[derive(Debug, Clone)]
pub struct MatchDirective {
    /// 1-based source line.
    pub line: usize,
    /// MOSFET instance names.
    pub devices: Vec<String>,
}

impl PartialEq for MatchDirective {
    fn eq(&self, other: &Self) -> bool {
        self.devices == other.devices
    }
}

/// A `.tb <key> <value>` directive: testbench harness wiring (which sources
/// are the inputs/supply, which node is the output, …).
#[derive(Debug, Clone)]
pub struct TbDirective {
    /// 1-based source line.
    pub line: usize,
    /// Key (e.g. `vinp`, `out`, `tail`, `slewcap`).
    pub key: String,
    /// Value (an element or node name).
    pub value: String,
}

impl PartialEq for TbDirective {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.value == other.value
    }
}

/// The parsed form of an annotated deck: elements (values possibly still
/// `{param}` placeholders) plus the testbench directives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeckAst {
    /// `.name` free text, when present.
    pub title: Option<String>,
    /// `.nodes` pre-declared node names, in order. Declaring nodes pins the
    /// node numbering regardless of element order.
    pub nodes: Vec<String>,
    /// `.temp` value \[°C\], when present.
    pub temp_c: Option<f64>,
    /// Element lines, in order.
    pub elements: Vec<DeckElement>,
    /// `.design` directives, in order.
    pub designs: Vec<DesignDirective>,
    /// `.spec` directives, in order.
    pub specs: Vec<SpecDirective>,
    /// `.range` directives, in order.
    pub ranges: Vec<RangeDirective>,
    /// `.match` directives, in order.
    pub matches: Vec<MatchDirective>,
    /// `.tb` directives, in order.
    pub tb: Vec<TbDirective>,
}

/// Errors produced when parsing a netlist deck. Every variant carries the
/// 1-based deck line it originates from (see [`ParseDeckError::line`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseDeckError {
    /// A numeric field could not be parsed.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A line has too few fields for its element type or directive.
    TooFewFields {
        /// 1-based line number.
        line: usize,
    },
    /// Unknown element prefix or directive.
    UnknownElement {
        /// 1-based line number.
        line: usize,
        /// The leading token.
        token: String,
    },
    /// A MOSFET line is missing `W=`/`L=` or names an unknown model.
    BadMosfet {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// A testbench directive is malformed.
    BadDirective {
        /// 1-based line number.
        line: usize,
        /// The directive (e.g. `".spec"`).
        directive: String,
        /// What was wrong.
        reason: String,
    },
    /// A `{param}` placeholder survived to circuit lowering without being
    /// bound to a value.
    UnboundParam {
        /// 1-based line number of the element using the placeholder.
        line: usize,
        /// The placeholder name.
        name: String,
    },
    /// The netlist builder rejected an element (duplicate name, bad value…).
    Circuit {
        /// 1-based line number of the offending element.
        line: usize,
        /// The element's instance name.
        element: String,
        /// The underlying netlist error.
        source: MnaError,
    },
    /// The deck text exceeds [`DeckLimits::max_bytes`].
    DeckTooLarge {
        /// Actual deck size in bytes.
        bytes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// More `.`-directive lines than [`DeckLimits::max_directives`] allows.
    TooManyDirectives {
        /// 1-based line number of the first directive over the limit.
        line: usize,
        /// The configured limit.
        limit: usize,
    },
    /// More element lines than [`DeckLimits::max_elements`] allows.
    TooManyElements {
        /// 1-based line number of the first element over the limit.
        line: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A `{param}` placeholder nests braces deeper than
    /// [`DeckLimits::max_param_depth`].
    ParamTooDeep {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
        /// The configured depth limit.
        limit: usize,
    },
    /// More distinct non-ground node names than [`DeckLimits::max_nodes`]
    /// allows.
    TooManyNodes {
        /// 1-based line number of the line introducing the node over the
        /// limit.
        line: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl ParseDeckError {
    /// The 1-based deck line the error originates from.
    /// [`ParseDeckError::DeckTooLarge`] applies to the whole deck and
    /// reports line 1.
    pub fn line(&self) -> usize {
        match self {
            ParseDeckError::BadValue { line, .. }
            | ParseDeckError::TooFewFields { line }
            | ParseDeckError::UnknownElement { line, .. }
            | ParseDeckError::BadMosfet { line, .. }
            | ParseDeckError::BadDirective { line, .. }
            | ParseDeckError::UnboundParam { line, .. }
            | ParseDeckError::TooManyDirectives { line, .. }
            | ParseDeckError::TooManyElements { line, .. }
            | ParseDeckError::ParamTooDeep { line, .. }
            | ParseDeckError::TooManyNodes { line, .. }
            | ParseDeckError::Circuit { line, .. } => *line,
            ParseDeckError::DeckTooLarge { .. } => 1,
        }
    }
}

impl std::fmt::Display for ParseDeckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseDeckError::BadValue { line, token } => {
                write!(f, "line {line}: cannot parse value {token:?}")
            }
            ParseDeckError::TooFewFields { line } => write!(f, "line {line}: too few fields"),
            ParseDeckError::UnknownElement { line, token } => {
                write!(f, "line {line}: unknown element or directive {token:?}")
            }
            ParseDeckError::BadMosfet { line, reason } => {
                write!(f, "line {line}: bad MOSFET: {reason}")
            }
            ParseDeckError::BadDirective {
                line,
                directive,
                reason,
            } => {
                write!(f, "line {line}: bad {directive} directive: {reason}")
            }
            ParseDeckError::UnboundParam { line, name } => {
                write!(f, "line {line}: unbound parameter {{{name}}}")
            }
            ParseDeckError::Circuit {
                line,
                element,
                source,
            } => {
                write!(f, "line {line}: netlist error at {element:?}: {source}")
            }
            ParseDeckError::DeckTooLarge { bytes, limit } => {
                write!(f, "deck is {bytes} bytes, limit is {limit}")
            }
            ParseDeckError::TooManyDirectives { line, limit } => {
                write!(f, "line {line}: more than {limit} directives")
            }
            ParseDeckError::TooManyElements { line, limit } => {
                write!(f, "line {line}: more than {limit} elements")
            }
            ParseDeckError::ParamTooDeep { line, token, limit } => {
                write!(
                    f,
                    "line {line}: parameter {token:?} nests braces deeper than {limit}"
                )
            }
            ParseDeckError::TooManyNodes { line, limit } => {
                write!(f, "line {line}: more than {limit} distinct nodes")
            }
        }
    }
}

impl std::error::Error for ParseDeckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseDeckError::Circuit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Records node names against [`DeckLimits::max_nodes`]. Ground spellings
/// (`0`, `gnd`) are free; the limit counts distinct MNA unknowns-to-be.
fn track_nodes<'a>(
    seen: &mut std::collections::HashSet<String>,
    names: impl IntoIterator<Item = &'a str>,
    line: usize,
    limit: usize,
) -> Result<(), ParseDeckError> {
    for name in names {
        if is_ground(name) {
            continue;
        }
        if !seen.contains(name) {
            if seen.len() >= limit {
                return Err(ParseDeckError::TooManyNodes { line, limit });
            }
            seen.insert(name.to_string());
        }
    }
    Ok(())
}

/// Extracts the value of a `K=<value>` style keyword field,
/// case-insensitively on the key, preserving the value's case.
fn keyword_value<'a>(field: &'a str, key: &str) -> Option<&'a str> {
    let prefix_len = key.len() + 1;
    if field.len() >= prefix_len
        && field.as_bytes()[key.len()] == b'='
        && field[..key.len()].eq_ignore_ascii_case(key)
    {
        Some(&field[prefix_len..])
    } else {
        None
    }
}

/// Parses a deck into its [`DeckAst`] without building a circuit, keeping
/// `{param}` placeholders and testbench directives.
///
/// Enforces [`DeckLimits::default`] as a hostile-input backstop; use
/// [`parse_deck_ast_limited`] to tighten (or relax) the bounds at an
/// untrusted boundary.
///
/// # Errors
///
/// Returns [`ParseDeckError`] (with the 1-based line number) for malformed
/// lines or directives.
pub fn parse_deck_ast(deck: &str) -> Result<DeckAst, ParseDeckError> {
    parse_deck_ast_limited(deck, &DeckLimits::default())
}

/// [`parse_deck_ast`] with explicit [`DeckLimits`] — the untrusted-input
/// entry point used by ingestion boundaries such as `specwise-serve`.
///
/// # Errors
///
/// Returns [`ParseDeckError`] for malformed lines or directives, including
/// the typed limit violations [`ParseDeckError::DeckTooLarge`],
/// [`ParseDeckError::TooManyDirectives`],
/// [`ParseDeckError::TooManyElements`] and
/// [`ParseDeckError::ParamTooDeep`]. Never panics, whatever the input.
pub fn parse_deck_ast_limited(deck: &str, limits: &DeckLimits) -> Result<DeckAst, ParseDeckError> {
    if deck.len() > limits.max_bytes {
        return Err(ParseDeckError::DeckTooLarge {
            bytes: deck.len(),
            limit: limits.max_bytes,
        });
    }
    let mut ast = DeckAst::default();
    let mut directives = 0usize;
    let mut node_names = std::collections::HashSet::new();
    for (lineno, raw) in deck.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments.
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() || text.starts_with('*') {
            continue;
        }
        let fields: Vec<&str> = text.split_whitespace().collect();
        let head = fields[0];
        let upper = head.to_ascii_uppercase();

        let need = |k: usize| -> Result<&str, ParseDeckError> {
            fields
                .get(k)
                .copied()
                .ok_or(ParseDeckError::TooFewFields { line })
        };
        let num = |k: usize| -> Result<f64, ParseDeckError> { parse_value(need(k)?, line) };
        let value = |k: usize| -> Result<DeckValue, ParseDeckError> {
            DeckValue::parse(need(k)?, line, limits)
        };
        let bad = |directive: &str, reason: String| ParseDeckError::BadDirective {
            line,
            directive: directive.to_string(),
            reason,
        };

        if let Some(directive) = upper.strip_prefix('.') {
            directives += 1;
            if directives > limits.max_directives {
                return Err(ParseDeckError::TooManyDirectives {
                    line,
                    limit: limits.max_directives,
                });
            }
            match directive {
                "END" => break,
                "TEMP" => {
                    let c = num(1)?;
                    // `Circuit::set_temperature` asserts kelvin > 0; reject
                    // physically impossible temperatures at the parse
                    // boundary so hostile decks get a typed error.
                    if c <= -273.15 {
                        return Err(bad(
                            ".temp",
                            format!("temperature {c} °C is at or below absolute zero"),
                        ));
                    }
                    ast.temp_c = Some(c);
                }
                "NAME" => {
                    if fields.len() < 2 {
                        return Err(ParseDeckError::TooFewFields { line });
                    }
                    ast.title = Some(fields[1..].join(" "));
                }
                "NODES" => {
                    if fields.len() < 2 {
                        return Err(ParseDeckError::TooFewFields { line });
                    }
                    track_nodes(
                        &mut node_names,
                        fields[1..].iter().copied(),
                        line,
                        limits.max_nodes,
                    )?;
                    for f in &fields[1..] {
                        ast.nodes.push((*f).to_string());
                    }
                }
                "DESIGN" => {
                    if fields.len() != 6 {
                        return Err(bad(
                            ".design",
                            format!(
                                "expected `.design <var> <unit> <lo> <hi> <init>`, got {} fields",
                                fields.len()
                            ),
                        ));
                    }
                    ast.designs.push(DesignDirective {
                        line,
                        name: need(1)?.to_string(),
                        unit: need(2)?.to_string(),
                        lower: num(3)?,
                        upper: num(4)?,
                        initial: num(5)?,
                    });
                }
                "SPEC" => {
                    if fields.len() != 6 {
                        return Err(bad(
                            ".spec",
                            format!("expected `.spec <name> <unit> <min|max> <bound> <measure>`, got {} fields", fields.len()),
                        ));
                    }
                    let dir = need(3)?;
                    let lower_bound = if dir.eq_ignore_ascii_case("min") {
                        true
                    } else if dir.eq_ignore_ascii_case("max") {
                        false
                    } else {
                        return Err(bad(
                            ".spec",
                            format!("direction must be `min` or `max`, got {dir:?}"),
                        ));
                    };
                    ast.specs.push(SpecDirective {
                        line,
                        name: need(1)?.to_string(),
                        unit: need(2)?.to_string(),
                        lower_bound,
                        bound: num(4)?,
                        measure: need(5)?.to_string(),
                    });
                }
                "RANGE" => {
                    if fields.len() != 4 {
                        return Err(bad(
                            ".range",
                            format!(
                                "expected `.range <temp|vdd> <lo> <hi>`, got {} fields",
                                fields.len()
                            ),
                        ));
                    }
                    let quantity = need(1)?.to_ascii_lowercase();
                    if quantity != "temp" && quantity != "vdd" {
                        return Err(bad(
                            ".range",
                            format!("quantity must be `temp` or `vdd`, got {:?}", need(1)?),
                        ));
                    }
                    ast.ranges.push(RangeDirective {
                        line,
                        quantity,
                        lower: num(2)?,
                        upper: num(3)?,
                    });
                }
                "MATCH" => {
                    if fields.len() < 2 {
                        return Err(bad(".match", "expected at least one device".to_string()));
                    }
                    let devices: Vec<String> =
                        fields[1..].iter().map(|f| (*f).to_string()).collect();
                    for (i, dev) in devices.iter().enumerate() {
                        if devices[..i].contains(dev) {
                            return Err(bad(".match", format!("device {dev:?} listed twice")));
                        }
                    }
                    ast.matches.push(MatchDirective { line, devices });
                }
                "TB" => {
                    if fields.len() != 3 {
                        return Err(bad(
                            ".tb",
                            format!("expected `.tb <key> <value>`, got {} fields", fields.len()),
                        ));
                    }
                    ast.tb.push(TbDirective {
                        line,
                        key: need(1)?.to_ascii_lowercase(),
                        value: need(2)?.to_string(),
                    });
                }
                _ => {
                    return Err(ParseDeckError::UnknownElement {
                        line,
                        token: head.to_string(),
                    })
                }
            }
            continue;
        }

        let node = |k: usize| -> Result<String, ParseDeckError> { Ok(need(k)?.to_string()) };
        let kind = match upper.chars().next() {
            Some('R') => DeckElementKind::Resistor {
                a: node(1)?,
                b: node(2)?,
                value: value(3)?,
            },
            Some('C') => DeckElementKind::Capacitor {
                a: node(1)?,
                b: node(2)?,
                value: value(3)?,
            },
            Some('V') | Some('I') => {
                let p = node(1)?;
                let n = node(2)?;
                let dc = value(3)?;
                let ac = match fields.get(4) {
                    Some(kw) if kw.eq_ignore_ascii_case("ac") => Some(num(5)?),
                    _ => None,
                };
                if upper.starts_with('V') {
                    DeckElementKind::VoltageSource { p, n, dc, ac }
                } else {
                    DeckElementKind::CurrentSource { p, n, dc, ac }
                }
            }
            Some('E') => DeckElementKind::Vcvs {
                p: node(1)?,
                n: node(2)?,
                cp: node(3)?,
                cn: node(4)?,
                gain: value(5)?,
            },
            Some('G') => DeckElementKind::Vccs {
                p: node(1)?,
                n: node(2)?,
                cp: node(3)?,
                cn: node(4)?,
                gm: value(5)?,
            },
            Some('D') => {
                let a = node(1)?;
                let k = node(2)?;
                let mut is_sat = DeckValue::Num(1e-14);
                let mut ideality = DeckValue::Num(1.0);
                for f in &fields[3..] {
                    if let Some(v) = keyword_value(f, "IS") {
                        is_sat = DeckValue::parse(v, line, limits)?;
                    } else if let Some(v) = keyword_value(f, "N") {
                        ideality = DeckValue::parse(v, line, limits)?;
                    }
                }
                DeckElementKind::Diode {
                    a,
                    k,
                    is_sat,
                    ideality,
                }
            }
            Some('M') => {
                let d = node(1)?;
                let g = node(2)?;
                let s = node(3)?;
                let b = node(4)?;
                let polarity = match need(5)?.to_ascii_uppercase().as_str() {
                    "NMOS" => MosPolarity::Nmos,
                    "PMOS" => MosPolarity::Pmos,
                    _ => {
                        return Err(ParseDeckError::BadMosfet {
                            line,
                            reason: "model must be NMOS or PMOS",
                        })
                    }
                };
                let mut w = None;
                let mut l = None;
                for f in &fields[6..] {
                    if let Some(v) = keyword_value(f, "W") {
                        w = Some(DeckValue::parse(v, line, limits)?);
                    } else if let Some(v) = keyword_value(f, "L") {
                        l = Some(DeckValue::parse(v, line, limits)?);
                    }
                }
                let (Some(w), Some(l)) = (w, l) else {
                    return Err(ParseDeckError::BadMosfet {
                        line,
                        reason: "W= and L= are required",
                    });
                };
                DeckElementKind::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    polarity,
                    w,
                    l,
                }
            }
            _ => {
                return Err(ParseDeckError::UnknownElement {
                    line,
                    token: head.to_string(),
                })
            }
        };
        if ast.elements.len() >= limits.max_elements {
            return Err(ParseDeckError::TooManyElements {
                line,
                limit: limits.max_elements,
            });
        }
        track_nodes(&mut node_names, kind.nodes(), line, limits.max_nodes)?;
        ast.elements.push(DeckElement {
            line,
            name: head.to_string(),
            kind,
        });
    }
    Ok(ast)
}

impl DeckAst {
    /// Lowers the AST to a [`Circuit`]. Testbench directives (`.design`,
    /// `.spec`, …) carry no circuit content and are ignored; every element
    /// value must be a literal by now.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDeckError::UnboundParam`] for surviving `{param}`
    /// placeholders and [`ParseDeckError::Circuit`] (with the element's
    /// line) when the netlist builder rejects an element.
    pub fn to_circuit(&self) -> Result<Circuit, ParseDeckError> {
        self.lower(None, |e, v| v.require_num(e.line))
    }

    /// [`DeckAst::to_circuit`] with two hooks, for harnesses that compile
    /// several circuits from one deck.
    ///
    /// * `alias = Some((from, to))` connects every terminal named `from` to
    ///   node `to` instead; ground spellings (`0`, `gnd`) stay ground.
    /// * `value` supplies every value field from the element and its
    ///   [`DeckValue`], in element order (a MOSFET's `W` before its `L`, a
    ///   diode's `IS` before its `N`).
    ///
    /// Nodes, elements, branches and element ids are numbered exactly as
    /// [`DeckAst::to_circuit`] numbers them.
    ///
    /// # Errors
    ///
    /// Returns the first error of `value`, and [`ParseDeckError::Circuit`]
    /// (with the element's line) when the netlist builder rejects an
    /// element.
    pub fn lower(
        &self,
        alias: Option<(&str, &str)>,
        mut value: impl FnMut(&DeckElement, &DeckValue) -> Result<f64, ParseDeckError>,
    ) -> Result<Circuit, ParseDeckError> {
        let mut ckt = Circuit::new();
        for n in &self.nodes {
            ckt_node(&mut ckt, n);
        }
        if let Some(c) = self.temp_c {
            // The parser already rejects these, but a hand-built AST can
            // carry any value; keep the trust boundary panic-free. The AST
            // does not record the `.temp` source line, so report line 1.
            if !c.is_finite() || c <= -273.15 {
                return Err(ParseDeckError::BadDirective {
                    line: 1,
                    directive: ".temp".to_string(),
                    reason: format!("temperature {c} °C is at or below absolute zero"),
                });
            }
            ckt.set_temperature(c + 273.15);
        }
        for e in &self.elements {
            let wrap = |err: MnaError| ParseDeckError::Circuit {
                line: e.line,
                element: e.name.clone(),
                source: err,
            };
            let mut node = |name: &str| match alias {
                Some((from, to)) if name == from && !is_ground(name) => ckt_node(&mut ckt, to),
                _ => ckt_node(&mut ckt, name),
            };
            let mut value = |v: &DeckValue| value(e, v);
            match &e.kind {
                DeckElementKind::Resistor { a, b, value: v } => {
                    let (a, b) = (node(a), node(b));
                    ckt.resistor(&e.name, a, b, value(v)?)
                }
                DeckElementKind::Capacitor { a, b, value: v } => {
                    let (a, b) = (node(a), node(b));
                    ckt.capacitor(&e.name, a, b, value(v)?)
                }
                DeckElementKind::VoltageSource { p, n, dc, .. } => {
                    let (p, n) = (node(p), node(n));
                    ckt.voltage_source(&e.name, p, n, value(dc)?)
                }
                DeckElementKind::CurrentSource { p, n, dc, .. } => {
                    let (p, n) = (node(p), node(n));
                    ckt.current_source(&e.name, p, n, value(dc)?)
                }
                DeckElementKind::Vcvs { p, n, cp, cn, gain } => {
                    let (p, n, cp, cn) = (node(p), node(n), node(cp), node(cn));
                    ckt.vcvs(&e.name, p, n, cp, cn, value(gain)?)
                }
                DeckElementKind::Vccs { p, n, cp, cn, gm } => {
                    let (p, n, cp, cn) = (node(p), node(n), node(cp), node(cn));
                    ckt.vccs(&e.name, p, n, cp, cn, value(gm)?)
                }
                DeckElementKind::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    polarity,
                    w,
                    l,
                } => {
                    let (d, g, s, b) = (node(d), node(g), node(s), node(b));
                    let model = match polarity {
                        MosPolarity::Nmos => MosfetModel::default_nmos(),
                        MosPolarity::Pmos => MosfetModel::default_pmos(),
                    };
                    let (w, l) = (value(w)?, value(l)?);
                    ckt.mosfet(&e.name, d, g, s, b, MosfetParams::new(model, w, l))
                }
                DeckElementKind::Diode {
                    a,
                    k,
                    is_sat,
                    ideality,
                } => {
                    let (a, k) = (node(a), node(k));
                    let (is_sat, ideality) = (value(is_sat)?, value(ideality)?);
                    ckt.diode(&e.name, a, k, is_sat, ideality)
                }
            }
            .map_err(wrap)?;
            if let DeckElementKind::VoltageSource { ac: Some(mag), .. }
            | DeckElementKind::CurrentSource { ac: Some(mag), .. } = &e.kind
            {
                ckt.set_ac(&e.name, *mag).map_err(wrap)?;
            }
        }
        Ok(ckt)
    }

    /// Prints the AST back to canonical deck text. Parsing the output
    /// reproduces an equal AST (numbers are printed in round-trip exponent
    /// form, placeholders as `{name}`).
    pub fn to_deck(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let n = |v: f64| format!("{v:e}");
        if let Some(title) = &self.title {
            let _ = writeln!(out, ".name {title}");
        }
        if !self.nodes.is_empty() {
            let _ = writeln!(out, ".nodes {}", self.nodes.join(" "));
        }
        if let Some(c) = self.temp_c {
            let _ = writeln!(out, ".temp {}", n(c));
        }
        for d in &self.designs {
            let _ = writeln!(
                out,
                ".design {} {} {} {} {}",
                d.name,
                d.unit,
                n(d.lower),
                n(d.upper),
                n(d.initial)
            );
        }
        for r in &self.ranges {
            let _ = writeln!(out, ".range {} {} {}", r.quantity, n(r.lower), n(r.upper));
        }
        for s in &self.specs {
            let _ = writeln!(
                out,
                ".spec {} {} {} {} {}",
                s.name,
                s.unit,
                if s.lower_bound { "min" } else { "max" },
                n(s.bound),
                s.measure
            );
        }
        for m in &self.matches {
            let _ = writeln!(out, ".match {}", m.devices.join(" "));
        }
        for t in &self.tb {
            let _ = writeln!(out, ".tb {} {}", t.key, t.value);
        }
        for e in &self.elements {
            match &e.kind {
                DeckElementKind::Resistor { a, b, value }
                | DeckElementKind::Capacitor { a, b, value } => {
                    let _ = writeln!(out, "{} {} {} {}", e.name, a, b, value);
                }
                DeckElementKind::VoltageSource { p, n, dc, ac }
                | DeckElementKind::CurrentSource { p, n, dc, ac } => {
                    let _ = write!(out, "{} {} {} {}", e.name, p, n, dc);
                    if let Some(mag) = ac {
                        let _ = write!(out, " AC {mag:e}");
                    }
                    out.push('\n');
                }
                DeckElementKind::Vcvs { p, n, cp, cn, gain } => {
                    let _ = writeln!(out, "{} {} {} {} {} {}", e.name, p, n, cp, cn, gain);
                }
                DeckElementKind::Vccs { p, n, cp, cn, gm } => {
                    let _ = writeln!(out, "{} {} {} {} {} {}", e.name, p, n, cp, cn, gm);
                }
                DeckElementKind::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    polarity,
                    w,
                    l,
                } => {
                    let model = match polarity {
                        MosPolarity::Nmos => "NMOS",
                        MosPolarity::Pmos => "PMOS",
                    };
                    let _ = writeln!(
                        out,
                        "{} {} {} {} {} {} W={} L={}",
                        e.name, d, g, s, b, model, w, l
                    );
                }
                DeckElementKind::Diode {
                    a,
                    k,
                    is_sat,
                    ideality,
                } => {
                    let _ = writeln!(out, "{} {} {} IS={} N={}", e.name, a, k, is_sat, ideality);
                }
            }
        }
        out.push_str(".end\n");
        out
    }
}

/// Parses a SPICE-style deck into a [`Circuit`].
///
/// Testbench directives are accepted and ignored at this level; decks with
/// unbound `{param}` placeholders are rejected (use
/// `specwise_ckt::Testbench::from_deck` to bind them).
///
/// # Errors
///
/// Returns [`ParseDeckError`] for malformed lines; element-level validation
/// errors are wrapped in [`ParseDeckError::Circuit`] with the element's
/// 1-based line number and instance name.
///
/// # Example
///
/// ```
/// use specwise_mna::{parse_deck, DcOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ckt = parse_deck(
///     "* resistive divider
///      V1 in 0 2.0
///      R1 in mid 1k
///      R2 mid 0 1k
///      .end",
/// )?;
/// let op = DcOp::new(&ckt).solve()?;
/// let mid = ckt.find_node("mid")?;
/// assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(deck: &str) -> Result<Circuit, ParseDeckError> {
    parse_deck_ast(deck)?.to_circuit()
}

/// `true` for the ground spellings `0` and `gnd` (any case).
fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// Node interning that maps `0`/`GND`/`gnd` to ground.
fn ckt_node(ckt: &mut Circuit, name: &str) -> NodeId {
    if is_ground(name) {
        Circuit::GROUND
    } else {
        ckt.node(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcSolver, DcOp};

    #[test]
    fn value_suffixes() {
        let close = |t: &str, want: f64| {
            let got = parse_value(t, 1).unwrap();
            assert!((got / want - 1.0).abs() < 1e-12, "{t}: {got} vs {want}");
        };
        close("10k", 10e3);
        close("2.5u", 2.5e-6);
        close("1.2pF", 1.2e-12);
        close("3meg", 3e6);
        close("3MEG", 3e6);
        close("5m", 5e-3);
        close("7", 7.0);
        close("1e-9", 1e-9);
        close("2.2n", 2.2e-9);
        close("4f", 4e-15);
        close("1G", 1e9);
        close("3V", 3.0);
        assert!(parse_value("abc", 1).is_err());
        assert!(parse_value("", 1).is_err());
    }

    #[test]
    fn divider_deck() {
        let ckt = parse_deck(
            "* divider
             V1 in 0 2.0
             R1 in mid 1k
             R2 mid gnd 1K
             .end",
        )
        .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let mid = ckt.find_node("mid").unwrap();
        assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rc_with_ac_stimulus() {
        let ckt = parse_deck(
            "V1 in 0 0 AC 1
             R1 in out 1k
             C1 out 0 1u",
        )
        .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let out = ckt.find_node("out").unwrap();
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6);
        let h = ac.solve(f3db).unwrap().voltage(out);
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn mosfet_line() {
        let ckt = parse_deck(
            "VDD vdd 0 3.0
             VG g 0 1.0
             RD vdd d 20k
             M1 d g 0 0 NMOS W=10u L=1u",
        )
        .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let m = op.mosfet_op("M1").unwrap();
        assert!(m.id > 1e-6, "device conducts");
        let p = ckt.mosfet_params("M1").unwrap();
        assert!((p.w - 10e-6).abs() < 1e-18);
        assert!((p.l - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn controlled_sources_and_temp() {
        let ckt = parse_deck(
            ".temp 85
             V1 in 0 0.5
             E1 out 0 in 0 4
             RL out 0 1k
             G1 out2 0 in 0 1m
             R2 out2 0 2k",
        )
        .unwrap();
        assert!((ckt.temperature() - (85.0 + 273.15)).abs() < 1e-9);
        let op = DcOp::new(&ckt).solve().unwrap();
        assert!((op.voltage(ckt.find_node("out").unwrap()) - 2.0).abs() < 1e-9);
        // G1 pulls gm·vin out of out2: v = −1m·0.5·2k = −1.
        assert!((op.voltage(ckt.find_node("out2").unwrap()) + 1.0).abs() < 1e-8);
    }

    #[test]
    fn diode_line_with_defaults_and_params() {
        let ckt = parse_deck(
            "V1 a 0 3.0
             R1 a d 1k
             D1 d 0
             D2 d 0 IS=1e-12 N=2",
        )
        .unwrap();
        assert_eq!(ckt.num_elements(), 4);
        let op = DcOp::new(&ckt).solve().unwrap();
        let d = ckt.find_node("d").unwrap();
        assert!(op.voltage(d) > 0.3 && op.voltage(d) < 0.9);
    }

    #[test]
    fn comments_and_end() {
        let ckt = parse_deck(
            "* top comment
             V1 a 0 1.0 ; inline comment
             R1 a 0 1k
             .END
             R2 ignored 0 1k",
        )
        .unwrap();
        assert_eq!(ckt.num_elements(), 2, ".end stops parsing");
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            parse_deck("R1 a 0"),
            Err(ParseDeckError::TooFewFields { line: 1 })
        ));
        assert!(matches!(
            parse_deck("X1 a 0 1k"),
            Err(ParseDeckError::UnknownElement { line: 1, .. })
        ));
        assert!(matches!(
            parse_deck("M1 d g 0 0 NMOS W=10u"),
            Err(ParseDeckError::BadMosfet { .. })
        ));
        assert!(matches!(
            parse_deck("M1 d g 0 0 BJT W=1u L=1u"),
            Err(ParseDeckError::BadMosfet { .. })
        ));
        assert!(matches!(
            parse_deck("R1 a 0 -5"),
            Err(ParseDeckError::Circuit { .. })
        ));
        assert!(matches!(
            parse_deck(".include foo.cir"),
            Err(ParseDeckError::UnknownElement { .. })
        ));
    }

    #[test]
    fn circuit_errors_carry_line_and_element() {
        let err = parse_deck("V1 a 0 1.0\nR1 a 0 1k\nR2 b 0 -5").unwrap_err();
        match &err {
            ParseDeckError::Circuit { line, element, .. } => {
                assert_eq!(*line, 3);
                assert_eq!(element, "R2");
            }
            other => panic!("expected Circuit error, got {other:?}"),
        }
        assert_eq!(err.line(), 3);
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "message was: {msg}");
        assert!(msg.contains("R2"), "message was: {msg}");
    }

    #[test]
    fn duplicate_names_rejected_via_circuit_error() {
        let r = parse_deck("R1 a 0 1k\nR1 a 0 2k");
        assert!(matches!(
            r,
            Err(ParseDeckError::Circuit {
                line: 2,
                source: MnaError::DuplicateName { .. },
                ..
            })
        ));
    }

    #[test]
    fn directives_parse_into_ast() {
        let ast = parse_deck_ast(
            ".name my testbench
             .nodes vdd out
             .design w1 um 2 400 8
             .spec A0 dB min 80 dcgain
             .spec Power mW max 1.3 power
             .range temp -40 125
             .range vdd 4.5 5.5
             .match m1 m2
             .tb out out
             VDD vdd 0 {vdd}
             M1 out vdd 0 0 NMOS W={w1} L=1u
             .end",
        )
        .unwrap();
        assert_eq!(ast.title.as_deref(), Some("my testbench"));
        assert_eq!(ast.nodes, vec!["vdd", "out"]);
        assert_eq!(ast.designs.len(), 1);
        assert_eq!(ast.designs[0].name, "w1");
        assert_eq!(ast.designs[0].unit, "um");
        assert_eq!(ast.designs[0].lower, 2.0);
        assert_eq!(ast.specs.len(), 2);
        assert!(ast.specs[0].lower_bound);
        assert!(!ast.specs[1].lower_bound);
        assert_eq!(ast.specs[1].measure, "power");
        assert_eq!(ast.ranges.len(), 2);
        assert_eq!(ast.matches[0].devices, vec!["m1", "m2"]);
        assert_eq!(ast.tb[0].key, "out");
        match &ast.elements[0].kind {
            DeckElementKind::VoltageSource { dc, .. } => {
                assert_eq!(*dc, DeckValue::Param("vdd".to_string()));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unbound_param_rejected_at_circuit_level() {
        let err = parse_deck("V1 a 0 {vdd}").unwrap_err();
        assert!(matches!(err, ParseDeckError::UnboundParam { line: 1, .. }));
        assert!(err.to_string().contains("{vdd}"));
    }

    #[test]
    fn malformed_directives_rejected() {
        // .spec: wrong arity, bad direction, bad bound.
        assert!(matches!(
            parse_deck_ast(".spec A0 dB min 80"),
            Err(ParseDeckError::BadDirective { line: 1, .. })
        ));
        assert!(matches!(
            parse_deck_ast(".spec A0 dB atleast 80 dcgain"),
            Err(ParseDeckError::BadDirective { .. })
        ));
        assert!(matches!(
            parse_deck_ast(".spec A0 dB min eighty dcgain"),
            Err(ParseDeckError::BadValue { .. })
        ));
        // .match: empty, duplicate device.
        assert!(matches!(
            parse_deck_ast(".match"),
            Err(ParseDeckError::BadDirective { .. })
        ));
        assert!(matches!(
            parse_deck_ast(".match m1 m1"),
            Err(ParseDeckError::BadDirective { .. })
        ));
        // .range: unknown quantity.
        assert!(matches!(
            parse_deck_ast(".range humidity 0 1"),
            Err(ParseDeckError::BadDirective { .. })
        ));
        // .design: wrong arity.
        assert!(matches!(
            parse_deck_ast(".design w1 um 2 400"),
            Err(ParseDeckError::BadDirective { .. })
        ));
    }

    #[test]
    fn ingestion_limits_reject_hostile_decks_with_typed_errors() {
        // Oversized deck.
        let tight = DeckLimits {
            max_bytes: 64,
            ..DeckLimits::default()
        };
        let big = "* padding\n".repeat(20);
        assert!(matches!(
            parse_deck_ast_limited(&big, &tight),
            Err(ParseDeckError::DeckTooLarge { limit: 64, .. })
        ));

        // Too many directives.
        let tight = DeckLimits {
            max_directives: 3,
            ..DeckLimits::default()
        };
        let deck = ".tb out out\n".repeat(5);
        let err = parse_deck_ast_limited(&deck, &tight).unwrap_err();
        assert!(matches!(
            err,
            ParseDeckError::TooManyDirectives { line: 4, limit: 3 }
        ));

        // Too many elements.
        let tight = DeckLimits {
            max_elements: 2,
            ..DeckLimits::default()
        };
        let deck = "R1 a 0 1k\nR2 a 0 1k\nR3 a 0 1k\n";
        assert!(matches!(
            parse_deck_ast_limited(deck, &tight),
            Err(ParseDeckError::TooManyElements { line: 3, limit: 2 })
        ));

        // Brace-nesting bombs, under the default depth limit of 1.
        for token in ["{{w1}}", "{a{b}c}", "{{{x}}}"] {
            let deck = format!("V1 a 0 {token}\n");
            let err = parse_deck_ast(&deck).unwrap_err();
            assert!(
                matches!(err, ParseDeckError::ParamTooDeep { line: 1, .. }),
                "{token}: {err:?}"
            );
            assert_eq!(err.line(), 1);
        }
        // A plain placeholder still parses.
        let ast = parse_deck_ast("V1 a 0 {vdd}\n").unwrap();
        assert_eq!(ast.elements.len(), 1);
    }

    #[test]
    fn default_limits_accept_real_decks() {
        let deck = "V1 in 0 2.0\nR1 in mid 1k\nR2 mid 0 1k\n.end";
        assert_eq!(
            parse_deck_ast(deck).unwrap(),
            parse_deck_ast_limited(deck, &DeckLimits::default()).unwrap()
        );
    }

    #[test]
    fn print_parse_round_trip() {
        let deck = ".name Miller opamp
             .nodes vdd inp out
             .temp 27
             .design w1 um 2 400 8
             .design ib uA 1 100 10
             .range temp -40 125
             .spec A0 dB min 80 dcgain
             .match m1 m2
             .tb vinp VINP
             VDD vdd 0 {vdd} ; supply
             VINP inp 0 2.5 AC 0.5
             IB1 vdd bias {ib}
             RZ a b 1.2e3
             CC a out 3p
             E1 e 0 a b 2
             G1 g 0 a b 1m
             M1 out inp 0 0 NMOS W={w1} L=2e-6
             D1 a 0 IS=1e-12 N=2
             .end";
        let ast = parse_deck_ast(deck).unwrap();
        let printed = ast.to_deck();
        let ast2 = parse_deck_ast(&printed).unwrap();
        assert_eq!(ast, ast2, "printed deck:\n{printed}");
        // Printing is idempotent.
        assert_eq!(printed, ast2.to_deck());
    }

    #[test]
    fn declared_nodes_pin_numbering() {
        let ckt = parse_deck(
            ".nodes b a
             V1 a 0 1.0
             R1 a b 1k
             R2 b 0 1k",
        )
        .unwrap();
        // `b` was declared first, so it gets the smaller node id even
        // though `a` appears first in the elements.
        let a = ckt.find_node("a").unwrap();
        let b = ckt.find_node("b").unwrap();
        assert!(b < a);
    }
}
