//! The declarative testbench IR: a full [`CircuitEnv`] compiled from one
//! annotated SPICE deck.
//!
//! The three hand-coded opamp environments shared one structure — a netlist
//! template, a mapping from design variables to device geometries and
//! element values, Pelgrom mismatch wiring, a spec list, an operating range,
//! and the two-configuration measurement harness. [`Testbench`] captures
//! that structure as *data*:
//!
//! ```text
//! .name  my opamp                      ; environment name
//! .nodes vdd inp out x1 tail vbn       ; node ordering (pins the MNA layout)
//! .design w1 um 2.0 200.0 6.0          ; design var, unit, lo, hi, initial
//! .design ib uA 1.0 100.0 5.0
//! .range temp -40.0 125.0              ; operating range Θ
//! .range vdd 3.0 3.6
//! .spec  A0 dB min 30.0 dcgain         ; spec → measurement binding
//! .spec  Power mW max 0.5 power
//! .match m1 m2                         ; Pelgrom mismatch group
//! .tb    vinp VINP                     ; harness wiring
//! .tb    vinn VINN
//! .tb    out  out
//! .tb    vdd  VDD
//! .tb    tail mt
//! .tb    slewcap CL
//! VDD vdd 0 {vdd}                      ; elements; {param} placeholders
//! VINP inp 0 {vcm}
//! VINN inn 0 {vcm}
//! m1 x1 inp tail 0 NMOS W={w1} L=1e-6
//! ...
//! .end
//! ```
//!
//! `{vdd}` and `{vcm}` are reserved parameters bound to the operating
//! point (`θ.vdd` and `θ.vdd/2`); every other `{name}` must be declared by
//! a `.design` line, whose unit fixes the SI scale (`um` → ×1e-6, `uA` →
//! ×1e-6, `pF` → ×1e-12, …).
//!
//! Mismatch is derived from mapped geometry: every device listed in a
//! `.match` group gets local `ΔVth`/`Δβ` parameters whose sigmas follow the
//! Pelgrom law `σ = A/√(W·L)` with `W`, `L` taken from the *evaluated*
//! design point — exactly the design-dependent `G(d)` transform of the
//! paper's Eq. 11.
//!
//! The inverting-input source named by `.tb vinn` is special: its positive
//! node must not appear in `.nodes`, because the feedback configuration
//! wires that node to the output (the source is dropped entirely) while the
//! open-loop configuration re-biases it at the feedback output voltage.

use specwise_linalg::DVec;
use specwise_mna::{
    parse_deck_ast, parse_deck_ast_limited, Circuit, DeckAst, DeckElementKind, DeckLimits,
    DeckValue, ElementId, MosfetParams, NodeId, SolverChoice,
};

use crate::measure::{
    dc_solve_counted, measure, measure_with_directions, saturation_constraints, BuiltOpamp,
    LastMeasurement, Measure, MeasureContext, Measured,
};
use crate::stats::{CapStat, DeviceStats};
use crate::warm::WarmStartCache;
use crate::{
    CircuitEnv, CktError, DesignParam, DesignSpace, OpampMetrics, OperatingPoint, OperatingRange,
    SimCounter, SlewRateMethod, Spec, SpecKind, StatSpace, Technology,
};

/// FNV-1a over bytes — the environment/netlist identity for warm-start
/// cache namespacing.
fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn derr(line: usize, reason: impl Into<String>) -> CktError {
    CktError::Deck {
        line,
        reason: reason.into(),
    }
}

/// A value field of the compiled template: a literal, a scaled design
/// variable, or one of the reserved operating-point parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ValueExpr {
    Lit(f64),
    Design { index: usize, scale: f64 },
    Vdd,
    Vcm,
}

impl ValueExpr {
    fn eval(&self, d: &DVec, theta: &OperatingPoint) -> f64 {
        match self {
            ValueExpr::Lit(v) => *v,
            ValueExpr::Design { index, scale } => d[*index] * scale,
            ValueExpr::Vdd => theta.vdd,
            ValueExpr::Vcm => theta.vdd / 2.0,
        }
    }
}

/// What a design variable substitutes into inside one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignTarget {
    /// MOSFET channel width.
    Width,
    /// MOSFET channel length.
    Length,
    /// The element's principal value (resistance, capacitance, source
    /// level, gain, …).
    Value,
}

/// One substitution site of a design variable.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignBinding {
    /// Element instance name.
    pub element: String,
    /// Which field of the element the variable drives.
    pub target: DesignTarget,
}

/// Where each design variable lands in the netlist — the record the
/// compiler builds while resolving `{param}` placeholders.
#[derive(Debug, Clone, Default)]
pub struct DesignMap {
    per_var: Vec<(String, Vec<DesignBinding>)>,
}

impl DesignMap {
    /// `(variable, bindings)` pairs in design-space order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[DesignBinding])> {
        self.per_var
            .iter()
            .map(|(name, b)| (name.as_str(), b.as_slice()))
    }

    /// The substitution sites of one variable (empty for unknown names —
    /// a declared-but-unused variable also yields an empty slice).
    pub fn bindings_of(&self, var: &str) -> &[DesignBinding] {
        self.per_var
            .iter()
            .find(|(name, _)| name == var)
            .map(|(_, b)| b.as_slice())
            .unwrap_or(&[])
    }
}

/// The mismatch groups declared by `.match` directives, in order.
#[derive(Debug, Clone, Default)]
pub struct StatMap {
    groups: Vec<Vec<String>>,
}

impl StatMap {
    /// Every group, in declaration order.
    pub fn groups(&self) -> &[Vec<String>] {
        &self.groups
    }

    /// The two-device groups — the classic mismatch pairs the paper's
    /// Sec. 3 analysis ranks.
    pub fn pairs(&self) -> Vec<(&str, &str)> {
        self.groups
            .iter()
            .filter(|g| g.len() == 2)
            .map(|g| (g[0].as_str(), g[1].as_str()))
            .collect()
    }

    /// All matched devices, flattened in declaration order (the order of
    /// the local parameters in the statistical space).
    pub fn devices(&self) -> Vec<&str> {
        self.groups
            .iter()
            .flat_map(|g| g.iter().map(String::as_str))
            .collect()
    }
}

/// Spec-unit conversion from the harness's SI metrics to the deck's
/// display unit, replicating the exact floating-point operation the
/// hand-coded environments used (one division or one multiplication).
#[derive(Debug, Clone, Copy, PartialEq)]
enum UnitConv {
    Id,
    Div(f64),
    Mul(f64),
}

impl UnitConv {
    fn from_unit(unit: &str) -> Self {
        match unit {
            "kHz" => UnitConv::Div(1e3),
            "MHz" | "V/us" => UnitConv::Div(1e6),
            "GHz" => UnitConv::Div(1e9),
            "mW" | "mV" | "mA" => UnitConv::Mul(1e3),
            "uW" | "uV" | "uA" => UnitConv::Mul(1e6),
            _ => UnitConv::Id,
        }
    }

    fn apply(self, v: f64) -> f64 {
        match self {
            UnitConv::Id => v,
            UnitConv::Div(s) => v / s,
            UnitConv::Mul(s) => v * s,
        }
    }
}

/// SI scale of a `.design` unit (the factor applied when the variable is
/// substituted into the netlist).
fn design_unit_scale(unit: &str) -> Option<f64> {
    Some(match unit {
        "m" | "V" | "A" | "F" | "Ohm" | "ohm" | "S" | "Hz" | "x" => 1.0,
        "mm" | "mV" | "mA" | "mS" => 1e-3,
        "um" | "uV" | "uA" | "uF" => 1e-6,
        "nm" | "nV" | "nA" | "nF" => 1e-9,
        "pm" | "pA" | "pF" => 1e-12,
        "fA" | "fF" => 1e-15,
        "kOhm" | "kHz" => 1e3,
        "MOhm" | "MHz" => 1e6,
        _ => return None,
    })
}

/// The value fields of one compiled element, written into its template
/// slot at every evaluation.
#[derive(Debug, Clone, Copy)]
enum Binding {
    /// The principal value: resistance, source DC value, gain or
    /// transconductance.
    Value(ValueExpr),
    /// A capacitance, scaled by the global capacitance factor of ŝ.
    Capacitance(ValueExpr),
    /// MOSFET geometry and bound statistical parameters; the model card
    /// and the mismatch deltas follow from the polarity, the geometry and ŝ.
    Mosfet {
        w: ValueExpr,
        l: ValueExpr,
        stats: DeviceStats,
    },
    /// Diode saturation current and ideality factor.
    Diode {
        is_sat: ValueExpr,
        ideality: ValueExpr,
    },
}

/// One harness configuration, lowered once from the deck: the circuit with
/// every `{param}` at a placeholder, and the binding of each of its
/// elements in element order.
#[derive(Debug)]
struct Template {
    circuit: Circuit,
    out: NodeId,
    bindings: Vec<(ElementId, Binding)>,
    /// The open-loop inverting-input source, whose DC value is the feedback
    /// output voltage instead of its deck value; `None` in feedback.
    vinn: Option<ElementId>,
}

impl Template {
    /// Lowers the deck's elements, less `omit`, after the `.nodes` list and
    /// the `.tb out` node, with `alias` applied to terminals and every
    /// `{param}` at 1.0 (each evaluation overwrites it). Literal values and
    /// element names are checked here, once.
    fn compile(
        ast: &DeckAst,
        omit: Option<&str>,
        alias: Option<(&str, &str)>,
        (out_line, out): (usize, &str),
        bindings: &[Binding],
    ) -> Result<Self, CktError> {
        let mut nodes = ast.nodes.clone();
        nodes.push(out.to_string());
        let deck = DeckAst {
            nodes,
            elements: ast
                .elements
                .iter()
                .filter(|e| Some(e.name.as_str()) != omit)
                .cloned()
                .collect(),
            ..DeckAst::default()
        };
        let circuit = deck
            .lower(alias, |_, v| match v {
                DeckValue::Num(x) => Ok(*x),
                DeckValue::Param(_) => Ok(1.0),
            })
            .map_err(|e| derr(e.line(), e.to_string()))?;
        let bindings = ast
            .elements
            .iter()
            .zip(bindings)
            .filter_map(|(e, b)| circuit.find(&e.name).ok().map(|id| (id, *b)))
            .collect();
        let out = circuit
            .find_node(out)
            .map_err(|_| derr(out_line, format!(".tb out names unknown node {out:?}")))?;
        Ok(Template {
            circuit,
            out,
            bindings,
            vinn: None,
        })
    }
}

/// Harness wiring resolved from the `.tb` directives.
#[derive(Debug, Clone)]
struct BenchConfig {
    /// Non-inverting input source (element name).
    vinp: String,
    /// Inverting input source (element name).
    vinn: String,
    /// Supply source (element name).
    vdd: String,
    /// Tail device (element name) whose |I_D| limits slewing.
    tail: String,
    /// Value of the capacitor that limits slewing, before the capacitance
    /// factor.
    slewcap: ValueExpr,
    /// DC expression of the `vinp` source (the input common mode).
    vcm_expr: ValueExpr,
}

/// A [`CircuitEnv`] compiled from one annotated deck (see the module docs
/// for the directive grammar).
///
/// # Example
///
/// ```
/// use specwise_ckt::{CircuitEnv, MillerOpamp, Testbench};
/// use specwise_linalg::DVec;
///
/// # fn main() -> Result<(), specwise_ckt::CktError> {
/// let env = Testbench::from_deck(MillerOpamp::deck())?;
/// let perf = env.eval_performances(
///     &env.design_space().initial(),
///     &DVec::zeros(env.stat_dim()),
///     &env.operating_range().nominal(),
/// )?;
/// assert_eq!(perf.len(), env.specs().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Testbench {
    name: String,
    tech: Technology,
    feedback: Template,
    open_loop: Template,
    design: DesignSpace,
    design_map: DesignMap,
    stats: StatSpace,
    /// The global capacitance parameter of `stats`.
    cap: CapStat,
    stat_map: StatMap,
    specs: Vec<Spec>,
    measures: Vec<(Measure, UnitConv)>,
    range: OperatingRange,
    bench: BenchConfig,
    pub(crate) sr_method: SlewRateMethod,
    solver: SolverChoice,
    pub(crate) counter: SimCounter,
    pub(crate) warm: WarmStartCache,
    pub(crate) identity: u64,
    /// The last measurement, served again to an exact adjoint repeat.
    pub(crate) last: LastMeasurement,
}

impl Testbench {
    /// Compiles an annotated deck into a ready-to-run environment.
    ///
    /// # Errors
    ///
    /// Returns [`CktError::Deck`] (with the 1-based deck line) for parse
    /// errors and for semantic problems: unknown `{param}` references,
    /// invalid design bounds or units, missing/duplicate `.range` axes,
    /// unknown `.spec` measures, `.match` devices that are not MOSFETs of
    /// the netlist, and incomplete `.tb` wiring.
    pub fn from_deck(deck: &str) -> Result<Self, CktError> {
        let ast = parse_deck_ast(deck).map_err(|e| derr(e.line(), e.to_string()))?;
        let identity = fnv1a_bytes(ast.to_deck().bytes());
        Self::compile(&ast, identity)
    }

    /// [`Testbench::from_deck`] with explicit ingestion [`DeckLimits`] — the
    /// untrusted-input boundary used by services that accept decks over the
    /// wire. Limit violations (deck too large, too many directives or
    /// elements, `{param}` brace bombs) surface as [`CktError::Deck`] with
    /// the offending line; hostile input never panics.
    pub fn from_deck_limited(deck: &str, limits: &DeckLimits) -> Result<Self, CktError> {
        let ast =
            parse_deck_ast_limited(deck, limits).map_err(|e| derr(e.line(), e.to_string()))?;
        let identity = fnv1a_bytes(ast.to_deck().bytes());
        Self::compile(&ast, identity)
    }

    fn compile(ast: &DeckAst, identity: u64) -> Result<Self, CktError> {
        // Design space. Units fix the substitution scale; bounds are
        // validated here so `DesignParam::new` cannot panic.
        let mut params = Vec::with_capacity(ast.designs.len());
        let mut scales = Vec::with_capacity(ast.designs.len());
        for dir in &ast.designs {
            if dir.name == "vdd" || dir.name == "vcm" {
                return Err(derr(
                    dir.line,
                    format!("design variable name {:?} is reserved", dir.name),
                ));
            }
            if ast.designs.iter().filter(|d| d.name == dir.name).count() > 1 {
                return Err(derr(
                    dir.line,
                    format!("design variable {:?} declared twice", dir.name),
                ));
            }
            let scale = design_unit_scale(&dir.unit).ok_or_else(|| {
                derr(
                    dir.line,
                    format!("unknown design unit {:?} for {:?}", dir.unit, dir.name),
                )
            })?;
            let ok = dir.lower.is_finite()
                && dir.upper.is_finite()
                && dir.initial.is_finite()
                && dir.lower < dir.upper
                && dir.lower <= dir.initial
                && dir.initial <= dir.upper;
            if !ok {
                return Err(derr(
                    dir.line,
                    format!(
                        "invalid bounds for {:?}: need lo < hi and lo <= init <= hi, got {} {} {}",
                        dir.name, dir.lower, dir.upper, dir.initial
                    ),
                ));
            }
            params.push(DesignParam::new(
                &dir.name,
                &dir.unit,
                dir.lower,
                dir.upper,
                dir.initial,
            ));
            scales.push(scale);
        }
        // An untrusted deck may declare no `.design` directives at all;
        // `DesignSpace::new` asserts non-emptiness, so reject here with a
        // typed deck error instead of panicking at the trust boundary.
        if params.is_empty() {
            return Err(derr(
                0,
                "deck declares no .design parameters; at least one is required".to_string(),
            ));
        }
        let design = DesignSpace::new(params);

        // Operating range: exactly one temp axis and one vdd axis.
        let mut temp = None;
        let mut vdd = None;
        for r in &ast.ranges {
            let slot = if r.quantity == "temp" {
                &mut temp
            } else {
                &mut vdd
            };
            if slot.is_some() {
                return Err(derr(
                    r.line,
                    format!(".range {} declared twice", r.quantity),
                ));
            }
            if !(r.lower.is_finite() && r.upper.is_finite() && r.lower < r.upper) {
                return Err(derr(
                    r.line,
                    format!(
                        "invalid .range {} bounds {} {}",
                        r.quantity, r.lower, r.upper
                    ),
                ));
            }
            if r.quantity == "vdd" && r.lower <= 0.0 {
                return Err(derr(r.line, "vdd range must be positive"));
            }
            *slot = Some((r.lower, r.upper));
        }
        let (t_lo, t_hi) =
            temp.ok_or_else(|| derr(0, "missing `.range temp <lo> <hi>` directive"))?;
        let (v_lo, v_hi) =
            vdd.ok_or_else(|| derr(0, "missing `.range vdd <lo> <hi>` directive"))?;
        let range = OperatingRange::new(t_lo, t_hi, v_lo, v_hi);

        // Specs and their measurement bindings.
        let mut specs = Vec::with_capacity(ast.specs.len());
        let mut measures = Vec::with_capacity(ast.specs.len());
        for s in &ast.specs {
            if !s.bound.is_finite() {
                return Err(derr(
                    s.line,
                    format!("non-finite bound for spec {:?}", s.name),
                ));
            }
            let m = Measure::parse(&s.measure).ok_or_else(|| {
                derr(
                    s.line,
                    format!("unknown measure {:?} for spec {:?}", s.measure, s.name),
                )
            })?;
            let kind = if s.lower_bound {
                SpecKind::LowerBound
            } else {
                SpecKind::UpperBound
            };
            specs.push(Spec::new(&s.name, &s.unit, kind, s.bound));
            measures.push((m, UnitConv::from_unit(&s.unit)));
        }

        // Mismatch groups: every member must be a MOSFET of the netlist and
        // appear in at most one group.
        let mosfet_names: Vec<&str> = ast
            .elements
            .iter()
            .filter(|e| matches!(e.kind, DeckElementKind::Mosfet { .. }))
            .map(|e| e.name.as_str())
            .collect();
        let mut groups: Vec<Vec<String>> = Vec::with_capacity(ast.matches.len());
        for m in &ast.matches {
            for dev in &m.devices {
                if !mosfet_names.contains(&dev.as_str()) {
                    return Err(derr(
                        m.line,
                        format!(".match device {dev:?} is not a MOSFET of the netlist"),
                    ));
                }
                if groups.iter().any(|g| g.contains(dev)) {
                    return Err(derr(
                        m.line,
                        format!(".match device {dev:?} is already in another group"),
                    ));
                }
            }
            groups.push(m.devices.clone());
        }
        let stat_map = StatMap { groups };
        let stats = StatSpace::with_locals(&stat_map.devices());

        // Element bindings, with `{param}` resolution and design-map
        // recording.
        let mut design_map = DesignMap {
            per_var: design
                .params()
                .iter()
                .map(|p| (p.name.clone(), Vec::new()))
                .collect(),
        };
        let mut bindings = Vec::with_capacity(ast.elements.len());
        for e in &ast.elements {
            let mut resolve =
                |v: &DeckValue, target: DesignTarget| -> Result<ValueExpr, CktError> {
                    match v {
                        DeckValue::Num(x) => Ok(ValueExpr::Lit(*x)),
                        DeckValue::Param(p) if p == "vdd" => Ok(ValueExpr::Vdd),
                        DeckValue::Param(p) if p == "vcm" => Ok(ValueExpr::Vcm),
                        DeckValue::Param(p) => {
                            let index = design.index_of(p).ok_or_else(|| {
                                derr(
                                    e.line,
                                    format!(
                                        "element {:?} references undeclared parameter {{{p}}}",
                                        e.name
                                    ),
                                )
                            })?;
                            design_map.per_var[index].1.push(DesignBinding {
                                element: e.name.clone(),
                                target,
                            });
                            Ok(ValueExpr::Design {
                                index,
                                scale: scales[index],
                            })
                        }
                    }
                };
            bindings.push(match &e.kind {
                DeckElementKind::Capacitor { value, .. } => {
                    Binding::Capacitance(resolve(value, DesignTarget::Value)?)
                }
                DeckElementKind::Resistor { value, .. }
                | DeckElementKind::VoltageSource { dc: value, .. }
                | DeckElementKind::CurrentSource { dc: value, .. }
                | DeckElementKind::Vcvs { gain: value, .. }
                | DeckElementKind::Vccs { gm: value, .. } => {
                    Binding::Value(resolve(value, DesignTarget::Value)?)
                }
                DeckElementKind::Mosfet { polarity, w, l, .. } => Binding::Mosfet {
                    w: resolve(w, DesignTarget::Width)?,
                    l: resolve(l, DesignTarget::Length)?,
                    stats: stats.bind_device(&e.name, *polarity),
                },
                DeckElementKind::Diode {
                    is_sat, ideality, ..
                } => Binding::Diode {
                    is_sat: resolve(is_sat, DesignTarget::Value)?,
                    ideality: resolve(ideality, DesignTarget::Value)?,
                },
                // `DeckElementKind` is non-exhaustive: fail loudly if the
                // parser grows element kinds the testbench does not know.
                other => {
                    return Err(derr(
                        e.line,
                        format!("element kind {other:?} is not supported by the testbench"),
                    ));
                }
            });
        }

        // Harness wiring.
        let mut vinp = None;
        let mut vinn = None;
        let mut out = None;
        let mut vdd_src = None;
        let mut tail = None;
        let mut slewcap = None;
        for t in &ast.tb {
            let slot = match t.key.as_str() {
                "vinp" => &mut vinp,
                "vinn" => &mut vinn,
                "out" => &mut out,
                "vdd" => &mut vdd_src,
                "tail" => &mut tail,
                "slewcap" => &mut slewcap,
                other => {
                    return Err(derr(t.line, format!("unknown .tb key {other:?}")));
                }
            };
            if slot.is_some() {
                return Err(derr(t.line, format!(".tb {} declared twice", t.key)));
            }
            *slot = Some((t.line, t.value.clone()));
        }
        let require =
            |slot: Option<(usize, String)>, key: &str| -> Result<(usize, String), CktError> {
                slot.ok_or_else(|| derr(0, format!("missing `.tb {key} <value>` directive")))
            };
        let (vinp_line, vinp) = require(vinp, "vinp")?;
        let (vinn_line, vinn) = require(vinn, "vinn")?;
        let (out_line, out) = require(out, "out")?;
        let (vdd_line, vdd_src) = require(vdd_src, "vdd")?;
        let (tail_line, tail) = require(tail, "tail")?;
        let (slewcap_line, slewcap) = require(slewcap, "slewcap")?;

        // The first element of each `.tb` name, with its binding.
        let find = |name: &str| {
            ast.elements
                .iter()
                .zip(&bindings)
                .find(|(e, _)| e.name == name)
        };
        let wired =
            |line: usize, key: &str, name: &str, what: &str, is: fn(&DeckElementKind) -> bool| {
                find(name)
                    .filter(|(e, _)| is(&e.kind))
                    .ok_or_else(|| derr(line, format!(".tb {key} must name {what}, got {name:?}")))
            };
        let vsource = |k: &DeckElementKind| matches!(k, DeckElementKind::VoltageSource { .. });
        let vcm_expr = match wired(vinp_line, "vinp", &vinp, "a voltage source", vsource)? {
            (_, Binding::Value(dc)) => *dc,
            _ => unreachable!("a voltage source binds its DC value"),
        };
        let inn_node = wired(vinn_line, "vinn", &vinn, "a voltage source", vsource)?
            .0
            .kind
            .nodes()[0];
        wired(vdd_line, "vdd", &vdd_src, "a voltage source", vsource)?;
        wired(tail_line, "tail", &tail, "a MOSFET", |k| {
            matches!(k, DeckElementKind::Mosfet { .. })
        })?;
        let slewcap = match wired(slewcap_line, "slewcap", &slewcap, "a capacitor", |k| {
            matches!(k, DeckElementKind::Capacitor { .. })
        })? {
            (_, Binding::Capacitance(c)) => *c,
            _ => unreachable!("a capacitor binds its capacitance"),
        };
        if ast.nodes.iter().any(|n| n == inn_node) {
            return Err(derr(
                vinn_line,
                format!(
                    "the inverting-input node {inn_node:?} must not be listed in .nodes \
                     (the feedback configuration replaces it with the output node)"
                ),
            ));
        }
        for n in &ast.nodes {
            if n == "0" || n.eq_ignore_ascii_case("gnd") {
                return Err(derr(0, "ground must not be listed in .nodes"));
            }
        }
        let node_exists = ast.nodes.contains(&out)
            || ast
                .elements
                .iter()
                .any(|e| e.kind.nodes().contains(&out.as_str()));
        if !node_exists {
            return Err(derr(
                out_line,
                format!(".tb out names unknown node {out:?}"),
            ));
        }

        // One lowering per configuration. The feedback circuit drops the
        // inverting-input source and wires its node to the output; it is
        // lowered first, so a bad literal reports the element every
        // evaluation would have failed on first.
        let template =
            |omit, alias| Template::compile(ast, omit, alias, (out_line, &out), &bindings);
        let feedback = template(Some(&vinn), Some((inn_node, &out)))?;
        let mut open_loop = template(None, None)?;
        open_loop.vinn = open_loop.circuit.find(&vinn).ok();

        Ok(Testbench {
            name: ast
                .title
                .clone()
                .unwrap_or_else(|| "deck testbench".to_string()),
            tech: Technology::c06(),
            feedback,
            open_loop,
            design,
            design_map,
            cap: stats.bind_cap(),
            stats,
            stat_map,
            specs,
            measures,
            range,
            bench: BenchConfig {
                vinp,
                vinn,
                vdd: vdd_src,
                tail,
                slewcap,
                vcm_expr,
            },
            sr_method: SlewRateMethod::Analytic,
            solver: SolverChoice::Auto,
            counter: SimCounter::new(),
            warm: WarmStartCache::new(true),
            identity,
            last: LastMeasurement::default(),
        })
    }

    /// Replaces the slew-rate extraction method.
    pub fn with_sr_method(mut self, method: SlewRateMethod) -> Self {
        self.sr_method = method;
        self.last = LastMeasurement::default();
        self
    }

    /// Forces the linear-solver backend of every circuit this bench builds
    /// (default [`SolverChoice::Auto`]); used by benchmarks and parity
    /// checks.
    pub fn with_solver(mut self, choice: SolverChoice) -> Self {
        self.solver = choice;
        self.last = LastMeasurement::default();
        self
    }

    /// Turns the DC warm-start cache on or off (default on).
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm = WarmStartCache::new(enabled);
        self.last = LastMeasurement::default();
        self
    }

    /// The DC warm-start cache (e.g. to clear between benchmark runs).
    pub fn warm_cache(&self) -> &WarmStartCache {
        &self.warm
    }

    /// Adjoint requests served from the bench's last measurement instead of
    /// being measured again: the simulations an exact repeat would have
    /// cost, six per repeat with the analytic slew rate, were never run or
    /// counted.
    pub fn measurements_reused(&self) -> u64 {
        self.counter.measurements_reused()
    }

    /// Where each design variable substitutes into the netlist.
    pub fn design_map(&self) -> &DesignMap {
        &self.design_map
    }

    /// The `.match` mismatch groups.
    pub fn stat_map(&self) -> &StatMap {
        &self.stat_map
    }

    /// Full metric set at one evaluation point.
    ///
    /// # Errors
    ///
    /// Returns [`CktError`] for dimension mismatches or failed simulations.
    pub fn metrics(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<OpampMetrics, CktError> {
        self.check_dims(d, s_hat)?;
        let m = measure(self, d, s_hat, theta)?;
        Ok(m.metrics)
    }

    /// Converts one harness result into the margin vector of this bench's
    /// spec list — the same `measure → performance → margin` chain as
    /// [`CircuitEnv::eval_margins`], applied to an already-measured point.
    fn margins_from(&self, m: &Measured) -> Result<DVec, CktError> {
        let ctx = MeasureContext {
            metrics: &m.metrics,
            op: &m.fb.op,
            circuit: &m.fb.circuit,
        };
        let mut out = Vec::with_capacity(self.measures.len());
        for ((measure, conv), spec) in self.measures.iter().zip(&self.specs) {
            out.push(spec.margin(conv.apply(measure.eval(&ctx)?)));
        }
        Ok(DVec::from(out))
    }

    fn check_dims(&self, d: &DVec, s_hat: &DVec) -> Result<(), CktError> {
        if d.len() != self.design.dim() {
            return Err(CktError::DimensionMismatch {
                what: "design",
                expected: self.design.dim(),
                found: d.len(),
            });
        }
        self.stats.check_len(s_hat)
    }
}

impl Testbench {
    /// The netlist at `(d, ŝ, θ)`: a copy of the compiled template with
    /// every value written in element order, so the first bad value is
    /// reported the way the element's constructor reports it.
    ///
    /// With `feedback == true` the output node is wired to the inverting
    /// gate (unity buffer) and `vinn_dc` is ignored; otherwise the inverting
    /// input is driven by an ideal source at `vinn_dc`.
    pub(crate) fn build(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        feedback: bool,
        vinn_dc: f64,
    ) -> Result<BuiltOpamp<'_>, CktError> {
        let t = if feedback {
            &self.feedback
        } else {
            &self.open_loop
        };
        let mut ckt = t.circuit.clone();
        ckt.set_temperature(theta.temp_k());
        ckt.set_solver(self.solver);
        self.stats.check_len(s_hat)?;
        let cap_factor = self.cap.factor(&self.tech, s_hat);
        for &(id, binding) in &t.bindings {
            match binding {
                Binding::Value(_) if Some(id) == t.vinn => ckt.set_value(id, vinn_dc)?,
                Binding::Value(v) => ckt.set_value(id, v.eval(d, theta))?,
                Binding::Capacitance(c) => ckt.set_value(id, c.eval(d, theta) * cap_factor)?,
                Binding::Mosfet { w, l, stats } => {
                    let (w, l) = (w.eval(d, theta), l.eval(d, theta));
                    let (delta_vth, beta_factor) = stats.deltas(&self.tech, w, l, s_hat);
                    let mut p = MosfetParams::new(*self.tech.model(stats.polarity()), w, l);
                    p.delta_vth = delta_vth;
                    p.beta_factor = beta_factor;
                    ckt.set_mosfet(id, p)?;
                }
                Binding::Diode { is_sat, ideality } => {
                    ckt.set_diode(id, is_sat.eval(d, theta), ideality.eval(d, theta))?;
                }
            }
        }
        Ok(BuiltOpamp {
            circuit: ckt,
            vinp_src: &self.bench.vinp,
            vinn_src: (!feedback).then_some(self.bench.vinn.as_str()),
            out: t.out,
            vdd_src: &self.bench.vdd,
            vcm: self.bench.vcm_expr.eval(d, theta),
            slew_cap: self.bench.slewcap.eval(d, theta) * cap_factor,
            tail_device: &self.bench.tail,
        })
    }
}

impl CircuitEnv for Testbench {
    fn name(&self) -> &str {
        &self.name
    }

    fn design_space(&self) -> &DesignSpace {
        &self.design
    }

    fn stat_space(&self) -> &StatSpace {
        &self.stats
    }

    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn operating_range(&self) -> &OperatingRange {
        &self.range
    }

    fn constraint_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for m in self.open_loop.circuit.mosfet_names() {
            names.push(format!("vsat_{m}"));
            names.push(format!("vov_{m}"));
            names.push(format!("vovmax_{m}"));
        }
        names
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        self.check_dims(d, s_hat)?;
        let m = measure(self, d, s_hat, theta)?;
        let ctx = MeasureContext {
            metrics: &m.metrics,
            op: &m.fb.op,
            circuit: &m.fb.circuit,
        };
        let mut out = Vec::with_capacity(self.measures.len());
        for (measure, conv) in &self.measures {
            out.push(conv.apply(measure.eval(&ctx)?));
        }
        Ok(DVec::from(out))
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        let s0 = DVec::zeros(self.stats.dim());
        self.check_dims(d, &s0)?;
        let theta = self.range.nominal();
        let built = self.build(d, &s0, &theta, true, 0.0)?;
        let op = dc_solve_counted(self, &built.circuit, d, &theta)?;
        Ok(saturation_constraints(&op, 0.05, 0.05, 0.5))
    }

    fn sim_count(&self) -> u64 {
        self.counter.count()
    }

    fn reset_sim_count(&self) {
        self.counter.reset();
    }

    fn set_sim_phase(&self, phase: crate::SimPhase) {
        self.counter.set_phase(phase);
    }

    fn sim_phase_counts(&self) -> [u64; crate::SimPhase::COUNT] {
        self.counter.phase_counts()
    }

    fn warm_commit(&self) {
        self.warm.commit();
        self.last.commit();
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        self.check_dims(d, s_hat)?;
        for (dp, sp) in directions {
            self.check_dims(dp, sp)?;
        }
        let Some((base, per)) = measure_with_directions(self, d, s_hat, theta, directions)? else {
            return Ok(None);
        };
        let base_margins = self.margins_from(&base)?;
        let mut out = Vec::with_capacity(per.len());
        for m in &per {
            out.push(self.margins_from(m)?);
        }
        Ok(Some((base_margins, out)))
    }

    fn adjoint_solve_count(&self) -> u64 {
        self.counter.adjoint_solves()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.counter.fd_sims_avoided()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "\
.name tiny test ota
.nodes vdd inp out x1 tail vbn
.design w1 um 2.0 200.0 6.0
.design l1 um 0.6 10.0 1.0
.design w3 um 2.0 200.0 12.0
.design wt um 2.0 200.0 20.0
.design ib uA 1.0 100.0 5.0
.range temp -40.0 125.0
.range vdd 3.0 3.6
.spec A0 dB min 30.0 dcgain
.spec ft MHz min 4.0 ugf
.spec SRp V/us min 4.0 slew
.spec Power mW max 0.5 power
.spec Vout V min 0.5 vdc(out)
.match m1 m2
.match m3 m4
.tb vinp VINP
.tb vinn VINN
.tb out out
.tb vdd VDD
.tb tail mt
.tb slewcap CL
VDD vdd 0 {vdd}
VINP inp 0 {vcm}
VINN inn 0 {vcm}
IB1 vdd vbn {ib}
m1 x1 inp tail 0 NMOS W={w1} L={l1}
m2 out inn tail 0 NMOS W={w1} L={l1}
m3 x1 x1 vdd vdd PMOS W={w3} L=2e-6
m4 out x1 vdd vdd PMOS W={w3} L=2e-6
mt tail vbn 0 0 NMOS W={wt} L=2e-6
mb1 vbn vbn 0 0 NMOS W=10e-6 L=2e-6
CL out 0 2.0e-12
.end
";

    #[test]
    fn compiles_and_exposes_spaces() {
        let tb = Testbench::from_deck(DECK).unwrap();
        assert_eq!(tb.name(), "tiny test ota");
        assert_eq!(tb.design_space().dim(), 5);
        // 5 globals + 2 locals for each of the 4 matched devices.
        assert_eq!(tb.stat_dim(), 5 + 8);
        assert_eq!(tb.specs().len(), 5);
        assert_eq!(tb.stat_map().pairs(), vec![("m1", "m2"), ("m3", "m4")]);
        // 6 mosfets × 3 constraints.
        assert_eq!(tb.constraint_names().len(), 18);
        let w1 = tb.design_map().bindings_of("w1");
        assert_eq!(w1.len(), 2, "w1 drives the widths of m1 and m2");
        assert!(w1
            .iter()
            .all(|b| b.target == DesignTarget::Width && (b.element == "m1" || b.element == "m2")));
        let ib = tb.design_map().bindings_of("ib");
        assert_eq!(ib.len(), 1);
        assert_eq!(ib[0].target, DesignTarget::Value);
    }

    #[test]
    fn evaluates_performances_and_constraints() {
        let tb = Testbench::from_deck(DECK).unwrap();
        let d0 = tb.design_space().initial();
        let s0 = DVec::zeros(tb.stat_dim());
        let theta = tb.operating_range().nominal();
        let perf = tb.eval_performances(&d0, &s0, &theta).unwrap();
        assert_eq!(perf.len(), 5);
        assert!(perf[0] > 20.0, "A0 = {} dB", perf[0]);
        // vdc(out): the unity buffer holds the output near the common mode.
        assert!(
            (perf[4] - theta.vdd / 2.0).abs() < 0.3,
            "V(out) = {}",
            perf[4]
        );
        let c = tb.eval_constraints(&d0).unwrap();
        assert_eq!(c.len(), 18);
        assert!(tb.sim_count() > 0);
    }

    #[test]
    fn semantic_errors_carry_lines() {
        // Unknown parameter reference.
        let bad = DECK.replace("{ib}", "{ibx}");
        match Testbench::from_deck(&bad).unwrap_err() {
            CktError::Deck { line, reason } => {
                assert_eq!(line, 26, "{reason}");
                assert!(reason.contains("ibx"), "{reason}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Match group member that is not a MOSFET.
        let bad = DECK.replace(".match m3 m4", ".match m3 CL");
        assert!(matches!(
            Testbench::from_deck(&bad),
            Err(CktError::Deck { .. })
        ));
        // Unknown measure token.
        let bad = DECK.replace("dcgain", "gainz");
        assert!(matches!(
            Testbench::from_deck(&bad),
            Err(CktError::Deck { .. })
        ));
        // Missing range axis.
        let bad = DECK.replace(".range vdd 3.0 3.6\n", "");
        assert!(matches!(
            Testbench::from_deck(&bad),
            Err(CktError::Deck { .. })
        ));
        // Inverting-input node must not be pre-declared.
        let bad = DECK.replace(
            ".nodes vdd inp out x1 tail vbn",
            ".nodes vdd inp inn out x1 tail vbn",
        );
        assert!(matches!(
            Testbench::from_deck(&bad),
            Err(CktError::Deck { .. })
        ));
        // Unknown design unit.
        let bad = DECK.replace(".design ib uA", ".design ib furlongs");
        assert!(matches!(
            Testbench::from_deck(&bad),
            Err(CktError::Deck { .. })
        ));
    }

    #[test]
    fn literals_and_names_that_fail_every_evaluation_are_compile_errors() {
        let expect = |deck: &str, want_line: usize, needle: &str| match Testbench::from_deck(deck)
            .unwrap_err()
        {
            CktError::Deck { line, reason } => {
                assert_eq!(line, want_line, "{reason}");
                assert!(reason.contains(needle), "{reason}");
            }
            other => panic!("unexpected: {other:?}"),
        };
        // A negative literal capacitance (line 33).
        expect(
            &DECK.replace("CL out 0 2.0e-12", "CL out 0 -2.0e-12"),
            33,
            "capacitance must be non-negative",
        );
        // A zero literal MOSFET length (line 32).
        expect(
            &DECK.replace(
                "mb1 vbn vbn 0 0 NMOS W=10e-6 L=2e-6",
                "mb1 vbn vbn 0 0 NMOS W=10e-6 L=0",
            ),
            32,
            "W and L must be positive",
        );
        // A duplicate element name, reported at its second use.
        expect(&DECK.replace("mb1 vbn vbn", "m1 vbn vbn"), 32, "duplicate");
        // A duplicate of the inverting-input source, which only the
        // open-loop configuration contains.
        expect(
            &DECK.replace("CL out 0 2.0e-12", "VINN x9 0 1.0\nCL out 0 2.0e-12"),
            33,
            "duplicate",
        );
        // The feedback configuration is lowered first: with a bad literal
        // after a duplicate inverting-input source, the literal is reported.
        expect(
            &DECK
                .replace("IB1 vdd vbn {ib}", "VINN x9 0 1.0\nIB1 vdd vbn {ib}")
                .replace("CL out 0 2.0e-12", "CL out 0 -1.0"),
            34,
            "capacitance",
        );
        // An output named after ground is not a node of the circuit.
        expect(
            &DECK.replace(".tb out out", ".tb out gnd"),
            19,
            "unknown node",
        );
    }

    #[test]
    fn bad_bound_values_fail_like_the_element_constructors() {
        // `{ib}` drives a current source whose value the design box allows
        // to be anything; bind it to a resistor with a non-positive range.
        let deck = DECK
            .replace(
                ".design ib uA 1.0 100.0 5.0",
                ".design ib uA 1.0 100.0 5.0\n.design rb Ohm -10.0 10.0 -1.0",
            )
            .replace("CL out 0 2.0e-12", "CL out 0 2.0e-12\nRB out 0 {rb}");
        let tb = Testbench::from_deck(&deck).unwrap();
        let d0 = tb.design_space().initial();
        let s0 = DVec::zeros(tb.stat_dim());
        let theta = tb.operating_range().nominal();
        let want = Circuit::new()
            .resistor("RB", Circuit::GROUND, Circuit::GROUND, -1.0)
            .unwrap_err();
        for err in [
            tb.eval_performances(&d0, &s0, &theta).unwrap_err(),
            tb.eval_constraints(&d0).unwrap_err(),
        ] {
            assert_eq!(err.to_string(), CktError::from(want.clone()).to_string());
        }
    }

    /// `(answer, simulations, served repeats)` of one adjoint request with
    /// the ŝ gradient directions at `(d, s)`.
    fn adjoint_request(
        tb: &Testbench,
        d: &DVec,
        s: &DVec,
    ) -> (Option<(DVec, Vec<DVec>)>, u64, u64) {
        let theta = tb.operating_range().nominal();
        let dirs: Vec<(DVec, DVec)> = (0..s.len())
            .map(|j| {
                let mut s2 = s.clone();
                s2[j] += 0.01;
                (d.clone(), s2)
            })
            .collect();
        let (sims, reused) = (tb.sim_count(), tb.measurements_reused());
        let answer = tb.eval_margins_perturbed(d, s, &theta, &dirs).unwrap();
        (
            answer,
            tb.sim_count() - sims,
            tb.measurements_reused() - reused,
        )
    }

    fn stat_point(tb: &Testbench, x: f64) -> DVec {
        DVec::from_fn(tb.stat_dim(), |i| x - 0.05 * i as f64)
    }

    fn bits(answer: &Option<(DVec, Vec<DVec>)>) -> Vec<u64> {
        let (base, per) = answer.as_ref().expect("the shortcut answers");
        base.iter()
            .chain(per.iter().flat_map(|m| m.iter()))
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn committed_repeats_are_served_bit_for_bit() {
        let d = Testbench::from_deck(DECK).unwrap().design_space().initial();
        let reference = Testbench::from_deck(DECK).unwrap();
        let s = stat_point(&reference, 0.3);
        let (want, sims, _) = adjoint_request(&reference, &d, &s);
        assert_eq!(sims, 6, "a measured request: two DC solves, four AC");

        // A plain measurement, a commit, then the adjoint request at the
        // same point: served, no simulation.
        let tb = Testbench::from_deck(DECK).unwrap();
        let theta = tb.operating_range().nominal();
        tb.eval_margins(&d, &s, &theta).unwrap();
        tb.warm_commit();
        let (got, sims, reused) = adjoint_request(&tb, &d, &s);
        assert_eq!((sims, reused), (0, 1));
        assert_eq!(bits(&got), bits(&want));
        // An adjoint record serves the next adjoint request too.
        tb.warm_commit();
        let (again, sims, reused) = adjoint_request(&tb, &d, &s);
        assert_eq!((sims, reused), (0, 1));
        assert_eq!(bits(&again), bits(&want));
        assert_eq!(tb.measurements_reused(), 2);
    }

    #[test]
    fn uncommitted_warm_repeats_are_measured_again() {
        let tb = Testbench::from_deck(DECK).unwrap();
        let d = tb.design_space().initial();
        let s = stat_point(&tb, 0.3);
        tb.eval_margins(&d, &s, &tb.operating_range().nominal())
            .unwrap();
        let (_, sims, reused) = adjoint_request(&tb, &d, &s);
        assert_eq!((sims, reused), (6, 0), "no commit: not provably the same");
        // Without warm starts every solve is cold and deterministic.
        let cold = Testbench::from_deck(DECK).unwrap().with_warm_start(false);
        cold.eval_margins(&d, &s, &cold.operating_range().nominal())
            .unwrap();
        let (_, sims, reused) = adjoint_request(&cold, &d, &s);
        assert_eq!((sims, reused), (0, 1));
    }

    #[test]
    fn a_batch_keeps_its_smallest_signature_in_any_order() {
        let d = Testbench::from_deck(DECK).unwrap().design_space().initial();
        let served = |order: [f64; 2], request: f64| {
            let tb = Testbench::from_deck(DECK).unwrap();
            let theta = tb.operating_range().nominal();
            tb.warm_commit();
            for x in order {
                tb.eval_margins(&d, &stat_point(&tb, x), &theta).unwrap();
            }
            tb.warm_commit();
            adjoint_request(&tb, &d, &stat_point(&tb, request)).2
        };
        for order in [[0.25, 0.5], [0.5, 0.25]] {
            assert_eq!(served(order, 0.25), 1, "{order:?}: smallest kept");
            assert_eq!(served(order, 0.5), 0, "{order:?}: larger dropped");
        }
    }

    #[test]
    fn a_later_window_replaces_an_earlier_plain_record() {
        let tb = Testbench::from_deck(DECK).unwrap();
        let d = tb.design_space().initial();
        let theta = tb.operating_range().nominal();
        tb.eval_margins(&d, &stat_point(&tb, 0.25), &theta).unwrap();
        tb.warm_commit();
        // A larger signature, but measured after the commit.
        tb.eval_margins(&d, &stat_point(&tb, 0.5), &theta).unwrap();
        tb.warm_commit();
        let (_, sims, reused) = adjoint_request(&tb, &d, &stat_point(&tb, 0.5));
        assert_eq!((sims, reused), (0, 1));
    }

    #[test]
    fn builders_forget_the_last_measurement() {
        let tb = Testbench::from_deck(DECK).unwrap();
        let d = tb.design_space().initial();
        let s = stat_point(&tb, 0.3);
        tb.eval_margins(&d, &s, &tb.operating_range().nominal())
            .unwrap();
        tb.warm_commit();
        // Recompiled with another solver, the bench must measure again.
        let tb = tb.with_solver(SolverChoice::Dense);
        let (_, sims, reused) = adjoint_request(&tb, &d, &s);
        assert_eq!((sims, reused), (6, 0));
    }

    #[test]
    fn mismatch_locals_move_offset_but_not_globals_only_parity() {
        let tb = Testbench::from_deck(DECK).unwrap();
        let d0 = tb.design_space().initial();
        let theta = tb.operating_range().nominal();
        let base = tb
            .eval_performances(&d0, &DVec::zeros(tb.stat_dim()), &theta)
            .unwrap();
        let mut s = DVec::zeros(tb.stat_dim());
        s[tb.stat_space().index_of("vth_m1").unwrap()] = 3.0;
        let shifted = tb.eval_performances(&d0, &s, &theta).unwrap();
        assert!(
            (&shifted - &base).norm_inf() > 1e-6,
            "local mismatch must move performances"
        );
    }
}
