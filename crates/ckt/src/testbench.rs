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
    DeckValue, MosPolarity, MosfetParams, NodeId, SolverChoice,
};

use crate::measure::{
    dc_solve_counted, measure, measure_with_directions, saturation_constraints, BuiltOpamp,
    Measure, MeasureContext, Measured, OpampBuilder,
};
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

/// A compiled element: the deck element with values resolved to
/// [`ValueExpr`]s.
#[derive(Debug, Clone)]
struct TElem {
    name: String,
    kind: TElemKind,
}

#[derive(Debug, Clone)]
enum TElemKind {
    Resistor {
        a: String,
        b: String,
        value: ValueExpr,
    },
    Capacitor {
        a: String,
        b: String,
        value: ValueExpr,
    },
    VoltageSource {
        p: String,
        n: String,
        dc: ValueExpr,
        ac: Option<f64>,
    },
    CurrentSource {
        p: String,
        n: String,
        dc: ValueExpr,
        ac: Option<f64>,
    },
    Vcvs {
        p: String,
        n: String,
        cp: String,
        cn: String,
        gain: ValueExpr,
    },
    Vccs {
        p: String,
        n: String,
        cp: String,
        cn: String,
        gm: ValueExpr,
    },
    Mosfet {
        d: String,
        g: String,
        s: String,
        b: String,
        polarity: MosPolarity,
        w: ValueExpr,
        l: ValueExpr,
    },
    Diode {
        a: String,
        k: String,
        is_sat: ValueExpr,
        ideality: ValueExpr,
    },
}

/// Harness wiring resolved from the `.tb` directives.
#[derive(Debug, Clone)]
struct BenchConfig {
    /// Non-inverting input source (element name).
    vinp: String,
    /// Inverting input source (element name).
    vinn: String,
    /// Output node name.
    out: String,
    /// Supply source (element name).
    vdd: String,
    /// Tail device (element name) whose |I_D| limits slewing.
    tail: String,
    /// The capacitor (element name) that limits slewing.
    slewcap: String,
    /// Positive node of the `vinn` source — aliased to the output in the
    /// feedback configuration.
    inn_node: String,
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
    declared_nodes: Vec<String>,
    elements: Vec<TElem>,
    design: DesignSpace,
    design_map: DesignMap,
    stats: StatSpace,
    stat_map: StatMap,
    specs: Vec<Spec>,
    measures: Vec<(Measure, UnitConv)>,
    range: OperatingRange,
    bench: BenchConfig,
    sr_method: SlewRateMethod,
    solver: SolverChoice,
    counter: SimCounter,
    warm: WarmStartCache,
    identity: u64,
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

        // Element templates, with `{param}` resolution and design-map
        // recording.
        let mut design_map = DesignMap {
            per_var: design
                .params()
                .iter()
                .map(|p| (p.name.clone(), Vec::new()))
                .collect(),
        };
        let mut elements = Vec::with_capacity(ast.elements.len());
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
            let kind = match &e.kind {
                DeckElementKind::Resistor { a, b, value } => TElemKind::Resistor {
                    a: a.clone(),
                    b: b.clone(),
                    value: resolve(value, DesignTarget::Value)?,
                },
                DeckElementKind::Capacitor { a, b, value } => TElemKind::Capacitor {
                    a: a.clone(),
                    b: b.clone(),
                    value: resolve(value, DesignTarget::Value)?,
                },
                DeckElementKind::VoltageSource { p, n, dc, ac } => TElemKind::VoltageSource {
                    p: p.clone(),
                    n: n.clone(),
                    dc: resolve(dc, DesignTarget::Value)?,
                    ac: *ac,
                },
                DeckElementKind::CurrentSource { p, n, dc, ac } => TElemKind::CurrentSource {
                    p: p.clone(),
                    n: n.clone(),
                    dc: resolve(dc, DesignTarget::Value)?,
                    ac: *ac,
                },
                DeckElementKind::Vcvs { p, n, cp, cn, gain } => TElemKind::Vcvs {
                    p: p.clone(),
                    n: n.clone(),
                    cp: cp.clone(),
                    cn: cn.clone(),
                    gain: resolve(gain, DesignTarget::Value)?,
                },
                DeckElementKind::Vccs { p, n, cp, cn, gm } => TElemKind::Vccs {
                    p: p.clone(),
                    n: n.clone(),
                    cp: cp.clone(),
                    cn: cn.clone(),
                    gm: resolve(gm, DesignTarget::Value)?,
                },
                DeckElementKind::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    polarity,
                    w,
                    l,
                } => TElemKind::Mosfet {
                    d: d.clone(),
                    g: g.clone(),
                    s: s.clone(),
                    b: b.clone(),
                    polarity: *polarity,
                    w: resolve(w, DesignTarget::Width)?,
                    l: resolve(l, DesignTarget::Length)?,
                },
                DeckElementKind::Diode {
                    a,
                    k,
                    is_sat,
                    ideality,
                } => TElemKind::Diode {
                    a: a.clone(),
                    k: k.clone(),
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
            };
            elements.push(TElem {
                name: e.name.clone(),
                kind,
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

        let find = |name: &str| elements.iter().find(|el| el.name == name);
        let vsource =
            |line: usize, name: &str, key: &str| -> Result<(ValueExpr, String), CktError> {
                match find(name) {
                    Some(TElem {
                        kind: TElemKind::VoltageSource { p, dc, .. },
                        ..
                    }) => Ok((*dc, p.clone())),
                    _ => Err(derr(
                        line,
                        format!(".tb {key} must name a voltage source, got {name:?}"),
                    )),
                }
            };
        let (vcm_expr, _) = vsource(vinp_line, &vinp, "vinp")?;
        let (_, inn_node) = vsource(vinn_line, &vinn, "vinn")?;
        vsource(vdd_line, &vdd_src, "vdd")?;
        if !matches!(
            find(&tail),
            Some(TElem {
                kind: TElemKind::Mosfet { .. },
                ..
            })
        ) {
            return Err(derr(
                tail_line,
                format!(".tb tail must name a MOSFET, got {tail:?}"),
            ));
        }
        if !matches!(
            find(&slewcap),
            Some(TElem {
                kind: TElemKind::Capacitor { .. },
                ..
            })
        ) {
            return Err(derr(
                slewcap_line,
                format!(".tb slewcap must name a capacitor, got {slewcap:?}"),
            ));
        }
        if ast.nodes.contains(&inn_node) {
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
            || elements
                .iter()
                .any(|el| el_nodes(&el.kind).iter().any(|n| **n == out));
        if !node_exists {
            return Err(derr(
                out_line,
                format!(".tb out names unknown node {out:?}"),
            ));
        }

        Ok(Testbench {
            name: ast
                .title
                .clone()
                .unwrap_or_else(|| "deck testbench".to_string()),
            tech: Technology::c06(),
            declared_nodes: ast.nodes.clone(),
            elements,
            design,
            design_map,
            stats,
            stat_map,
            specs,
            measures,
            range,
            bench: BenchConfig {
                vinp,
                vinn,
                out,
                vdd: vdd_src,
                tail,
                slewcap,
                inn_node,
                vcm_expr,
            },
            sr_method: SlewRateMethod::Analytic,
            solver: SolverChoice::Auto,
            counter: SimCounter::new(),
            warm: WarmStartCache::from_env(),
            identity,
        })
    }

    /// Replaces the slew-rate extraction method.
    pub fn with_sr_method(mut self, method: SlewRateMethod) -> Self {
        self.sr_method = method;
        self
    }

    /// Forces the linear-solver backend of every circuit this bench builds
    /// (default [`SolverChoice::Auto`]); used by benchmarks and parity
    /// checks.
    pub fn with_solver(mut self, choice: SolverChoice) -> Self {
        self.solver = choice;
        self
    }

    /// Forces the DC warm-start cache on or off (overriding the
    /// `SPECWISE_WARM_START` environment knob).
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm = if enabled {
            WarmStartCache::always_enabled()
        } else {
            WarmStartCache::disabled()
        };
        self
    }

    /// Replaces the technology card (default: [`Technology::c06`]).
    pub fn with_technology(mut self, tech: Technology) -> Self {
        self.tech = tech;
        self
    }

    /// Replaces the measurement bound to the named spec with a custom
    /// closure — the escape hatch for performances outside the built-in
    /// vocabulary.
    ///
    /// # Errors
    ///
    /// Returns [`CktError::Deck`] when no spec has that name.
    pub fn with_custom_measure(
        mut self,
        spec_name: &str,
        f: impl Fn(&MeasureContext) -> Result<f64, CktError> + Send + Sync + 'static,
    ) -> Result<Self, CktError> {
        let i = self
            .specs
            .iter()
            .position(|s| s.name() == spec_name)
            .ok_or_else(|| derr(0, format!("no spec named {spec_name:?}")))?;
        self.measures[i].0 = Measure::Custom(std::sync::Arc::new(f));
        Ok(self)
    }

    /// The DC warm-start cache (e.g. to clear between benchmark runs).
    pub fn warm_cache(&self) -> &WarmStartCache {
        &self.warm
    }

    /// The technology card in use.
    pub fn technology(&self) -> &Technology {
        &self.tech
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
        let m = measure(
            self,
            self.identity,
            d,
            s_hat,
            theta,
            self.sr_method,
            &self.counter,
            &self.warm,
        )?;
        Ok(m.metrics)
    }

    /// Converts one harness result into the margin vector of this bench's
    /// spec list — the same `measure → performance → margin` chain as
    /// [`CircuitEnv::eval_margins`], applied to an already-measured point.
    fn margins_from(&self, m: &Measured) -> Result<DVec, CktError> {
        let ctx = MeasureContext {
            metrics: &m.metrics,
            op: &m.op_fb,
            circuit: &m.fb_circuit,
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
        if s_hat.len() != self.stats.dim() {
            return Err(CktError::DimensionMismatch {
                what: "stat",
                expected: self.stats.dim(),
                found: s_hat.len(),
            });
        }
        Ok(())
    }
}

fn el_nodes(kind: &TElemKind) -> Vec<&String> {
    match kind {
        TElemKind::Resistor { a, b, .. } | TElemKind::Capacitor { a, b, .. } => vec![a, b],
        TElemKind::VoltageSource { p, n, .. } | TElemKind::CurrentSource { p, n, .. } => {
            vec![p, n]
        }
        TElemKind::Vcvs { p, n, cp, cn, .. } | TElemKind::Vccs { p, n, cp, cn, .. } => {
            vec![p, n, cp, cn]
        }
        TElemKind::Mosfet { d, g, s, b, .. } => vec![d, g, s, b],
        TElemKind::Diode { a, k, .. } => vec![a, k],
    }
}

impl OpampBuilder for Testbench {
    fn build(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        feedback: bool,
        vinn_dc: f64,
    ) -> Result<BuiltOpamp, CktError> {
        let mut ckt = Circuit::new();
        ckt.set_temperature(theta.temp_k());
        ckt.set_solver(self.solver);
        // Pre-intern the declared nodes: this pins the MNA unknown ordering
        // (and thereby the LU pivoting sequence) to the deck's `.nodes`
        // line, independent of element order.
        for n in &self.declared_nodes {
            ckt.node(n);
        }
        let out = ckt.node(&self.bench.out);
        let cap_factor = self.stats.cap_factor(&self.tech, s_hat)?;

        let mut slew_cap = 0.0;
        for el in &self.elements {
            // The feedback configuration drops the inverting-input source
            // and wires its node to the output.
            if feedback && el.name == self.bench.vinn {
                continue;
            }
            let mut node = |name: &String| -> NodeId {
                if name == "0" || name.eq_ignore_ascii_case("gnd") {
                    Circuit::GROUND
                } else if feedback && *name == self.bench.inn_node {
                    out
                } else {
                    ckt.node(name)
                }
            };
            match &el.kind {
                TElemKind::Resistor { a, b, value } => {
                    let (a, b) = (node(a), node(b));
                    ckt.resistor(&el.name, a, b, value.eval(d, theta))?;
                }
                TElemKind::Capacitor { a, b, value } => {
                    let (a, b) = (node(a), node(b));
                    let c = value.eval(d, theta) * cap_factor;
                    if el.name == self.bench.slewcap {
                        slew_cap = c;
                    }
                    ckt.capacitor(&el.name, a, b, c)?;
                }
                TElemKind::VoltageSource { p, n, dc, ac } => {
                    let (p, n) = (node(p), node(n));
                    let v = if el.name == self.bench.vinn {
                        vinn_dc
                    } else {
                        dc.eval(d, theta)
                    };
                    ckt.voltage_source(&el.name, p, n, v)?;
                    if let Some(mag) = ac {
                        ckt.set_ac(&el.name, *mag)?;
                    }
                }
                TElemKind::CurrentSource { p, n, dc, ac } => {
                    let (p, n) = (node(p), node(n));
                    ckt.current_source(&el.name, p, n, dc.eval(d, theta))?;
                    if let Some(mag) = ac {
                        ckt.set_ac(&el.name, *mag)?;
                    }
                }
                TElemKind::Vcvs { p, n, cp, cn, gain } => {
                    let (p, n, cp, cn) = (node(p), node(n), node(cp), node(cn));
                    ckt.vcvs(&el.name, p, n, cp, cn, gain.eval(d, theta))?;
                }
                TElemKind::Vccs { p, n, cp, cn, gm } => {
                    let (p, n, cp, cn) = (node(p), node(n), node(cp), node(cn));
                    ckt.vccs(&el.name, p, n, cp, cn, gm.eval(d, theta))?;
                }
                TElemKind::Mosfet {
                    d: dn,
                    g,
                    s,
                    b,
                    polarity,
                    w,
                    l,
                } => {
                    let (dn, g, s, b) = (node(dn), node(g), node(s), node(b));
                    let (wv, lv) = (w.eval(d, theta), l.eval(d, theta));
                    let (delta_vth, beta_factor) = self
                        .stats
                        .device_deltas(&self.tech, &el.name, *polarity, wv, lv, s_hat)?;
                    let mut p = MosfetParams::new(*self.tech.model(*polarity), wv, lv);
                    p.delta_vth = delta_vth;
                    p.beta_factor = beta_factor;
                    ckt.mosfet(&el.name, dn, g, s, b, p)?;
                }
                TElemKind::Diode {
                    a,
                    k,
                    is_sat,
                    ideality,
                } => {
                    let (a, k) = (node(a), node(k));
                    ckt.diode(
                        &el.name,
                        a,
                        k,
                        is_sat.eval(d, theta),
                        ideality.eval(d, theta),
                    )?;
                }
            }
        }

        Ok(BuiltOpamp {
            circuit: ckt,
            vinp_src: self.bench.vinp.clone(),
            vinn_src: if feedback {
                None
            } else {
                Some(self.bench.vinn.clone())
            },
            out,
            vdd_src: self.bench.vdd.clone(),
            vcm: self.bench.vcm_expr.eval(d, theta),
            slew_cap,
            tail_device: self.bench.tail.clone(),
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
        for el in &self.elements {
            if matches!(el.kind, TElemKind::Mosfet { .. }) {
                names.push(format!("vsat_{}", el.name));
                names.push(format!("vov_{}", el.name));
                names.push(format!("vovmax_{}", el.name));
            }
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
        let m = measure(
            self,
            self.identity,
            d,
            s_hat,
            theta,
            self.sr_method,
            &self.counter,
            &self.warm,
        )?;
        let ctx = MeasureContext {
            metrics: &m.metrics,
            op: &m.op_fb,
            circuit: &m.fb_circuit,
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
        let op = dc_solve_counted(
            &built.circuit,
            self.identity,
            &self.counter,
            &self.warm,
            d,
            &theta,
        )?;
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
        let Some((base, per)) = measure_with_directions(
            self,
            self.identity,
            d,
            s_hat,
            theta,
            self.sr_method,
            &self.counter,
            &self.warm,
            directions,
        )?
        else {
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
    fn custom_measure_replaces_builtin() {
        let tb = Testbench::from_deck(DECK)
            .unwrap()
            .with_custom_measure("Vout", |ctx| Ok(ctx.metrics.a0_db * 2.0))
            .unwrap();
        let d0 = tb.design_space().initial();
        let s0 = DVec::zeros(tb.stat_dim());
        let theta = tb.operating_range().nominal();
        let perf = tb.eval_performances(&d0, &s0, &theta).unwrap();
        assert!((perf[4] - 2.0 * perf[0]).abs() < 1e-9);
        assert!(Testbench::from_deck(DECK)
            .unwrap()
            .with_custom_measure("nope", |_| Ok(0.0))
            .is_err());
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
