//! Netlist representation and builder.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{MnaError, MosfetParams, SolverChoice};

/// Identifier of a circuit node. Node 0 ([`Circuit::GROUND`]) is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an element within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// Time-dependent stimulus of an independent source (used by transient
/// analysis; DC and AC analyses use the `dc`/`ac` fields of the element).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stimulus {
    /// Constant value.
    Dc(f64),
    /// Linear ramp from `v0` to `v1` starting at `t0`, rising over `t_rise`.
    Step {
        /// Initial value.
        v0: f64,
        /// Final value.
        v1: f64,
        /// Ramp start time \[s\].
        t0: f64,
        /// Ramp duration \[s\] (must be > 0).
        t_rise: f64,
    },
    /// Sine `offset + ampl·sin(2π·freq·(t − delay))` for `t ≥ delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency \[Hz\].
        freq: f64,
        /// Start delay \[s\].
        delay: f64,
    },
}

impl Stimulus {
    /// Value of the stimulus at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        match *self {
            Stimulus::Dc(v) => v,
            Stimulus::Step { v0, v1, t0, t_rise } => {
                if t <= t0 {
                    v0
                } else if t >= t0 + t_rise {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / t_rise
                }
            }
            Stimulus::Sine {
                offset,
                ampl,
                freq,
                delay,
            } => {
                if t < delay {
                    offset
                } else {
                    offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }

    /// Value at `t = 0` (the DC operating point for transient start).
    pub fn initial(&self) -> f64 {
        self.at(0.0)
    }
}

/// The element kinds understood by the analyses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ElementKind {
    Resistor {
        a: NodeId,
        b: NodeId,
        ohms: f64,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        farads: f64,
    },
    /// Independent voltage source from `p` (+) to `n` (−); adds one branch
    /// current unknown.
    VoltageSource {
        p: NodeId,
        n: NodeId,
        dc: f64,
        ac: f64,
        stimulus: Option<Stimulus>,
        branch: usize,
    },
    /// Independent current source; positive `dc` drives conventional current
    /// out of `p`, through the source, into `n`.
    CurrentSource {
        p: NodeId,
        n: NodeId,
        dc: f64,
        ac: f64,
    },
    /// Voltage-controlled current source: `i(p→n) = gm·(v(cp) − v(cn))`.
    Vccs {
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    },
    /// Voltage-controlled voltage source: `v(p) − v(n) = gain·(v(cp) − v(cn))`.
    Vcvs {
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
        branch: usize,
    },
    Mosfet {
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosfetParams,
    },
    /// pn-junction diode from anode `a` to cathode `k`:
    /// `i = Is·(exp(v/(n·V_T)) − 1)`.
    Diode {
        a: NodeId,
        k: NodeId,
        is_sat: f64,
        ideality: f64,
    },
}

/// The name tables of a circuit: node names, element names, and the
/// branch-current index of every voltage source and VCVS.
///
/// A circuit, its clones and every DC/AC solution computed on them share
/// one table through an `Arc`; only the two topology mutators
/// ([`Circuit::node`] and element insertion) copy it, on write. Cloning a
/// circuit to rewrite its element values therefore allocates no name.
#[derive(Debug, Clone)]
pub(crate) struct NameTable {
    nodes: HashMap<String, NodeId>,
    elements: Vec<String>,
    element_ids: HashMap<String, ElementId>,
    branches: HashMap<String, usize>,
}

impl NameTable {
    /// The element named `name`.
    pub(crate) fn element(&self, name: &str) -> Option<ElementId> {
        self.element_ids.get(name).copied()
    }

    /// The branch-current index of the voltage source or VCVS `name`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] when the name is not a branch element.
    pub(crate) fn branch(&self, name: &str) -> Result<usize, MnaError> {
        self.branches
            .get(name)
            .copied()
            .ok_or_else(|| MnaError::NotFound {
                name: name.to_string(),
            })
    }
}

/// A flat analog netlist plus global simulation conditions (temperature).
///
/// Build the circuit with the `resistor`/`capacitor`/`voltage_source`/…
/// methods, then hand it to [`crate::DcOp`], [`crate::AcSolver`] or
/// [`crate::Transient`].
///
/// # Example
///
/// ```
/// use specwise_mna::{Circuit, DcOp};
///
/// # fn main() -> Result<(), specwise_mna::MnaError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.voltage_source("V1", a, Circuit::GROUND, 2.0)?;
/// let mid = ckt.node("mid");
/// ckt.resistor("R1", a, mid, 1e3)?;
/// ckt.resistor("R2", mid, Circuit::GROUND, 1e3)?;
/// let op = DcOp::new(&ckt).solve()?;
/// assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    names: Arc<NameTable>,
    kinds: Vec<ElementKind>,
    branches: usize,
    temperature: f64,
    solver: SolverChoice,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// The ground node (node 0).
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit at the default temperature (27 °C).
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert("0".to_string(), NodeId(0));
        Circuit {
            names: Arc::new(NameTable {
                nodes,
                elements: Vec::new(),
                element_ids: HashMap::new(),
                branches: HashMap::new(),
            }),
            kinds: Vec::new(),
            branches: 0,
            temperature: 300.15,
            solver: SolverChoice::Auto,
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The name `"0"` always refers to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.names.nodes.get(name) {
            return id;
        }
        let nodes = &mut Arc::make_mut(&mut self.names).nodes;
        let id = NodeId(nodes.len());
        nodes.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] for unknown names.
    pub fn find_node(&self, name: &str) -> Result<NodeId, MnaError> {
        self.names
            .nodes
            .get(name)
            .copied()
            .ok_or_else(|| MnaError::NotFound {
                name: name.to_string(),
            })
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.names.nodes.len()
    }

    /// Size of the MNA unknown vector: `(num_nodes − 1) + num_branches`.
    pub fn num_unknowns(&self) -> usize {
        self.num_nodes() - 1 + self.branches
    }

    /// Simulation temperature \[K\].
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Sets the simulation temperature \[K\].
    ///
    /// # Panics
    ///
    /// Panics for non-positive or non-finite temperatures.
    pub fn set_temperature(&mut self, kelvin: f64) {
        assert!(
            kelvin.is_finite() && kelvin > 0.0,
            "invalid temperature {kelvin}"
        );
        self.temperature = kelvin;
    }

    /// Linear-solver backend of every analysis of this circuit.
    pub fn solver(&self) -> SolverChoice {
        self.solver
    }

    /// Sets the linear-solver backend (default [`SolverChoice::Auto`]).
    /// Both backends solve the same system; forcing one is for parity
    /// checks and benchmarks.
    pub fn set_solver(&mut self, choice: SolverChoice) {
        self.solver = choice;
    }

    fn insert(&mut self, name: &str, kind: ElementKind) -> Result<ElementId, MnaError> {
        check_values(name, &kind)?;
        if self.names.element_ids.contains_key(name) {
            return Err(MnaError::DuplicateName {
                name: name.to_string(),
            });
        }
        let id = ElementId(self.kinds.len());
        let names = Arc::make_mut(&mut self.names);
        names.elements.push(name.to_string());
        names.element_ids.insert(name.to_string(), id);
        if let ElementKind::VoltageSource { branch, .. } | ElementKind::Vcvs { branch, .. } = kind {
            names.branches.insert(name.to_string(), branch);
        }
        self.kinds.push(kind);
        Ok(id)
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for non-positive resistance and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<ElementId, MnaError> {
        self.insert(name, ElementKind::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for negative capacitance and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<ElementId, MnaError> {
        self.insert(name, ElementKind::Capacitor { a, b, farads })
    }

    /// Adds an independent voltage source (`p` is the + terminal).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for a non-finite value and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn voltage_source(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        dc: f64,
    ) -> Result<ElementId, MnaError> {
        let branch = self.branches;
        let id = self.insert(
            name,
            ElementKind::VoltageSource {
                p,
                n,
                dc,
                ac: 0.0,
                stimulus: None,
                branch,
            },
        )?;
        self.branches += 1;
        Ok(id)
    }

    /// Adds an independent current source; positive `dc` drives conventional
    /// current out of `p`, through the source, into `n`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for a non-finite value and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn current_source(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        dc: f64,
    ) -> Result<ElementId, MnaError> {
        self.insert(name, ElementKind::CurrentSource { p, n, dc, ac: 0.0 })
    }

    /// Adds a voltage-controlled current source
    /// `i(p→n) = gm·(v(cp) − v(cn))`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for a non-finite value and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<ElementId, MnaError> {
        self.insert(name, ElementKind::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a voltage-controlled voltage source
    /// `v(p) − v(n) = gain·(v(cp) − v(cn))`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for a non-finite value and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<ElementId, MnaError> {
        let branch = self.branches;
        let id = self.insert(
            name,
            ElementKind::Vcvs {
                p,
                n,
                cp,
                cn,
                gain,
                branch,
            },
        )?;
        self.branches += 1;
        Ok(id)
    }

    /// Adds a MOSFET with terminals drain, gate, source, bulk.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for non-positive geometry and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosfetParams,
    ) -> Result<ElementId, MnaError> {
        self.insert(name, ElementKind::Mosfet { d, g, s, b, params })
    }

    /// Adds a pn-junction diode (`a` = anode, `k` = cathode) with
    /// saturation current `is_sat` \[A\] and ideality factor `ideality`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for non-positive parameters and
    /// [`MnaError::DuplicateName`] for a reused name.
    pub fn diode(
        &mut self,
        name: &str,
        a: NodeId,
        k: NodeId,
        is_sat: f64,
        ideality: f64,
    ) -> Result<ElementId, MnaError> {
        self.insert(
            name,
            ElementKind::Diode {
                a,
                k,
                is_sat,
                ideality,
            },
        )
    }

    /// Looks up an element by name.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] for unknown names.
    pub fn find(&self, name: &str) -> Result<ElementId, MnaError> {
        self.names.element(name).ok_or_else(|| MnaError::NotFound {
            name: name.to_string(),
        })
    }

    /// Name of an element.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn element_name(&self, id: ElementId) -> &str {
        &self.names.elements[id.0]
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.kinds.len()
    }

    /// Writes one value field of element `id` through `field`, which
    /// returns `false` when the element's kind has no such field (`setter`
    /// is then the error reason). The new value passes the constructor's
    /// checks, or the element is left as it was.
    fn update(
        &mut self,
        id: ElementId,
        setter: &'static str,
        field: impl FnOnce(&mut ElementKind) -> bool,
    ) -> Result<(), MnaError> {
        let mut kind = self.kinds[id.0].clone();
        if !field(&mut kind) {
            return Err(MnaError::InvalidValue {
                element: self.element_name(id).to_string(),
                reason: setter,
            });
        }
        check_values(self.element_name(id), &kind)?;
        self.kinds[id.0] = kind;
        Ok(())
    }

    /// Sets the principal value of element `id`: the resistance,
    /// capacitance, source DC value, VCVS gain or VCCS transconductance.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] for a MOSFET or diode and for a
    /// value the element's constructor would reject.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn set_value(&mut self, id: ElementId, value: f64) -> Result<(), MnaError> {
        self.update(
            id,
            "set_value requires a resistor, capacitor, source or controlled source",
            |k| {
                let slot = match k {
                    ElementKind::Resistor { ohms: x, .. }
                    | ElementKind::Capacitor { farads: x, .. }
                    | ElementKind::VoltageSource { dc: x, .. }
                    | ElementKind::CurrentSource { dc: x, .. }
                    | ElementKind::Vccs { gm: x, .. }
                    | ElementKind::Vcvs { gain: x, .. } => x,
                    ElementKind::Mosfet { .. } | ElementKind::Diode { .. } => return false,
                };
                *slot = value;
                true
            },
        )
    }

    /// Sets the DC value of an independent source.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] for unknown names and
    /// [`MnaError::InvalidValue`] when the element is not a source or the
    /// value is not finite.
    pub fn set_dc(&mut self, name: &str, value: f64) -> Result<(), MnaError> {
        let id = self.find(name)?;
        self.update(id, "set_dc requires an independent source", |k| match k {
            ElementKind::VoltageSource { dc, .. } | ElementKind::CurrentSource { dc, .. } => {
                *dc = value;
                true
            }
            _ => false,
        })
    }

    /// Sets the AC magnitude of an independent source.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] for unknown names and
    /// [`MnaError::InvalidValue`] when the element is not a source.
    pub fn set_ac(&mut self, name: &str, magnitude: f64) -> Result<(), MnaError> {
        if !magnitude.is_finite() {
            return Err(MnaError::InvalidValue {
                element: name.to_string(),
                reason: "AC magnitude must be finite",
            });
        }
        let id = self.find(name)?;
        match &mut self.kinds[id.0] {
            ElementKind::VoltageSource { ac, .. } | ElementKind::CurrentSource { ac, .. } => {
                *ac = magnitude;
                Ok(())
            }
            _ => Err(MnaError::InvalidValue {
                element: name.to_string(),
                reason: "set_ac requires an independent source",
            }),
        }
    }

    /// Clears the AC magnitude of every independent source (convenient when
    /// reusing one netlist for several transfer functions, e.g. the
    /// differential and common-mode runs of a CMRR extraction).
    pub fn clear_ac(&mut self) {
        for kind in &mut self.kinds {
            match kind {
                ElementKind::VoltageSource { ac, .. } | ElementKind::CurrentSource { ac, .. } => {
                    *ac = 0.0;
                }
                _ => {}
            }
        }
    }

    /// Attaches a transient stimulus to a voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] for unknown names and
    /// [`MnaError::InvalidValue`] when the element is not a voltage source.
    pub fn set_stimulus(&mut self, name: &str, stim: Stimulus) -> Result<(), MnaError> {
        let id = self.find(name)?;
        match &mut self.kinds[id.0] {
            ElementKind::VoltageSource { stimulus, .. } => {
                *stimulus = Some(stim);
                Ok(())
            }
            _ => Err(MnaError::InvalidValue {
                element: name.to_string(),
                reason: "set_stimulus requires a voltage source",
            }),
        }
    }

    /// Replaces the parameters of MOSFET `id`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] when the element is not a MOSFET
    /// or [`Circuit::mosfet`] would reject the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn set_mosfet(&mut self, id: ElementId, params: MosfetParams) -> Result<(), MnaError> {
        self.update(id, "set_mosfet requires a MOSFET", |k| match k {
            ElementKind::Mosfet { params: p, .. } => {
                *p = params;
                true
            }
            _ => false,
        })
    }

    /// Sets the saturation current and ideality factor of diode `id`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidValue`] when the element is not a diode
    /// or [`Circuit::diode`] would reject the values.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn set_diode(&mut self, id: ElementId, is_sat: f64, ideality: f64) -> Result<(), MnaError> {
        self.update(id, "set_diode requires a diode", |k| match k {
            ElementKind::Diode {
                is_sat: i,
                ideality: n,
                ..
            } => {
                (*i, *n) = (is_sat, ideality);
                true
            }
            _ => false,
        })
    }

    /// Parameters of a MOSFET.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] for unknown names and
    /// [`MnaError::InvalidValue`] when the element is not a MOSFET.
    pub fn mosfet_params(&self, name: &str) -> Result<MosfetParams, MnaError> {
        let id = self.find(name)?;
        match &self.kinds[id.0] {
            ElementKind::Mosfet { params, .. } => Ok(*params),
            _ => Err(MnaError::InvalidValue {
                element: name.to_string(),
                reason: "mosfet_params requires a MOSFET",
            }),
        }
    }

    /// Names of all MOSFETs in insertion order.
    pub fn mosfet_names(&self) -> Vec<&str> {
        self.kinds
            .iter()
            .zip(&self.names.elements)
            .filter_map(|(k, n)| match k {
                ElementKind::Mosfet { .. } => Some(n.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Internal: element kinds (for the analyses).
    pub(crate) fn kinds(&self) -> &[ElementKind] {
        &self.kinds
    }

    /// Internal: the shared name tables (for solutions to resolve names).
    pub(crate) fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// Exact structural key of the circuit topology: node/branch counts plus
    /// every element's kind tag and terminal wiring, element values excluded.
    ///
    /// Two circuits share a key iff they stamp the same MNA coordinates for
    /// every analysis, so the key indexes the symbolic-factorization cache.
    /// The per-element tag + fixed arity make the encoding prefix-free — no
    /// two distinct topologies collide.
    pub(crate) fn structure_key(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(2 + self.kinds.len() * 6);
        key.push(self.num_nodes() as u64);
        key.push(self.branches as u64);
        for kind in &self.kinds {
            match kind {
                ElementKind::Resistor { a, b, .. } => {
                    key.extend([1, a.0 as u64, b.0 as u64]);
                }
                ElementKind::Capacitor { a, b, .. } => {
                    key.extend([2, a.0 as u64, b.0 as u64]);
                }
                ElementKind::VoltageSource { p, n, branch, .. } => {
                    key.extend([3, p.0 as u64, n.0 as u64, *branch as u64]);
                }
                ElementKind::CurrentSource { p, n, .. } => {
                    key.extend([4, p.0 as u64, n.0 as u64]);
                }
                ElementKind::Vccs { p, n, cp, cn, .. } => {
                    key.extend([5, p.0 as u64, n.0 as u64, cp.0 as u64, cn.0 as u64]);
                }
                ElementKind::Vcvs {
                    p,
                    n,
                    cp,
                    cn,
                    branch,
                    ..
                } => {
                    key.extend([
                        6,
                        p.0 as u64,
                        n.0 as u64,
                        cp.0 as u64,
                        cn.0 as u64,
                        *branch as u64,
                    ]);
                }
                ElementKind::Mosfet { d, g, s, b, .. } => {
                    key.extend([7, d.0 as u64, g.0 as u64, s.0 as u64, b.0 as u64]);
                }
                ElementKind::Diode { a, k, .. } => {
                    key.extend([8, a.0 as u64, k.0 as u64]);
                }
            }
        }
        key
    }

    /// Internal: index of the unknown carrying a node voltage, `None` for ground.
    pub(crate) fn node_unknown(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    /// Internal: index of the unknown carrying a branch current.
    pub(crate) fn branch_unknown(&self, branch: usize) -> usize {
        self.num_nodes() - 1 + branch
    }
}

/// The value checks of every element kind, shared by its constructor and
/// its setters so that a bad value fails the same way on either path.
fn check_values(name: &str, kind: &ElementKind) -> Result<(), MnaError> {
    let positive = |x: f64| x > 0.0 && x.is_finite();
    let reason = match kind {
        ElementKind::Resistor { ohms, .. } if !positive(*ohms) => {
            "resistance must be positive and finite"
        }
        ElementKind::Capacitor { farads, .. } if !(*farads >= 0.0 && farads.is_finite()) => {
            "capacitance must be non-negative and finite"
        }
        ElementKind::VoltageSource { dc, .. } | ElementKind::CurrentSource { dc, .. }
            if !dc.is_finite() =>
        {
            "source DC value must be finite"
        }
        ElementKind::Vccs { gm, .. } if !gm.is_finite() => "transconductance must be finite",
        ElementKind::Vcvs { gain, .. } if !gain.is_finite() => "gain must be finite",
        ElementKind::Mosfet { params, .. } if !(positive(params.w) && positive(params.l)) => {
            "W and L must be positive and finite"
        }
        ElementKind::Mosfet { params, .. } if !(params.beta_factor > 0.0) => {
            "beta_factor must be positive"
        }
        ElementKind::Diode { is_sat, .. } if !positive(*is_sat) => {
            "saturation current must be positive and finite"
        }
        ElementKind::Diode { ideality, .. } if !positive(*ideality) => {
            "ideality factor must be positive and finite"
        }
        _ => return Ok(()),
    };
    Err(MnaError::InvalidValue {
        element: name.to_string(),
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MosfetModel, MosfetParams};

    #[test]
    fn node_interning() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.num_nodes(), 2);
        assert_eq!(ckt.node("0"), Circuit::GROUND);
        assert_eq!(ckt.find_node("a").unwrap(), a);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            ckt.resistor("R1", a, Circuit::GROUND, 2.0),
            Err(MnaError::DuplicateName { .. })
        ));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(ckt.resistor("R", a, Circuit::GROUND, 0.0).is_err());
        assert!(ckt.resistor("R", a, Circuit::GROUND, -5.0).is_err());
        assert!(ckt.capacitor("C", a, Circuit::GROUND, -1e-12).is_err());
        let params = MosfetParams::new(MosfetModel::default_nmos(), 0.0, 1e-6);
        assert!(ckt
            .mosfet("M", a, a, Circuit::GROUND, Circuit::GROUND, params)
            .is_err());
    }

    #[test]
    fn unknown_counting() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0)
            .unwrap();
        assert_eq!(ckt.num_nodes(), 3);
        assert_eq!(ckt.num_unknowns(), 4);
    }

    #[test]
    fn set_dc_and_ac() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.set_dc("V1", 2.5).unwrap();
        ckt.set_ac("V1", 1.0).unwrap();
        ckt.clear_ac();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert!(ckt.set_dc("R1", 1.0).is_err());
        assert!(ckt.set_ac("R1", 1.0).is_err());
        assert!(ckt.set_dc("missing", 1.0).is_err());
    }

    #[test]
    fn set_dc_rejects_non_finite_values_like_the_constructors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.current_source("I1", a, Circuit::GROUND, 1e-3).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for name in ["V1", "I1"] {
                assert_eq!(
                    ckt.set_dc(name, bad).unwrap_err(),
                    MnaError::InvalidValue {
                        element: name.to_string(),
                        reason: "source DC value must be finite",
                    }
                );
            }
        }
        // A rejected value leaves the source as it was.
        let v1 = ckt.find("V1").unwrap();
        assert_eq!(
            ckt.kinds()[v1.0],
            ElementKind::VoltageSource {
                p: a,
                n: Circuit::GROUND,
                dc: 1.0,
                ac: 0.0,
                stimulus: None,
                branch: 0,
            }
        );
    }

    #[test]
    fn set_mosfet_params_rejects_infinite_geometry_like_the_constructor() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let good = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        ckt.mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, good)
            .unwrap();
        let inf_w = MosfetParams::new(MosfetModel::default_nmos(), f64::INFINITY, 1e-6);
        let inf_l = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, f64::INFINITY);
        for bad in [inf_w, inf_l] {
            let from_constructor = Circuit::new()
                .mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, bad)
                .unwrap_err();
            assert_eq!(
                ckt.set_mosfet(ckt.find("M1").unwrap(), bad).unwrap_err(),
                from_constructor
            );
        }
        assert_eq!(ckt.mosfet_params("M1").unwrap(), good);
    }

    #[test]
    fn setters_by_id_fail_like_the_constructors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = Circuit::GROUND;
        let r = ckt.resistor("R1", a, g, 1e3).unwrap();
        let c = ckt.capacitor("C1", a, g, 1e-12).unwrap();
        let v = ckt.voltage_source("V1", a, g, 1.0).unwrap();
        let e = ckt.vcvs("E1", a, g, a, g, 2.0).unwrap();
        let gm = ckt.vccs("G1", a, g, a, g, 1e-3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        let m = ckt.mosfet("M1", a, a, g, g, params).unwrap();
        let dio = ckt.diode("D1", a, g, 1e-14, 1.0).unwrap();

        let mut fresh = Circuit::new();
        assert_eq!(
            ckt.set_value(r, -1.0),
            fresh.resistor("R1", a, g, -1.0).map(|_| ())
        );
        assert_eq!(
            ckt.set_value(c, -1e-12),
            fresh.capacitor("C1", a, g, -1e-12).map(|_| ())
        );
        assert_eq!(
            ckt.set_value(v, f64::NAN),
            fresh.voltage_source("V1", a, g, f64::NAN).map(|_| ())
        );
        assert_eq!(
            ckt.set_value(e, f64::INFINITY),
            fresh.vcvs("E1", a, g, a, g, f64::INFINITY).map(|_| ())
        );
        assert_eq!(
            ckt.set_value(gm, f64::NAN),
            fresh.vccs("G1", a, g, a, g, f64::NAN).map(|_| ())
        );
        let mut bad = params;
        bad.beta_factor = 0.0;
        assert_eq!(
            ckt.set_mosfet(m, bad),
            fresh.mosfet("M1", a, a, g, g, bad).map(|_| ())
        );
        assert_eq!(
            ckt.set_diode(dio, 1e-14, 0.0),
            fresh.diode("D1", a, g, 1e-14, 0.0).map(|_| ())
        );
        assert_eq!(fresh.num_elements(), 0);

        // Wrong kinds are typed errors, not panics.
        assert!(ckt.set_value(m, 1.0).is_err());
        assert!(ckt.set_value(dio, 1.0).is_err());
        assert!(ckt.set_mosfet(r, params).is_err());
        assert!(ckt.set_diode(r, 1e-14, 1.0).is_err());

        // Good values land.
        ckt.set_value(r, 2e3).unwrap();
        ckt.set_diode(dio, 1e-12, 2.0).unwrap();
        assert_eq!(
            ckt.kinds()[r.0],
            ElementKind::Resistor { a, b: g, ohms: 2e3 }
        );
        assert_eq!(
            ckt.kinds()[dio.0],
            ElementKind::Diode {
                a,
                k: g,
                is_sat: 1e-12,
                ideality: 2.0
            }
        );
    }

    #[test]
    fn mosfet_param_update() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        ckt.mosfet("M1", d, g, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let mut p2 = ckt.mosfet_params("M1").unwrap();
        p2.delta_vth = 0.01;
        ckt.set_mosfet(ckt.find("M1").unwrap(), p2).unwrap();
        assert_eq!(ckt.mosfet_params("M1").unwrap().delta_vth, 0.01);
        assert_eq!(ckt.mosfet_names(), vec!["M1"]);
    }

    #[test]
    fn stimulus_shapes() {
        let step = Stimulus::Step {
            v0: 0.0,
            v1: 1.0,
            t0: 1e-6,
            t_rise: 1e-6,
        };
        assert_eq!(step.at(0.0), 0.0);
        assert!((step.at(1.5e-6) - 0.5).abs() < 1e-12);
        assert_eq!(step.at(5e-6), 1.0);
        let sine = Stimulus::Sine {
            offset: 1.0,
            ampl: 0.5,
            freq: 1e3,
            delay: 0.0,
        };
        assert!((sine.at(0.25e-3) - 1.5).abs() < 1e-12);
        assert_eq!(Stimulus::Dc(3.0).initial(), 3.0);
    }

    #[test]
    fn clones_share_names_until_the_topology_changes() {
        let mut template = Circuit::new();
        let vdd = template.node("vdd");
        let out = template.node("out");
        template
            .voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        template.resistor("RD", vdd, out, 20e3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        template
            .mosfet("M1", out, vdd, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();

        // A value rewrite shares the table.
        let mut rewritten = template.clone();
        rewritten
            .set_value(rewritten.find("RD").unwrap(), 10e3)
            .unwrap();
        assert!(Arc::ptr_eq(template.names(), rewritten.names()));

        // A new node and a new branch element copy it, on write.
        let mut grown = template.clone();
        let bias = grown.node("bias");
        grown
            .voltage_source("VB", bias, Circuit::GROUND, 1.0)
            .unwrap();
        grown.resistor("RB", bias, out, 1e6).unwrap();
        assert!(!Arc::ptr_eq(template.names(), grown.names()));

        // The template's lookups and branch map are untouched ...
        assert_eq!(template.num_nodes(), 3);
        assert_eq!(template.num_elements(), 3);
        assert!(template.find_node("bias").is_err());
        assert!(template.find("VB").is_err());
        assert!(template.names().branch("VB").is_err());
        let op = crate::DcOp::new(&template).solve().unwrap();
        assert!(op.branch_current("VB").is_err());
        assert!(op.branch_current("VDD").is_ok());

        // ... and the clone resolves its own names and the inherited ones.
        assert_eq!(grown.find_node("bias").unwrap(), bias);
        assert_eq!(grown.find_node("out").unwrap(), out);
        assert_eq!(grown.element_name(grown.find("RB").unwrap()), "RB");
        let op = crate::DcOp::new(&grown).solve().unwrap();
        assert!((op.voltage(bias) - 1.0).abs() < 1e-9);
        let i_vb = op.branch_current("VB").unwrap();
        assert!(i_vb.abs() > 0.0 && i_vb.abs() < 1e-5, "i(VB) = {i_vb}");
        assert!(op.branch_current("VDD").is_ok());
        assert_eq!(
            op.mosfet_op("M1").unwrap().element,
            grown.find("M1").unwrap()
        );
        assert!(op.mosfet_op("RB").is_none());
    }

    #[test]
    fn temperature_guarded() {
        let mut ckt = Circuit::new();
        ckt.set_temperature(350.0);
        assert_eq!(ckt.temperature(), 350.0);
    }

    #[test]
    #[should_panic(expected = "invalid temperature")]
    fn temperature_rejects_zero() {
        Circuit::new().set_temperature(0.0);
    }
}
