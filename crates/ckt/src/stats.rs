//! Statistical parameter spaces: global process spreads plus per-device
//! local (mismatch) deviations with design-dependent sigma (paper Secs. 3–4).
//!
//! All parameters are expressed in the *standardized* space `ŝ ~ N(0, I)`;
//! the physical deviation of a device is assembled as
//!
//! ```text
//! ΔVth(dev)   = ŝ[global_vth(pol)]·σ_vth_glob(pol) + ŝ[local_vth(dev)]·A_VT/√(W·L)
//! β/β₀(dev)   = 1 + ŝ[global_beta(pol)]·σ_β_glob(pol) + ŝ[local_beta(dev)]·A_β/√(W·L)
//! ```
//!
//! which is exactly the diagonal `s = G(d)·ŝ` transform of paper Eq. 11:
//! the local sigmas depend on the design point through the device areas.

use specwise_linalg::DVec;
use specwise_mna::MosPolarity;

use crate::{CktError, Technology};

/// The physical meaning of one standardized statistical parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StatKind {
    /// Global threshold-voltage deviation shared by all devices of a polarity.
    GlobalVth(MosPolarity),
    /// Global current-factor deviation shared by all devices of a polarity.
    GlobalBeta(MosPolarity),
    /// Global relative capacitance deviation (oxide/poly-cap thickness),
    /// scaling every explicit capacitor in the netlist.
    GlobalCap,
    /// Local (mismatch) threshold deviation of one device.
    LocalVth {
        /// Device instance name.
        device: String,
    },
    /// Local (mismatch) current-factor deviation of one device.
    LocalBeta {
        /// Device instance name.
        device: String,
    },
}

/// One statistical parameter: name plus physical meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct StatParam {
    /// Short name (e.g. `"vth_m1"`).
    pub name: String,
    /// Physical meaning.
    pub kind: StatKind,
}

/// An ordered statistical parameter space.
///
/// # Example
///
/// ```
/// use specwise_ckt::StatSpace;
/// use specwise_mna::MosPolarity;
///
/// let devices = [("m1", MosPolarity::Nmos), ("m2", MosPolarity::Nmos)];
/// let space = StatSpace::build(&devices, true);
/// // 5 globals + 2 locals per device.
/// assert_eq!(space.dim(), 9);
/// assert!(space.index_of("vth_m1").is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StatSpace {
    params: Vec<StatParam>,
}

impl StatSpace {
    /// Builds a space: the five global parameters (Vth and β per polarity,
    /// plus the capacitance spread), plus (`with_locals`) a local Vth and a
    /// local β parameter per listed device.
    pub fn build(devices: &[(&str, MosPolarity)], with_locals: bool) -> Self {
        if with_locals {
            let names: Vec<&str> = devices.iter().map(|(dev, _)| *dev).collect();
            Self::with_locals(&names)
        } else {
            Self::with_locals(&[])
        }
    }

    /// Builds a space from the device names that receive local mismatch
    /// parameters: the five globals, then `vth_<dev>`/`beta_<dev>` per
    /// listed device, in order. This is the constructor the deck-driven
    /// `Testbench` uses with the `.match` group members.
    pub fn with_locals(local_devices: &[&str]) -> Self {
        let mut params = vec![
            StatParam {
                name: "vthn_glob".to_string(),
                kind: StatKind::GlobalVth(MosPolarity::Nmos),
            },
            StatParam {
                name: "vthp_glob".to_string(),
                kind: StatKind::GlobalVth(MosPolarity::Pmos),
            },
            StatParam {
                name: "betan_glob".to_string(),
                kind: StatKind::GlobalBeta(MosPolarity::Nmos),
            },
            StatParam {
                name: "betap_glob".to_string(),
                kind: StatKind::GlobalBeta(MosPolarity::Pmos),
            },
            StatParam {
                name: "cap_glob".to_string(),
                kind: StatKind::GlobalCap,
            },
        ];
        for dev in local_devices {
            params.push(StatParam {
                name: format!("vth_{dev}"),
                kind: StatKind::LocalVth {
                    device: (*dev).to_string(),
                },
            });
            params.push(StatParam {
                name: format!("beta_{dev}"),
                kind: StatKind::LocalBeta {
                    device: (*dev).to_string(),
                },
            });
        }
        StatSpace { params }
    }

    /// Number of statistical parameters.
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// The parameters in order.
    pub fn params(&self) -> &[StatParam] {
        &self.params
    }

    /// Names in order.
    pub fn names(&self) -> Vec<&str> {
        self.params.iter().map(|p| p.name.as_str()).collect()
    }

    /// Index of a parameter by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Physical sigma of parameter `i` for a device of geometry `(w, l)` \[m\]
    /// (geometry is ignored for global parameters).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sigma(&self, i: usize, tech: &Technology, w: f64, l: f64) -> f64 {
        match &self.params[i].kind {
            StatKind::GlobalVth(pol) => tech.sigma_vth_global(*pol),
            StatKind::GlobalBeta(pol) => tech.sigma_beta_global(*pol),
            StatKind::GlobalCap => tech.sigma_cap_global,
            StatKind::LocalVth { .. } => tech.sigma_vth_local(w, l),
            StatKind::LocalBeta { .. } => tech.sigma_beta_local(w, l),
        }
    }

    /// Binds the parameters that move MOSFET `device` of `polarity`: the
    /// global ones of its polarity and its own local ones, matched by name
    /// here once so that [`DeviceStats::deltas`] matches none.
    pub fn bind_device(&self, device: &str, polarity: MosPolarity) -> DeviceStats {
        let find = |f: &dyn Fn(&StatKind) -> bool| self.params.iter().position(|p| f(&p.kind));
        DeviceStats {
            polarity,
            global_vth: find(&|k| *k == StatKind::GlobalVth(polarity)),
            global_beta: find(&|k| *k == StatKind::GlobalBeta(polarity)),
            local_vth: find(&|k| matches!(k, StatKind::LocalVth { device: d } if d == device)),
            local_beta: find(&|k| matches!(k, StatKind::LocalBeta { device: d } if d == device)),
        }
    }

    /// Binds the global capacitance parameter.
    pub fn bind_cap(&self) -> CapStat {
        CapStat(
            self.params
                .iter()
                .position(|p| p.kind == StatKind::GlobalCap),
        )
    }

    /// Rejects a standardized vector whose length is not [`StatSpace::dim`].
    ///
    /// # Errors
    ///
    /// Returns [`CktError::DimensionMismatch`] when `s_hat` has the wrong
    /// length.
    pub fn check_len(&self, s_hat: &DVec) -> Result<(), CktError> {
        if s_hat.len() != self.dim() {
            return Err(CktError::DimensionMismatch {
                what: "stat",
                expected: self.dim(),
                found: s_hat.len(),
            });
        }
        Ok(())
    }
}

/// The statistical parameters that move one MOSFET, bound once per
/// template by [`StatSpace::bind_device`]. A global parameter precedes
/// every local one in the space, so adding them in that order keeps the
/// parameter order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    polarity: MosPolarity,
    global_vth: Option<usize>,
    global_beta: Option<usize>,
    local_vth: Option<usize>,
    local_beta: Option<usize>,
}

impl DeviceStats {
    /// The device polarity.
    pub fn polarity(&self) -> MosPolarity {
        self.polarity
    }

    /// Assembles the physical deviations of the device at geometry
    /// `(w, l)` \[m\] from the standardized vector: returns
    /// `(delta_vth \[V\], beta_factor)`.
    ///
    /// `beta_factor` is clamped to `≥ 0.05` so extreme tail samples cannot
    /// produce an unphysical non-positive current factor.
    ///
    /// # Panics
    ///
    /// Panics if `s_hat` is shorter than the space this was bound in (see
    /// [`StatSpace::check_len`]).
    pub fn deltas(&self, tech: &Technology, w: f64, l: f64, s_hat: &DVec) -> (f64, f64) {
        let mut delta_vth = 0.0;
        if let Some(i) = self.global_vth {
            delta_vth += s_hat[i] * tech.sigma_vth_global(self.polarity);
        }
        if let Some(i) = self.local_vth {
            delta_vth += s_hat[i] * tech.sigma_vth_local(w, l);
        }
        let mut dbeta = 0.0;
        if let Some(i) = self.global_beta {
            dbeta += s_hat[i] * tech.sigma_beta_global(self.polarity);
        }
        if let Some(i) = self.local_beta {
            dbeta += s_hat[i] * tech.sigma_beta_local(w, l);
        }
        (delta_vth, (1.0 + dbeta).max(0.05))
    }
}

/// The global capacitance parameter, bound once per template by
/// [`StatSpace::bind_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapStat(Option<usize>);

impl CapStat {
    /// Global capacitance scale factor `1 + ŝ[cap]·σ_cap`, clamped to
    /// `≥ 0.2` against unphysical tail samples.
    ///
    /// # Panics
    ///
    /// Panics if `s_hat` is shorter than the space this was bound in (see
    /// [`StatSpace::check_len`]).
    pub fn factor(&self, tech: &Technology, s_hat: &DVec) -> f64 {
        let mut f = 1.0;
        if let Some(i) = self.0 {
            f += s_hat[i] * tech.sigma_cap_global;
        }
        f.max(0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> Vec<(&'static str, MosPolarity)> {
        vec![
            ("m1", MosPolarity::Nmos),
            ("m2", MosPolarity::Nmos),
            ("m3", MosPolarity::Pmos),
        ]
    }

    #[test]
    fn dimensions() {
        let devs = devices();
        assert_eq!(StatSpace::build(&devs, true).dim(), 5 + 6);
        assert_eq!(StatSpace::build(&devs, false).dim(), 5);
    }

    #[test]
    fn with_locals_matches_build() {
        let devs = devices();
        let names: Vec<&str> = devs.iter().map(|(d, _)| *d).collect();
        assert_eq!(
            StatSpace::with_locals(&names),
            StatSpace::build(&devs, true)
        );
        assert_eq!(StatSpace::with_locals(&[]), StatSpace::build(&devs, false));
    }

    #[test]
    fn zero_s_hat_is_nominal() {
        let devs = devices();
        let sp = StatSpace::build(&devs, true);
        let t = Technology::c06();
        let (dv, bf) =
            sp.bind_device("m1", MosPolarity::Nmos)
                .deltas(&t, 10e-6, 1e-6, &DVec::zeros(sp.dim()));
        assert_eq!(dv, 0.0);
        assert_eq!(bf, 1.0);
    }

    #[test]
    fn global_affects_same_polarity_only() {
        let devs = devices();
        let sp = StatSpace::build(&devs, true);
        let t = Technology::c06();
        let mut s = DVec::zeros(sp.dim());
        s[sp.index_of("vthn_glob").unwrap()] = 1.0;
        let (dv_n, _) = sp
            .bind_device("m1", MosPolarity::Nmos)
            .deltas(&t, 1e-5, 1e-6, &s);
        let (dv_p, _) = sp
            .bind_device("m3", MosPolarity::Pmos)
            .deltas(&t, 1e-5, 1e-6, &s);
        assert!((dv_n - t.sigma_vth_global_n).abs() < 1e-15);
        assert_eq!(dv_p, 0.0);
    }

    #[test]
    fn local_scales_with_area() {
        let devs = devices();
        let sp = StatSpace::build(&devs, true);
        let t = Technology::c06();
        let mut s = DVec::zeros(sp.dim());
        s[sp.index_of("vth_m1").unwrap()] = 1.0;
        let (small, _) = sp
            .bind_device("m1", MosPolarity::Nmos)
            .deltas(&t, 1e-6, 1e-6, &s);
        let (large, _) = sp
            .bind_device("m1", MosPolarity::Nmos)
            .deltas(&t, 4e-6, 1e-6, &s);
        assert!(
            (small / large - 2.0).abs() < 1e-12,
            "σ halves when area quadruples"
        );
        // m2's local parameter does not move m1.
        let mut s2 = DVec::zeros(sp.dim());
        s2[sp.index_of("vth_m2").unwrap()] = 1.0;
        let (dv, _) = sp
            .bind_device("m1", MosPolarity::Nmos)
            .deltas(&t, 1e-6, 1e-6, &s2);
        assert_eq!(dv, 0.0);
    }

    #[test]
    fn beta_factor_clamped() {
        let devs = devices();
        let sp = StatSpace::build(&devs, true);
        let t = Technology::c06();
        let mut s = DVec::zeros(sp.dim());
        s[sp.index_of("betan_glob").unwrap()] = -1000.0;
        let (_, bf) = sp
            .bind_device("m1", MosPolarity::Nmos)
            .deltas(&t, 1e-6, 1e-6, &s);
        assert_eq!(bf, 0.05);
    }

    #[test]
    fn wrong_length_rejected() {
        let devs = devices();
        let sp = StatSpace::build(&devs, true);
        assert!(matches!(
            sp.check_len(&DVec::zeros(2)),
            Err(CktError::DimensionMismatch { .. })
        ));
        assert!(sp.check_len(&DVec::zeros(sp.dim())).is_ok());
    }

    #[test]
    fn cap_factor_scales_and_clamps() {
        let sp = StatSpace::build(&devices(), false);
        let t = Technology::c06();
        let cap = sp.bind_cap();
        let mut s = DVec::zeros(sp.dim());
        assert_eq!(cap.factor(&t, &s), 1.0);
        s[sp.index_of("cap_glob").unwrap()] = 1.0;
        assert_eq!(cap.factor(&t, &s), 1.0 + t.sigma_cap_global);
        s[sp.index_of("cap_glob").unwrap()] = -1000.0;
        assert_eq!(cap.factor(&t, &s), 0.2);
    }

    #[test]
    fn sigma_accessor_consistency() {
        let devs = devices();
        let sp = StatSpace::build(&devs, true);
        let t = Technology::c06();
        let i = sp.index_of("vth_m1").unwrap();
        assert!((sp.sigma(i, &t, 1e-6, 1e-6) - t.a_vth * 1e6).abs() < 1e-12);
        let g = sp.index_of("vthn_glob").unwrap();
        assert_eq!(sp.sigma(g, &t, 1e-6, 1e-6), t.sigma_vth_global_n);
    }
}
