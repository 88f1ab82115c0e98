//! Level-1 (square-law) MOSFET model with body effect, channel-length
//! modulation, temperature dependence, and per-instance statistical
//! deviations.
//!
//! The local-variation hooks are the point of this model: every instance
//! carries a threshold-voltage shift `delta_vth` and a gain multiplier
//! `beta_factor`, which is exactly where the Pelgrom-style mismatch
//! deviations of the yield flow enter the simulator.

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl std::fmt::Display for MosPolarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosPolarity::Nmos => write!(f, "nmos"),
            MosPolarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// Operating region of a MOSFET at a DC operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosRegion {
    /// `V_GS ≤ V_th`: (essentially) no channel.
    Cutoff,
    /// `0 < V_DS < V_GS − V_th`: resistive channel.
    Triode,
    /// `V_DS ≥ V_GS − V_th`: current source behaviour.
    Saturation,
}

impl std::fmt::Display for MosRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosRegion::Cutoff => write!(f, "cutoff"),
            MosRegion::Triode => write!(f, "triode"),
            MosRegion::Saturation => write!(f, "saturation"),
        }
    }
}

/// Technology-level (model card) parameters of the Level-1 model.
///
/// All values at the reference temperature `t_nom`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage magnitude \[V\] (positive for both
    /// polarities; the sign convention is handled internally).
    pub vth0: f64,
    /// Transconductance parameter `K' = µ·C_ox` \[A/V²\].
    pub kp: f64,
    /// Channel-length modulation \[1/V\].
    pub lambda: f64,
    /// Body-effect coefficient γ \[√V\].
    pub gamma: f64,
    /// Surface potential `2φ_F` \[V\].
    pub phi: f64,
    /// Gate-oxide capacitance per area \[F/m²\].
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per width \[F/m\].
    pub cov: f64,
    /// Threshold temperature coefficient \[V/K\] (applied as
    /// `vth(T) = vth0 − tc_vth·(T − t_nom)`).
    pub tc_vth: f64,
    /// Mobility temperature exponent (`kp(T) = kp·(T/t_nom)^{−bex}`).
    pub bex: f64,
    /// Reference temperature \[K\].
    pub t_nom: f64,
    /// Reference length for channel-length modulation \[m\]: the effective
    /// modulation is `λ_eff = lambda·lambda_lref/L`, capturing the
    /// first-order `λ ∝ 1/L` dependence that makes gain a function of the
    /// designable channel lengths.
    pub lambda_lref: f64,
}

impl MosfetModel {
    /// A representative 0.6 µm-class NMOS model card.
    pub fn default_nmos() -> Self {
        MosfetModel {
            polarity: MosPolarity::Nmos,
            vth0: 0.7,
            kp: 120e-6,
            lambda: 0.05,
            gamma: 0.45,
            phi: 0.7,
            cox: 2.5e-3,
            cov: 3.0e-10,
            tc_vth: 2.0e-3,
            bex: 1.5,
            t_nom: 300.15,
            lambda_lref: 1e-6,
        }
    }

    /// A representative 0.6 µm-class PMOS model card.
    pub fn default_pmos() -> Self {
        MosfetModel {
            polarity: MosPolarity::Pmos,
            vth0: 0.8,
            kp: 40e-6,
            lambda: 0.07,
            gamma: 0.4,
            phi: 0.7,
            cox: 2.5e-3,
            cov: 3.0e-10,
            tc_vth: 1.7e-3,
            bex: 1.4,
            t_nom: 300.15,
            lambda_lref: 1e-6,
        }
    }
}

/// Instance parameters of one MOSFET: geometry plus statistical deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Model card.
    pub model: MosfetModel,
    /// Channel width \[m\].
    pub w: f64,
    /// Channel length \[m\].
    pub l: f64,
    /// Statistical threshold-voltage shift \[V\] added to the magnitude of
    /// `vth0` — global and local (mismatch) Vth deviations enter here.
    pub delta_vth: f64,
    /// Statistical multiplier on the current factor β = K'·W/L (dimensionless;
    /// `1.0` is nominal). Local β mismatch and global K' spread enter here.
    pub beta_factor: f64,
}

impl MosfetParams {
    /// Creates an instance with nominal statistics.
    pub fn new(model: MosfetModel, w: f64, l: f64) -> Self {
        MosfetParams {
            model,
            w,
            l,
            delta_vth: 0.0,
            beta_factor: 1.0,
        }
    }

    /// Effective threshold magnitude at temperature `t` (before body effect).
    pub fn vth_at(&self, t: f64) -> f64 {
        self.model.vth0 + self.delta_vth - self.model.tc_vth * (t - self.model.t_nom)
    }

    /// Effective β = K'(T)·W/L·beta_factor at temperature `t`.
    pub fn beta_at(&self, t: f64) -> f64 {
        let kp_t = self.model.kp * (t / self.model.t_nom).powf(-self.model.bex);
        kp_t * self.w / self.l * self.beta_factor
    }

    /// Effective channel-length modulation `λ_eff = λ·l_ref/L` \[1/V\].
    fn lambda_eff(&self) -> f64 {
        self.model.lambda * self.model.lambda_lref / self.l
    }
}

/// Large-signal evaluation of the device at the terminal voltages
/// `(vgs, vds, vbs)` (NMOS sign convention; PMOS callers pass the already
/// reflected voltages), at temperature `t`.
///
/// Returns the drain current and its partial derivatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current \[A\] (NMOS convention: into the drain).
    pub id: f64,
    /// `∂I_D/∂V_GS` \[S\].
    pub gm: f64,
    /// `∂I_D/∂V_DS` \[S\].
    pub gds: f64,
    /// `∂I_D/∂V_BS` \[S\].
    pub gmb: f64,
    /// Operating region.
    pub region: MosRegion,
    /// Effective threshold including body effect \[V\].
    pub vth: f64,
    /// Overdrive `V_GS − V_th` \[V\].
    pub vov: f64,
}

/// Evaluates the Level-1 equations in the NMOS frame.
///
/// The caller is responsible for polarity reflection: for a PMOS device pass
/// `(-vgs, -vds, -vbs)` and negate the resulting current (the derivative
/// signs work out so that the stamps can use the returned conductances
/// directly — see `dc.rs`).
pub fn eval_nmos_frame(p: &MosfetParams, vgs: f64, vds: f64, vbs: f64, t: f64) -> MosEval {
    // Body effect: vth = vth0' + γ(√(φ + v_SB) − √φ), v_SB = −v_BS.
    let phi = p.model.phi;
    let vsb = -vbs;
    let sqrt_arg = (phi + vsb).max(0.0);
    let sqrt_term = sqrt_arg.sqrt();
    let vth = p.vth_at(t) + p.model.gamma * (sqrt_term - phi.sqrt());
    // d vth / d vbs = -d vth / d vsb = -γ / (2√(φ+vsb)), guarded at the clamp.
    let dvth_dvbs = if sqrt_arg > 0.0 {
        p.model.gamma / (2.0 * sqrt_term)
    } else {
        0.0
    };

    let beta = p.beta_at(t);
    let vov = vgs - vth;

    if vov <= 0.0 {
        return MosEval {
            id: 0.0,
            gm: 0.0,
            gds: 0.0,
            gmb: 0.0,
            region: MosRegion::Cutoff,
            vth,
            vov,
        };
    }

    let lambda = p.lambda_eff();
    if vds < vov {
        // Triode; λ term retained so the current is continuous at vds = vov.
        let clm = 1.0 + lambda * vds;
        let core = (vov - vds / 2.0) * vds;
        let id = beta * core * clm;
        let gm = beta * vds * clm;
        let gds = beta * ((vov - vds) * clm + core * lambda);
        // ∂id/∂vbs = ∂id/∂vth · ∂vth/∂vbs = −gm · ∂vth/∂vbs; with
        // ∂vth/∂vbs = −dvth_dvbs (vth falls as vbs rises) this yields +gm·dvth_dvbs.
        let gmb = gm * dvth_dvbs;
        MosEval {
            id,
            gm,
            gds,
            gmb,
            region: MosRegion::Triode,
            vth,
            vov,
        }
    } else {
        let clm = 1.0 + lambda * vds;
        let id = 0.5 * beta * vov * vov * clm;
        let gm = beta * vov * clm;
        let gds = 0.5 * beta * vov * vov * lambda;
        let gmb = gm * dvth_dvbs;
        MosEval {
            id,
            gm,
            gds,
            gmb,
            region: MosRegion::Saturation,
            vth,
            vov,
        }
    }
}

/// Meyer gate capacitances `(cgs, cgd, cgb)` \[F\] of a device in `region`:
/// the gate-drain/source overlaps plus the region's share of the channel
/// capacitance.
pub(crate) fn meyer_caps(p: &MosfetParams, region: MosRegion) -> (f64, f64, f64) {
    let cov = p.model.cov * p.w;
    let cch = p.model.cox * p.w * p.l;
    match region {
        MosRegion::Cutoff => (cov, cov, cch),
        MosRegion::Triode => (cov + 0.5 * cch, cov + 0.5 * cch, 0.0),
        MosRegion::Saturation => (cov + 2.0 / 3.0 * cch, cov, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos_1u() -> MosfetParams {
        MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6)
    }

    #[test]
    fn cutoff_below_threshold() {
        let p = nmos_1u();
        let e = eval_nmos_frame(&p, 0.3, 1.0, 0.0, 300.15);
        assert_eq!(e.region, MosRegion::Cutoff);
        assert_eq!(e.id, 0.0);
        assert_eq!(e.gm, 0.0);
    }

    #[test]
    fn saturation_square_law() {
        let p = nmos_1u();
        let t = 300.15;
        let e = eval_nmos_frame(&p, 1.2, 2.0, 0.0, t);
        assert_eq!(e.region, MosRegion::Saturation);
        let beta = p.beta_at(t);
        let vov = 1.2 - p.model.vth0;
        let want = 0.5 * beta * vov * vov * (1.0 + p.model.lambda * 2.0);
        assert!((e.id / want - 1.0).abs() < 1e-12);
        assert!(e.gm > 0.0 && e.gds > 0.0);
    }

    #[test]
    fn current_continuous_at_triode_saturation_boundary() {
        let p = nmos_1u();
        let t = 300.15;
        let vgs = 1.5;
        let vov = vgs - p.model.vth0;
        let below = eval_nmos_frame(&p, vgs, vov - 1e-9, 0.0, t);
        let above = eval_nmos_frame(&p, vgs, vov + 1e-9, 0.0, t);
        assert_eq!(below.region, MosRegion::Triode);
        assert_eq!(above.region, MosRegion::Saturation);
        assert!((below.id - above.id).abs() < 1e-9 * above.id.max(1e-12));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let p = nmos_1u();
        let t = 300.15;
        let h = 1e-7;
        for (vgs, vds, vbs) in [(1.2, 2.0, 0.0), (1.5, 0.2, -0.5), (0.9, 0.05, -1.0)] {
            let e = eval_nmos_frame(&p, vgs, vds, vbs, t);
            let gm_fd = (eval_nmos_frame(&p, vgs + h, vds, vbs, t).id
                - eval_nmos_frame(&p, vgs - h, vds, vbs, t).id)
                / (2.0 * h);
            let gds_fd = (eval_nmos_frame(&p, vgs, vds + h, vbs, t).id
                - eval_nmos_frame(&p, vgs, vds - h, vbs, t).id)
                / (2.0 * h);
            let gmb_fd = (eval_nmos_frame(&p, vgs, vds, vbs + h, t).id
                - eval_nmos_frame(&p, vgs, vds, vbs - h, t).id)
                / (2.0 * h);
            assert!(
                (e.gm - gm_fd).abs() < 1e-6 * (1.0 + gm_fd.abs()),
                "gm at {vgs},{vds},{vbs}"
            );
            assert!(
                (e.gds - gds_fd).abs() < 1e-6 * (1.0 + gds_fd.abs()),
                "gds at {vgs},{vds},{vbs}"
            );
            assert!(
                (e.gmb - gmb_fd).abs() < 1e-6 * (1.0 + gmb_fd.abs()),
                "gmb at {vgs},{vds},{vbs}"
            );
        }
    }

    #[test]
    fn body_effect_raises_threshold() {
        let p = nmos_1u();
        let no_bias = eval_nmos_frame(&p, 1.2, 2.0, 0.0, 300.15);
        let reverse = eval_nmos_frame(&p, 1.2, 2.0, -1.0, 300.15);
        assert!(reverse.vth > no_bias.vth);
        assert!(reverse.id < no_bias.id);
    }

    #[test]
    fn delta_vth_shifts_current() {
        let mut p = nmos_1u();
        let base = eval_nmos_frame(&p, 1.2, 2.0, 0.0, 300.15).id;
        p.delta_vth = 0.05;
        let shifted = eval_nmos_frame(&p, 1.2, 2.0, 0.0, 300.15).id;
        assert!(shifted < base, "raising vth must lower the current");
    }

    #[test]
    fn beta_factor_scales_current() {
        let mut p = nmos_1u();
        let base = eval_nmos_frame(&p, 1.2, 2.0, 0.0, 300.15).id;
        p.beta_factor = 1.1;
        let scaled = eval_nmos_frame(&p, 1.2, 2.0, 0.0, 300.15).id;
        assert!((scaled / base - 1.1).abs() < 1e-12);
    }

    #[test]
    fn temperature_reduces_current_at_high_overdrive() {
        // At high overdrive the mobility term dominates the Vth term.
        let p = nmos_1u();
        let cold = eval_nmos_frame(&p, 2.5, 2.5, 0.0, 250.0).id;
        let hot = eval_nmos_frame(&p, 2.5, 2.5, 0.0, 400.0).id;
        assert!(hot < cold);
    }

    #[test]
    fn temperature_increases_current_near_threshold() {
        // Near threshold the Vth reduction with temperature dominates.
        let p = nmos_1u();
        let cold = eval_nmos_frame(&p, 0.78, 2.0, 0.0, 250.0).id;
        let hot = eval_nmos_frame(&p, 0.78, 2.0, 0.0, 400.0).id;
        assert!(hot > cold);
    }

    #[test]
    fn vth_at_reflects_temperature_coefficient() {
        let p = nmos_1u();
        let t0 = p.model.t_nom;
        assert!((p.vth_at(t0) - p.model.vth0).abs() < 1e-15);
        assert!((p.vth_at(t0 + 100.0) - (p.model.vth0 - 0.2)).abs() < 1e-12);
    }
}
