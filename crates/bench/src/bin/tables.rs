//! Regenerates every table and figure of the DAC 2001 paper.
//!
//! ```text
//! tables <experiment> [args]
//!     table1   folded-cascode optimization trace (constraints + WC points)
//!     table2   improvement decomposition between the last two iterations
//!     table3   ablation: no functional constraints
//!     table4   ablation: linearization at the nominal point
//!     table5   mismatch measure ranking
//!     table6   Miller opamp optimization trace
//!     table7   computational effort of both optimizations
//!     fig1     CMRR surface over the mirror pair's Vth deviations (CSV)
//!     fig2     mismatch-line selector Φ (CSV)
//!     fig3     robustness weight η (CSV)
//!     fig4     A0 over the feasibility region (CSV)
//!     fig5     linearized yield over one design parameter (CSV)
//!     all      every table in sequence (figures skipped)
//! ```
//!
//! Paper reference values are printed alongside, marked `paper:`.

use std::error::Error;
use std::time::Duration;

use specwise::{
    effort_breakdown_table, effort_table, improvement_table, iteration_table, mismatch_table,
};
use specwise_bench::{
    run_fig1, run_fig2, run_fig3, run_fig4, run_fig5, run_table1, run_table1_exec, run_table3,
    run_table4, run_table5, run_table6, run_table6_exec,
};
use specwise_exec::ExecConfig;

fn main() -> Result<(), Box<dyn Error>> {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "table1" => table1()?,
        "table2" => table2()?,
        "table3" => table3()?,
        "table4" => table4()?,
        "table5" => table5()?,
        "table6" => table6()?,
        "table7" => table7()?,
        "fig1" => fig1()?,
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4()?,
        "fig5" => fig5()?,
        "all" => {
            table1()?;
            table2()?;
            table3()?;
            table4()?;
            table5()?;
            table6()?;
            table7()?;
        }
        other => {
            eprintln!("unknown experiment {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn table1() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 1 ====================");
    println!("Folded-cascode yield optimization (constraints + worst-case points)");
    println!("paper: Y = 0% -> 99.9% -> 100%; initial failures: ft (1000 permil),");
    println!("paper: CMRR (980 permil), SRp (273 permil)\n");
    let (env, trace) = run_table1()?;
    println!("{}", iteration_table(&env, &trace));
    Ok(())
}

fn table2() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 2 ====================");
    println!("Improvement between the final two iterations");
    println!("paper: A0 +15.5/+20.4, ft +12.8/-11.5, CMRR +169/-53.4,");
    println!("paper: SRp +73.4/+3.15, Power -0.59/-1.69 (percent)\n");
    let (env, trace) = run_table1()?;
    let snaps = trace.snapshots();
    if snaps.len() < 2 {
        println!("(only one snapshot; nothing to compare)");
        return Ok(());
    }
    match improvement_table(&env, &snaps[snaps.len() - 2], &snaps[snaps.len() - 1]) {
        Some(t) => println!("{t}"),
        None => println!("(verification disabled; no moment data)"),
    }
    Ok(())
}

fn table3() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 3 ====================");
    println!("Ablation: no functional constraints");
    println!("paper: model bad-samples improve but true yield stays 0%\n");
    let (env, trace) = run_table3()?;
    println!("{}", iteration_table(&env, &trace));
    if trace.final_snapshot().collapsed {
        println!("(the unconstrained move produced an unsimulatable circuit)");
    }
    Ok(())
}

fn table4() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 4 ====================");
    println!("Ablation: linearization at the nominal point s = s0");
    println!("paper: model bad-samples decline but true yield stays 0%");
    println!("(our reproduction shows a weaker contrast at the circuit level —");
    println!("see EXPERIMENTS.md — plus a deterministic analytic demonstration");
    println!("of the mechanism in benches/ablation.rs)\n");
    let (env, trace) = run_table4()?;
    println!("{}", iteration_table(&env, &trace));
    Ok(())
}

fn table5() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 5 ====================");
    println!("Mismatch measure ranking at the initial design");
    println!("paper: CMRR is the only mismatch-sensitive spec; three pairs");
    println!("paper: P1 = 0.84, P2 = 0.11, P3 = 0.06\n");
    let (env, entries) = run_table5()?;
    println!("{}", mismatch_table(&env, &entries, 6));
    Ok(())
}

fn table6() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 6 ====================");
    println!("Miller opamp optimization (global variations only)");
    println!("paper: Y = 33.7% -> 99.3% -> 99.3%; initial failures: SRp (636");
    println!("paper: permil), PM (167 permil)\n");
    let (env, trace) = run_table6()?;
    println!("{}", iteration_table(&env, &trace));
    Ok(())
}

fn table7() -> Result<(), Box<dyn Error>> {
    println!("==================== Table 7 ====================");
    println!("Computational effort");
    println!("paper: Folded-Cascode 689 sims / 30 min; Miller 627 sims / 8 min");
    println!("(on 5x Pentium III with TITAN's internal sensitivities; our");
    println!("totals add Monte-Carlo verification, the Verify column below,");
    println!("and each call is far cheaper — see EXPERIMENTS.md)\n");
    let exec = ExecConfig::from_env();
    let (env_fc, trace_fc) = run_table1_exec(exec.clone())?;
    let (env_mi, trace_mi) = run_table6_exec(exec)?;
    let rows = vec![
        (
            "Folded-Cascode".to_string(),
            trace_fc.total_sims,
            trace_fc.wall_time,
        ),
        (
            "Miller".to_string(),
            trace_mi.total_sims,
            trace_mi.wall_time,
        ),
    ];
    println!("{}", effort_table(&rows));
    println!("Repeated measurements served from the bench's last measurement");
    println!("(an adjoint gradient at the point just measured; not simulated,");
    println!("not counted above):");
    for (name, env) in [("Folded-Cascode", &env_fc), ("Miller", &env_mi)] {
        println!("  {name:<20}{:>14}", env.measurements_reused());
    }
    println!();
    println!("Per-phase breakdown (simulations attributed to each stage of");
    println!("Fig. 6; Hit % and Workers from the evaluation engine — tune with");
    println!("SPECWISE_WORKERS / SPECWISE_CACHE_CAP / SPECWISE_RETRIES):\n");
    println!(
        "{}",
        effort_breakdown_table(&[
            ("Folded-Cascode".to_string(), &trace_fc),
            ("Miller".to_string(), &trace_mi),
        ])
    );
    for trace in [&trace_fc, &trace_mi] {
        if let Some(report) = &trace.exec {
            println!("{report}");
        }
    }
    let _: Duration = trace_fc.wall_time;
    Ok(())
}

fn fig1() -> Result<(), Box<dyn Error>> {
    println!("# Fig. 1: CMRR [dB] over (vth_m7, vth_m8) in sigma units");
    println!("vth_m7_sigma,vth_m8_sigma,cmrr_db");
    for (a, b, c) in run_fig1(17)? {
        println!("{a:.3},{b:.3},{c:.3}");
    }
    Ok(())
}

fn fig2() {
    println!("# Fig. 2: mismatch-line selector Phi(alpha)");
    println!("alpha_rad,phi");
    for (a, p) in run_fig2(181) {
        println!("{a:.5},{p:.5}");
    }
}

fn fig3() {
    println!("# Fig. 3: robustness weight eta(beta_wc)");
    println!("beta_wc,eta");
    for (b, e) in run_fig3(121) {
        println!("{b:.3},{e:.5}");
    }
}

fn fig4() -> Result<(), Box<dyn Error>> {
    println!("# Fig. 4: A0 [dB] over (w3, wt) with min functional constraint");
    println!("# (the feasibility region is min_constraint >= 0)");
    println!("w3_um,wt_um,a0_db,min_constraint");
    for (w3, wt, a0, c) in run_fig4(13)? {
        println!("{w3:.1},{wt:.1},{a0:.2},{c:.4}");
    }
    Ok(())
}

fn fig5() -> Result<(), Box<dyn Error>> {
    println!("# Fig. 5: linearized yield estimate over w1 between its bounds");
    println!("w1_um,ybar");
    for (w1, y) in run_fig5(160)? {
        println!("{w1:.2},{y:.4}");
    }
    Ok(())
}
