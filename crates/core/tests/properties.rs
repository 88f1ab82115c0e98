//! Property-based tests of the yield-optimization core on randomly
//! generated linear model sets.

use proptest::prelude::*;
use specwise::{
    CoordinateSearch, LinearConstraints, LinearizedYield, ShiftTracker, GRID_POINTS, MAX_SWEEPS,
};
use specwise_ckt::OperatingPoint;
use specwise_linalg::{DMat, DVec};
use specwise_wcd::SpecLinearization;

fn lin_from(seed: u64, spec: usize, n_s: usize, n_d: usize) -> SpecLinearization {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(spec as u64 + 1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    SpecLinearization {
        spec,
        mirrored: false,
        theta_wc: OperatingPoint::new(25.0, 3.3),
        s_wc: DVec::from_fn(n_s, |_| next()),
        d_f: DVec::from_fn(n_d, |_| next()),
        margin_at_anchor: next().abs(),
        grad_s: DVec::from_fn(n_s, |_| next()),
        grad_d: DVec::from_fn(n_d, |_| next()),
    }
}

/// Deterministic uniform stream in `[−1, 1)`.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(7);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// Sets `grad_d[k]` to a positive, negative, `0.0` or `-0.0` value
/// according to `class`, keeping its magnitude otherwise.
fn with_grad_class(mut m: SpecLinearization, k: usize, class: u64) -> SpecLinearization {
    let g = m.grad_d[k].abs().max(0.05);
    m.grad_d[k] = match class % 4 {
        0 => g,
        1 => -g,
        2 => 0.0,
        _ => -0.0,
    };
    m
}

/// `estimate_coord(k, v).passed()` at every value: the oracle of
/// `scan_coord`.
fn probe_grid(tracker: &ShiftTracker<'_>, k: usize, values: &[f64]) -> Vec<usize> {
    values
        .iter()
        .map(|&v| tracker.estimate_coord(k, v).passed())
        .collect()
}

/// The coordinate search's grid over `[lo, hi]`.
fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|g| lo + (hi - lo) * g as f64 / (n - 1) as f64)
        .collect()
}

/// The per-candidate coordinate search the one-pass scan replaced: one
/// `estimate_coord` per grid value, same acceptance rule.
fn per_candidate_search(
    model: &LinearizedYield,
    constraints: &LinearConstraints,
    d_start: &DVec,
) -> (DVec, usize) {
    let mut tracker = model.tracker(d_start).unwrap();
    let mut best = tracker.estimate();
    for _sweep in 0..MAX_SWEEPS {
        let mut improved = false;
        for k in 0..d_start.len() {
            let d_now = tracker.design().clone();
            let Some((lo, hi)) = constraints.coord_interval(&d_now, k) else {
                continue;
            };
            if hi - lo <= 0.0 {
                continue;
            }
            let mut best_val = d_now[k];
            let mut best_here = best;
            for g in 0..GRID_POINTS {
                let v = lo + (hi - lo) * g as f64 / (GRID_POINTS - 1) as f64;
                let est = tracker.estimate_coord(k, v);
                let gain = est.passed() as isize - best_here.passed() as isize;
                if gain >= 1
                    || (gain >= 0 && (v - d_now[k]).abs() < (best_val - d_now[k]).abs() - 1e-15)
                {
                    best_here = est;
                    best_val = v;
                }
            }
            if best_val != d_now[k] {
                tracker.set_coord(k, best_val);
                if best_here.passed() > best.passed() {
                    improved = true;
                }
                best = best_here;
            }
        }
        if !improved {
            break;
        }
    }
    (tracker.design().clone(), best.passed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn scan_coord_equals_estimate_coord_at_every_grid_value(seed in 0u64..10_000) {
        let mut next = uniform(seed);
        let n_d = 3;
        let k = (seed % n_d as u64) as usize;
        // Four specs, each design gradient along k in one sign class, and a
        // mirrored twin of one spec.
        let mut models = Vec::new();
        for i in 0..4 {
            let m = with_grad_class(lin_from(seed, i, 4, n_d), k, seed / 3 + i as u64);
            if i == (seed % 4) as usize {
                models.push(m.to_mirrored());
            }
            models.push(m);
        }
        let ly = LinearizedYield::new(models, 4, 1_500, seed).unwrap();
        let mut tracker = ly.tracker(ly.anchor()).unwrap();
        for j in 0..n_d {
            tracker.set_coord(j, tracker.design()[j] + 0.5 * next());
        }
        let here = tracker.design()[k];
        let w = 0.1 + 2.0 * next().abs();
        let n_g = 2 + (seed % 39) as usize;
        for values in [
            grid(here, here + w, n_g),            // left endpoint is d[k]
            grid(here - w, here, n_g),            // right endpoint is d[k]
            grid(here - w, here + 0.5 * w, n_g),  // straddles d[k]
            grid(here + 0.3 * w, here + 0.3 * w, n_g), // one repeated value
        ] {
            prop_assert_eq!(tracker.scan_coord(k, &values), probe_grid(&tracker, k, &values));
        }
    }

    #[test]
    fn scan_coord_counts_boundary_ties_exactly(seed in 0u64..10_000) {
        // Integer-valued models on an integer grid: the tie model's sample
        // part p (its statistical gradient is zero, so p is its anchor
        // margin) satisfies p + s == 0 exactly at grid value g0, where the
        // sample must count as passing. A random model rides along so the
        // samples still differ.
        let mut next = uniform(seed);
        let n_g = 2 + (seed % 16) as usize;
        let lo = -((seed / 16 % 9) as f64);
        let values = grid(lo, lo + (n_g - 1) as f64, n_g);
        let g0 = (seed / 7) as usize % n_g;
        let mut models = Vec::new();
        for i in 0..3u64 {
            let grad = [2.0, 1.0, -1.0, -2.0, 0.0, -0.0][((seed / 5 + i) % 6) as usize];
            let anchor = if grad == 0.0 {
                if (seed + i) % 2 == 0 { 0.0 } else { -0.0 }
            } else {
                -(grad * values[g0])
            };
            models.push(SpecLinearization {
                spec: i as usize,
                mirrored: false,
                theta_wc: OperatingPoint::new(25.0, 3.3),
                s_wc: DVec::zeros(2),
                d_f: DVec::zeros(1),
                margin_at_anchor: anchor,
                grad_s: DVec::zeros(2),
                grad_d: DVec::from_slice(&[grad]),
            });
        }
        let mut random = with_grad_class(lin_from(seed, 3, 2, 1), 0, seed);
        random.d_f = DVec::zeros(1);
        random.margin_at_anchor += 0.5 * next();
        models.push(random);
        let ly = LinearizedYield::new(models, 4, 800, seed).unwrap();
        let tracker = ly.tracker(&DVec::zeros(1)).unwrap();
        let tie = &ly.models()[0];
        prop_assert_eq!(tie.margin_at_anchor + tie.grad_d[0] * values[g0], 0.0);
        prop_assert_eq!(tracker.scan_coord(0, &values), probe_grid(&tracker, 0, &values));
    }

    #[test]
    fn coordinate_search_matches_per_candidate_loop(seed in 0u64..10_000) {
        let mut next = uniform(seed);
        let n_d = 3;
        let mut models = Vec::new();
        for i in 0..3 {
            let mut m = lin_from(seed, i, 4, n_d);
            m.d_f = DVec::zeros(n_d);
            m = with_grad_class(m, (seed as usize + i) % n_d, seed / 2 + i as u64);
            if i == 1 {
                models.push(m.to_mirrored());
            }
            models.push(m);
        }
        let ly = LinearizedYield::new(models, 3, 1_200, seed).unwrap();
        let lower = DVec::filled(n_d, -2.0);
        let upper = DVec::filled(n_d, 2.0);
        let constraints = if seed % 2 == 0 {
            LinearConstraints::box_only(&DVec::zeros(n_d), lower, upper)
        } else {
            let jac = DMat::from_fn(2, n_d, |_, _| next());
            LinearConstraints::new(
                DVec::from_slice(&[0.5 + next().abs(), 0.5 + next().abs()]),
                jac,
                DVec::zeros(n_d),
                lower,
                upper,
            )
            .unwrap()
        };
        let d_start = DVec::from_fn(n_d, |_| 0.25 * next());
        let (d, y) = CoordinateSearch.run(&ly, &constraints, &d_start).unwrap();
        let (d_ref, passed_ref) = per_candidate_search(&ly, &constraints, &d_start);
        let bits = |v: &DVec| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&d), bits(&d_ref));
        prop_assert_eq!(y.passed(), passed_ref);
    }

    #[test]
    fn tracker_equals_direct_estimate_after_arbitrary_moves(
        seed in 0u64..500,
        moves in prop::collection::vec((0usize..4, -2.0..2.0f64), 1..8),
    ) {
        let models: Vec<_> = (0..3).map(|i| lin_from(seed, i, 5, 4)).collect();
        let ly = LinearizedYield::new(models, 3, 3_000, seed).unwrap();
        let d_f = ly.anchor().clone();
        let mut tracker = ly.tracker(&d_f).unwrap();
        let mut d = d_f.clone();
        for (k, v) in moves {
            tracker.set_coord(k, v);
            d[k] = v;
        }
        let direct = ly.estimate(&d).unwrap();
        prop_assert_eq!(tracker.estimate().passed(), direct.passed());
    }

    #[test]
    fn raising_every_margin_never_lowers_yield(
        seed in 0u64..500,
        boost in 0.0..3.0f64,
    ) {
        // Design direction that raises every model's margin: set grad_d of
        // every model to +1 on one coordinate and move along it.
        let mut models: Vec<_> = (0..3).map(|i| lin_from(seed, i, 5, 1)).collect();
        for m in &mut models {
            m.grad_d = DVec::from_slice(&[1.0]);
            m.d_f = DVec::zeros(1);
        }
        let ly = LinearizedYield::new(models, 3, 3_000, seed).unwrap();
        let y0 = ly.estimate(&DVec::zeros(1)).unwrap().passed();
        let y1 = ly.estimate(&DVec::from_slice(&[boost])).unwrap().passed();
        prop_assert!(y1 >= y0, "monotone in uniform margin boosts: {y1} vs {y0}");
    }

    #[test]
    fn bad_sample_counts_bound_total_failures(seed in 0u64..500) {
        let models: Vec<_> = (0..4).map(|i| lin_from(seed, i, 6, 3)).collect();
        let ly = LinearizedYield::new(models, 4, 2_000, seed).unwrap();
        let d = ly.anchor().clone();
        let y = ly.estimate(&d).unwrap();
        let bad = ly.bad_samples_per_spec(&d).unwrap();
        let total_bad = 2_000 - y.passed();
        // Union bound: the per-spec bad counts each ≤ total failing samples
        // is false in general, but their max is ≤ total and their sum ≥ total.
        let max_bad = *bad.iter().max().unwrap();
        let sum_bad: usize = bad.iter().sum();
        prop_assert!(max_bad <= total_bad);
        prop_assert!(sum_bad >= total_bad);
    }

    #[test]
    fn coord_interval_points_are_feasible(
        c0 in prop::collection::vec(0.1..3.0f64, 1..4),
        jrow in prop::collection::vec(-2.0..2.0f64, 1..4),
        k in 0usize..3,
    ) {
        let n_c = c0.len();
        let n_d = 3;
        let k = k.min(n_d - 1);
        let jac = DMat::from_fn(n_c, n_d, |i, j| jrow[i % jrow.len()] * ((i + j) as f64 * 0.7).sin());
        let lc = LinearConstraints::new(
            DVec::from(c0),
            jac,
            DVec::zeros(n_d),
            DVec::filled(n_d, -5.0),
            DVec::filled(n_d, 5.0),
        )
        .unwrap();
        let d = DVec::zeros(n_d);
        // The anchor is feasible by construction (c0 > 0).
        prop_assert!(lc.feasible(&d));
        if let Some((lo, hi)) = lc.coord_interval(&d, k) {
            for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let mut probe = d.clone();
                probe[k] = lo + t * (hi - lo);
                prop_assert!(
                    lc.eval(&probe).iter().all(|&c| c >= -1e-6),
                    "interval point must stay linear-feasible"
                );
            }
        }
    }

    #[test]
    fn mirrored_yield_never_exceeds_single_sided(seed in 0u64..300) {
        // Adding the mirrored twin can only remove passing samples.
        let base = lin_from(seed, 0, 4, 2);
        let single = LinearizedYield::new(vec![base.clone()], 1, 4_000, seed).unwrap();
        let both =
            LinearizedYield::new(vec![base.clone(), base.to_mirrored()], 1, 4_000, seed)
                .unwrap();
        let d = base.d_f.clone();
        prop_assert!(
            both.estimate(&d).unwrap().passed() <= single.estimate(&d).unwrap().passed()
        );
    }
}
