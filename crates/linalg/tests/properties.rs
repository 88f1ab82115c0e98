//! Property-based tests for the dense linear-algebra kernels.

use proptest::prelude::*;
use specwise_linalg::{DMat, DVec};

fn vector(n: usize) -> impl Strategy<Value = DVec> {
    prop::collection::vec(-10.0..10.0f64, n).prop_map(DVec::from)
}

proptest! {
    #[test]
    fn lu_solve_residual_small(
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Derive matrix/vector deterministically from the seed so shrinking works.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DMat::from_fn(n, n, |_, _| next());
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let b = DVec::from_fn(n, |_| next());
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x) - &b;
        prop_assert!(r.norm_inf() < 1e-8 * (1.0 + b.norm_inf()));
    }
}

proptest! {
    #[test]
    fn dot_is_symmetric(x in vector(6), y in vector(6)) {
        prop_assert_eq!(x.dot(&y), y.dot(&x));
    }

    #[test]
    fn triangle_inequality(x in vector(6), y in vector(6)) {
        prop_assert!((&x + &y).norm2() <= x.norm2() + y.norm2() + 1e-12);
    }
}

/// Sparse/dense parity helpers: build a sparse system from a dense matrix,
/// treating every nonzero as structural (MNA stamping semantics).
fn sparsify(a: &DMat) -> (specwise_linalg::SparseSymbolic, Vec<f64>) {
    use specwise_linalg::{SparsePattern, SparseSymbolic};
    let n = a.nrows();
    let mut entries = Vec::new();
    for r in 0..n {
        for c in 0..n {
            if a[(r, c)] != 0.0 {
                entries.push((r, c));
            }
        }
    }
    let pattern = SparsePattern::from_entries(n, &entries).unwrap();
    let mut vals = vec![0.0; pattern.nnz()];
    for r in 0..n {
        for c in 0..n {
            if a[(r, c)] != 0.0 {
                vals[pattern.index_of(r, c).unwrap()] = a[(r, c)];
            }
        }
    }
    (SparseSymbolic::new(pattern), vals)
}

proptest! {
    #[test]
    fn sparse_lu_agrees_with_dense_to_1e10(
        n in 1usize..20,
        density in 0.2f64..1.0,
        seed in 0u64..1000,
    ) {
        use specwise_linalg::SparseLu;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(23);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        // Random sparsity, dominant diagonal => well-conditioned.
        let mut a = DMat::from_fn(n, n, |_, _| {
            let v = next();
            let keep = (next() + 1.0) / 2.0;
            if keep < density { v } else { 0.0 }
        });
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let b = DVec::from_fn(n, |_| next() * 5.0);
        let xd = a.lu().unwrap().solve(&b).unwrap();
        let (sym, vals) = sparsify(&a);
        let lu = SparseLu::factor(&sym, &vals).unwrap();
        let xs = lu.solve(&b).unwrap();
        prop_assert!((&xs - &xd).norm_inf() < 1e-10, "max diff {}", (&xs - &xd).norm_inf());
    }

    #[test]
    fn sparse_refactor_matches_fresh_factor_bitwise(
        n in 2usize..16,
        seed in 0u64..500,
    ) {
        use specwise_linalg::SparseLu;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(31);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DMat::from_fn(n, n, |_, _| {
            let v = next();
            if v.abs() < 0.5 { 0.0 } else { v }
        });
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let (sym, vals) = sparsify(&a);
        let mut lu = SparseLu::factor(&sym, &vals).unwrap();
        // Same pattern, smoothly perturbed values (a Newton re-stamp).
        let vals2: Vec<f64> = vals.iter().map(|v| v * 1.0625 + 0.003).collect();
        lu.refactor(&sym, &vals2).unwrap();
        let fresh = SparseLu::factor(&sym, &vals2).unwrap();
        let b = DVec::from_fn(n, |i| (i as f64) - 1.5);
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        prop_assert_eq!(x_re.as_slice(), x_fresh.as_slice());
    }

    #[test]
    fn sparse_singular_detection_matches_dense(
        n in 2usize..12,
        dup in 0usize..12,
        seed in 0u64..500,
    ) {
        use specwise_linalg::{LinalgError, SparseLu};
        let dup = dup % n;
        let other = (dup + 1) % n;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(41);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DMat::from_fn(n, n, |_, _| next());
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        // Duplicate one row exactly: elimination cancels it bit-exactly in
        // both backends, so both must report Singular.
        for j in 0..n {
            let v = a[(other, j)];
            a[(dup, j)] = v;
        }
        prop_assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
        let (sym, vals) = sparsify(&a);
        prop_assert!(matches!(
            SparseLu::factor(&sym, &vals),
            Err(LinalgError::Singular { .. })
        ));
    }
}
