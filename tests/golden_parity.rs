//! Golden parity: the deck-driven `Testbench` environments must reproduce
//! the original hand-coded environments bit-for-bit.
//!
//! The `GOLDEN_*` constants below were captured from the seed (pre-IR)
//! implementations of `MillerOpamp`, `FoldedCascode` and
//! `FiveTransistorOta`: FNV-1a hashes over the exact bit patterns of
//! `eval_performances` and `eval_constraints` at the paper's nominal design
//! and at five seeded random `(d, ŝ, θ)` points, plus the raw nominal
//! performance bits for debuggability. Any deviation — a reordered node, a
//! different unit-conversion operation, a changed Newton seed — changes a
//! hash.
//!
//! The `GOLDEN_*_PERTURBED` constants pin the adjoint shortcut the same
//! way: FNV-1a over the bits of `eval_margins_perturbed` (the base margins,
//! then every direction's margins) at three seeded points with every ŝ and
//! every d direction of a worst-case-distance gradient, plus one point
//! where the shortcut declines and returns `None`.
//!
//! The `GOLDEN_*_REPEAT` constants pin two calls at the same point, the
//! way the worst-case search makes them: (a) `eval_margins` then an ŝ
//! `eval_margins_perturbed`, and (b) an ŝ `eval_margins_perturbed` then a
//! d one. Each pair runs behind a 2-worker `EvalService`, on a bare bench
//! with warm starts and on a bare bench without them. Each entry is FNV-1a
//! over every returned bit, with the pair's simulation count next to the
//! hash and not inside it, so a change that only moves the effort shows
//! as a count.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test --release --test golden_parity -- --ignored regenerate --nocapture
//! ```

use rand::{Rng, SeedableRng};
use specwise_ckt::{CircuitEnv, FiveTransistorOta, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;

/// FNV-1a over a sequence of f64 bit patterns.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

struct Point {
    d: DVec,
    s: DVec,
    temp_c: f64,
    vdd: f64,
}

/// Nominal point plus five seeded random points: multiplicative jitter on
/// the initial design (projected back into the box), |ŝ| ≤ 1, θ ∈ Θ.
fn points(env: &dyn CircuitEnv, seed: u64) -> Vec<Point> {
    let space = env.design_space();
    let range = env.operating_range();
    let nominal = range.nominal();
    let mut pts = vec![Point {
        d: space.initial(),
        s: DVec::zeros(env.stat_dim()),
        temp_c: nominal.temp_c,
        vdd: nominal.vdd,
    }];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (t_lo, t_hi) = range.temp_bounds();
    let (v_lo, v_hi) = range.vdd_bounds();
    for _ in 0..5 {
        let d0 = space.initial();
        let d: DVec = d0.iter().map(|&x| x * rng.gen_range(0.9..1.1)).collect();
        let d = space.project(&d).expect("projection succeeds");
        let s: DVec = (0..env.stat_dim())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        pts.push(Point {
            d,
            s,
            temp_c: rng.gen_range(t_lo..t_hi),
            vdd: rng.gen_range(v_lo..v_hi),
        });
    }
    pts
}

/// Per-point `(perf_hash, cons_hash)` plus the raw nominal performance bits.
fn capture(env: &dyn CircuitEnv, seed: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut hashes = Vec::new();
    let mut nominal_bits = Vec::new();
    for (i, p) in points(env, seed).iter().enumerate() {
        let theta = specwise_ckt::OperatingPoint::new(p.temp_c, p.vdd);
        let perf = env
            .eval_performances(&p.d, &p.s, &theta)
            .expect("golden point evaluates");
        let cons = env.eval_constraints(&p.d).expect("constraints evaluate");
        if i == 0 {
            nominal_bits = perf.iter().map(|v| v.to_bits()).collect();
        }
        hashes.push((
            fnv1a(perf.iter().map(|v| v.to_bits())),
            fnv1a(cons.iter().map(|v| v.to_bits())),
        ));
    }
    (hashes, nominal_bits)
}

const MILLER_SEED: u64 = 101;
const FOLDED_SEED: u64 = 102;
const OTA_SEED: u64 = 103;

const GOLDEN_MILLER: [(u64, u64); 6] = [
    (0x6f7ca5f6214c5a07, 0x78b60f6fec45fb3d),
    (0xc6ae280723b132a4, 0x090942e3e8a1974d),
    (0xd9612540b62b0fab, 0x9643ea801c8311d2),
    (0x2647beb285081bc0, 0xd3d926391c7f9a5f),
    (0x77f348699d26f709, 0xc65f9d634c4535fc),
    (0xeffb5a4eb14f06dd, 0x350a20dfc344d7fd),
];
const GOLDEN_MILLER_NOMINAL: [u64; 5] = [
    0x405547d88afb4a84,
    0x3ffb9b319db45417,
    0x404f010933549632,
    0x4006df8906be998a,
    0x3fe21a2b422a5072,
];
const GOLDEN_FOLDED: [(u64, u64); 6] = [
    (0xdb6f0d07e25ca390, 0x84d8b0711117345e),
    (0xe92af55eada8a1f1, 0xa21d566b24ebb358),
    (0x40aae31c4528f2d3, 0x8ed11564a9622744),
    (0x3125d2a8bf30aa9a, 0x99a840b15c8903d2),
    (0xa421d35c72d7fb0a, 0x4560d42b67fc570b),
    (0x4d28b31bdf58921d, 0x44e123de8df3ad70),
];
const GOLDEN_FOLDED_NOMINAL: [u64; 5] = [
    0x4049832b991cd03f,
    0x404654a35c6d67ee,
    0x405481150da6172f,
    0x40423c777ee4fd45,
    0x3fe0e05eca9d9794,
];
const GOLDEN_OTA: [(u64, u64); 6] = [
    (0x7c31fb2322f5bb86, 0x9a86069f58135c5b),
    (0x2ff07847762d6a07, 0x322f8a9bdee0e1bf),
    (0x24a2f3cbd2c1cb10, 0xa5e641b164b7fd5a),
    (0xbd32753d53e39e1c, 0xf8564755444ca3f6),
    (0x3b7b236a202fbe99, 0x8c02a1255ca40be9),
    (0x90acd3c420dc9aa0, 0xa655f84bd2ad7240),
];
const GOLDEN_OTA_NOMINAL: [u64; 5] = [
    0x404727b6e667d9a2,
    0x401acc5495ebc39c,
    0x40530052238e7d6b,
    0x4013f416610041d8,
    0x3fa94e00f29d62fc,
];

/// The directions of one ŝ gradient and one d gradient, as the worst-case
/// search and the linearization build them: a 0.01 step on every ŝ
/// coordinate, then a step of 1e-3 of the box width on every design
/// coordinate, taken inward at the upper bound.
fn gradient_directions(env: &dyn CircuitEnv, d: &DVec, s: &DVec) -> Vec<(DVec, DVec)> {
    let mut dirs = Vec::new();
    for j in 0..s.len() {
        let mut s2 = s.clone();
        s2[j] += 0.01;
        dirs.push((d.clone(), s2));
    }
    for (k, p) in env.design_space().params().iter().enumerate() {
        let step = 1e-3 * (p.upper - p.lower);
        let mut d2 = d.clone();
        d2[k] += if d[k] + step <= p.upper { step } else { -step };
        dirs.push((d2, s.clone()));
    }
    dirs
}

/// The words hashed for one `eval_margins_perturbed` answer: a tag, then
/// the base margins and every direction's margins.
fn perturbed_words(answer: Option<(DVec, Vec<DVec>)>) -> Vec<u64> {
    match answer {
        None => vec![1],
        Some((base, per)) => std::iter::once(0)
            .chain(base.iter().map(|v| v.to_bits()))
            .chain(per.iter().flat_map(|m| m.iter().map(|v| v.to_bits())))
            .collect(),
    }
}

/// Hash of one `eval_margins_perturbed` answer (see [`perturbed_words`]).
fn perturbed_hash(
    env: &dyn CircuitEnv,
    d: &DVec,
    s: &DVec,
    theta: &specwise_ckt::OperatingPoint,
    dirs: &[(DVec, DVec)],
) -> u64 {
    let answer = env
        .eval_margins_perturbed(d, s, theta, dirs)
        .expect("perturbed point evaluates");
    fnv1a(perturbed_words(answer))
}

/// Three seeded points (the first three random points of [`points`]),
/// each with the full gradient direction set.
fn capture_perturbed(env: &dyn CircuitEnv, seed: u64) -> Vec<u64> {
    points(env, seed)
        .iter()
        .skip(1)
        .take(3)
        .map(|p| {
            let theta = specwise_ckt::OperatingPoint::new(p.temp_c, p.vdd);
            perturbed_hash(
                env,
                &p.d,
                &p.s,
                &theta,
                &gradient_directions(env, &p.d, &p.s),
            )
        })
        .collect()
}

/// The folded cascode at its initial design and nominal θ, with the ŝ
/// gradient directions followed by a tenfold shrink of design variable 3:
/// the first-order step of that last direction leaves the model's range,
/// so the whole answer is `None`.
fn declined_point() -> (u64, bool) {
    let env = FoldedCascode::paper_setup();
    let d = env.design_space().initial();
    let s = DVec::zeros(env.stat_dim());
    let nominal = env.operating_range().nominal();
    let theta = specwise_ckt::OperatingPoint::new(nominal.temp_c, nominal.vdd);
    let mut dirs: Vec<_> = gradient_directions(&env, &d, &s)
        .into_iter()
        .take(env.stat_dim())
        .collect();
    let mut d2 = d.clone();
    d2[3] *= 0.1;
    dirs.push((d2, s.clone()));
    let declined = env
        .eval_margins_perturbed(&d, &s, &theta, &dirs)
        .expect("declined point evaluates")
        .is_none();
    (perturbed_hash(&env, &d, &s, &theta, &dirs), declined)
}

const MILLER_PERTURBED_SEED: u64 = 201;
const FOLDED_PERTURBED_SEED: u64 = 202;

const GOLDEN_MILLER_PERTURBED: [u64; 3] =
    [0xf6abb76836d36281, 0x6c069cf7bf58bec4, 0x041f96145b0dda73];
const GOLDEN_FOLDED_PERTURBED: [u64; 3] =
    [0xefef3b73e8f62d17, 0x4260e5be77060a24, 0xef36dc95dfaba3ed];
const GOLDEN_DECLINED_PERTURBED: u64 = 0x89cd31291d2aefa4;

fn check_perturbed(env: &dyn CircuitEnv, seed: u64, golden: &[u64]) {
    for (i, (got, want)) in capture_perturbed(env, seed).iter().zip(golden).enumerate() {
        assert_ne!(
            *got,
            fnv1a([1]),
            "{}: the shortcut must answer at point {i}",
            env.name()
        );
        assert_eq!(
            got,
            want,
            "{}: eval_margins_perturbed hash mismatch at point {i}",
            env.name()
        );
    }
}

/// `(hash, simulations)` of one repeat pair at the first random point of
/// [`points`]: with `plain_first`, (a) `eval_margins` then the ŝ
/// directions; without, (b) the ŝ directions then the d directions.
fn repeat_pair(env: &dyn CircuitEnv, seed: u64, plain_first: bool) -> (u64, u64) {
    let p = points(env, seed).swap_remove(1);
    let theta = specwise_ckt::OperatingPoint::new(p.temp_c, p.vdd);
    let mut s_dirs = gradient_directions(env, &p.d, &p.s);
    let d_dirs = s_dirs.split_off(env.stat_dim());
    let perturbed = |dirs: &[(DVec, DVec)]| {
        perturbed_words(
            env.eval_margins_perturbed(&p.d, &p.s, &theta, dirs)
                .expect("perturbed repeat evaluates"),
        )
    };
    let sims = env.sim_count();
    let mut words = if plain_first {
        env.eval_margins(&p.d, &p.s, &theta)
            .expect("repeat point evaluates")
            .iter()
            .map(|v| v.to_bits())
            .collect()
    } else {
        perturbed(&s_dirs)
    };
    words.extend(perturbed(if plain_first { &s_dirs } else { &d_dirs }));
    (fnv1a(words), env.sim_count() - sims)
}

/// The repeat pairs (a) and (b) behind a 2-worker `EvalService`, on a bare
/// bench with warm starts and on a bare bench without them, each on a
/// fresh bench: `[service a, service b, warm a, warm b, cold a, cold b]`.
fn capture_repeats(make: fn() -> Testbench, seed: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(6);
    for plain_first in [true, false] {
        let env = make();
        let svc = EvalService::new(&env, ExecConfig::default().with_workers(2));
        out.push(repeat_pair(&svc, seed, plain_first));
    }
    for plain_first in [true, false] {
        out.push(repeat_pair(&make(), seed, plain_first));
    }
    for plain_first in [true, false] {
        out.push(repeat_pair(
            &make().with_warm_start(false),
            seed,
            plain_first,
        ));
    }
    out
}

const MILLER_REPEAT_SEED: u64 = 301;
const FOLDED_REPEAT_SEED: u64 = 302;

const GOLDEN_MILLER_REPEAT: [(u64, u64); 6] = [
    (0x65980ce72c31de4f, 6),
    (0xd6525adf9c4fe30b, 6),
    (0x65980ce72c31de4f, 12),
    (0xd6525adf9c4fe30b, 12),
    (0x65980ce72c31de4f, 6),
    (0xd6525adf9c4fe30b, 6),
];
const GOLDEN_FOLDED_REPEAT: [(u64, u64); 6] = [
    (0x4701111875f8fcfb, 6),
    (0x066b4c011b92f697, 6),
    (0x4701111875f8fcfb, 12),
    (0x066b4c011b92f697, 12),
    (0x4701111875f8fcfb, 6),
    (0x066b4c011b92f697, 6),
];

fn check_repeats(make: fn() -> Testbench, seed: u64, golden: &[(u64, u64)]) {
    const CASES: [&str; 6] = [
        "service (a)",
        "service (b)",
        "warm bench (a)",
        "warm bench (b)",
        "cold bench (a)",
        "cold bench (b)",
    ];
    let name = make().name().to_string();
    for ((case, got), want) in CASES.iter().zip(capture_repeats(make, seed)).zip(golden) {
        assert_eq!(got.0, want.0, "{name} {case}: repeat hash mismatch");
        assert_eq!(got.1, want.1, "{name} {case}: repeat simulation count");
    }
}

fn check(env: &dyn CircuitEnv, seed: u64, golden: &[(u64, u64)], golden_nominal: &[u64]) {
    let (hashes, nominal_bits) = capture(env, seed);
    for (i, (bits, want)) in nominal_bits.iter().zip(golden_nominal).enumerate() {
        assert_eq!(
            bits,
            want,
            "{}: nominal performance {} drifted: {} (bits {:#018x}, want {:#018x})",
            env.name(),
            env.specs()[i].name(),
            f64::from_bits(*bits),
            bits,
            want
        );
    }
    for (i, (got, want)) in hashes.iter().zip(golden).enumerate() {
        assert_eq!(
            got.0,
            want.0,
            "{}: eval_performances hash mismatch at point {i}",
            env.name()
        );
        assert_eq!(
            got.1,
            want.1,
            "{}: eval_constraints hash mismatch at point {i}",
            env.name()
        );
    }
}

#[test]
fn miller_matches_seed_golden() {
    check(
        &MillerOpamp::paper_setup(),
        MILLER_SEED,
        &GOLDEN_MILLER,
        &GOLDEN_MILLER_NOMINAL,
    );
}

#[test]
fn folded_matches_seed_golden() {
    check(
        &FoldedCascode::paper_setup(),
        FOLDED_SEED,
        &GOLDEN_FOLDED,
        &GOLDEN_FOLDED_NOMINAL,
    );
}

#[test]
fn ota_matches_seed_golden() {
    check(
        &FiveTransistorOta::default_setup(),
        OTA_SEED,
        &GOLDEN_OTA,
        &GOLDEN_OTA_NOMINAL,
    );
}

#[test]
fn miller_perturbed_matches_golden() {
    check_perturbed(
        &MillerOpamp::paper_setup(),
        MILLER_PERTURBED_SEED,
        &GOLDEN_MILLER_PERTURBED,
    );
}

#[test]
fn folded_perturbed_matches_golden() {
    check_perturbed(
        &FoldedCascode::paper_setup(),
        FOLDED_PERTURBED_SEED,
        &GOLDEN_FOLDED_PERTURBED,
    );
}

#[test]
fn miller_repeats_match_golden() {
    check_repeats(
        MillerOpamp::paper_setup,
        MILLER_REPEAT_SEED,
        &GOLDEN_MILLER_REPEAT,
    );
}

#[test]
fn folded_repeats_match_golden() {
    check_repeats(
        FoldedCascode::paper_setup,
        FOLDED_REPEAT_SEED,
        &GOLDEN_FOLDED_REPEAT,
    );
}

#[test]
fn declined_perturbed_matches_golden() {
    let (hash, declined) = declined_point();
    assert!(declined, "the pinned point must decline the shortcut");
    assert_eq!(hash, GOLDEN_DECLINED_PERTURBED);
}

/// Prints fresh golden constants (run with `--ignored --nocapture` and paste
/// the output over the `GOLDEN_*` constants above).
#[test]
#[ignore]
fn regenerate() {
    let print = |label: &str, env: &dyn CircuitEnv, seed: u64| {
        let (hashes, nominal) = capture(env, seed);
        println!("const GOLDEN_{label}: [(u64, u64); 6] = [");
        for (p, c) in &hashes {
            println!("    ({p:#018x}, {c:#018x}),");
        }
        println!("];");
        println!("const GOLDEN_{label}_NOMINAL: [u64; {}] = [", nominal.len());
        for b in &nominal {
            println!("    {b:#018x},");
        }
        println!("];");
    };
    print("MILLER", &MillerOpamp::paper_setup(), MILLER_SEED);
    print("FOLDED", &FoldedCascode::paper_setup(), FOLDED_SEED);
    print("OTA", &FiveTransistorOta::default_setup(), OTA_SEED);
    let print_perturbed = |label: &str, env: &dyn CircuitEnv, seed: u64| {
        println!("const GOLDEN_{label}_PERTURBED: [u64; 3] = [");
        for h in capture_perturbed(env, seed) {
            println!("    {h:#018x},");
        }
        println!("];");
    };
    print_perturbed("MILLER", &MillerOpamp::paper_setup(), MILLER_PERTURBED_SEED);
    print_perturbed(
        "FOLDED",
        &FoldedCascode::paper_setup(),
        FOLDED_PERTURBED_SEED,
    );
    println!(
        "const GOLDEN_DECLINED_PERTURBED: u64 = {:#018x};",
        declined_point().0
    );
    let print_repeats = |label: &str, make: fn() -> Testbench, seed: u64| {
        println!("const GOLDEN_{label}_REPEAT: [(u64, u64); 6] = [");
        for (h, sims) in capture_repeats(make, seed) {
            println!("    ({h:#018x}, {sims}),");
        }
        println!("];");
    };
    print_repeats("MILLER", MillerOpamp::paper_setup, MILLER_REPEAT_SEED);
    print_repeats("FOLDED", FoldedCascode::paper_setup, FOLDED_REPEAT_SEED);
}
