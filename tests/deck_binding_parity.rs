//! Bit pins for deck-compiled testbenches outside `golden_parity`'s three
//! opamps: the tiny OTA of the testbench unit tests, a variant whose
//! `.tb out` node is not pre-declared, a deck whose R, C, I (with `AC`),
//! E, G and D elements all carry `{param}` values, and a bench that
//! extracts the slew rate by transient.
//!
//! Each deck is evaluated at three seeded `(d, ŝ, θ)` points. The hashes
//! cover the exact bits of `eval_performances`, `eval_constraints` and
//! `eval_margins_perturbed` (base and per-direction margins); an error is
//! hashed through its message, so the first failing element is pinned too.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test --release --test deck_binding_parity -- --ignored regenerate --nocapture
//! ```

use rand::{Rng, SeedableRng};
use specwise_ckt::{CircuitEnv, CktError, OperatingPoint, SlewRateMethod, Testbench};
use specwise_linalg::DVec;

const TINY: &str = "\
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

/// The tiny OTA with every passive, source, controlled-source and diode
/// kind bound to a design variable.
const PARAMS: &str = "\
.name tiny ota with bound passives
.nodes vdd inp out x1 tail vbn
.design w1 um 2.0 200.0 6.0
.design l1 um 0.6 10.0 1.0
.design w3 um 2.0 200.0 12.0
.design wt um 2.0 200.0 20.0
.design ib uA 1.0 100.0 5.0
.design rl kOhm 10.0 1000.0 200.0
.design cl pF 0.5 10.0 2.0
.design ix uA 1.0 100.0 10.0
.design rx kOhm 1.0 100.0 20.0
.design ge x 0.5 5.0 2.0
.design gg mS 0.1 10.0 1.0
.design is fA 1.0 100.0 10.0
.design nd x 1.0 2.0 1.2
.range temp -40.0 125.0
.range vdd 3.0 3.6
.spec A0 dB min 30.0 dcgain
.spec ft MHz min 4.0 ugf
.spec PM deg min 45.0 pm
.spec CMRR dB min 40.0 cmrr
.spec PSRR dB min 40.0 psrr
.spec SRp V/us min 4.0 slew
.spec Power mW max 0.5 power
.spec Vx V min 0.1 vdc(xs)
.match m1 m2
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
RL out 0 {rl}
CL out 0 {cl}
IX vdd xs {ix} AC 1
RX xs 0 {rx}
DX xs 0 IS={is} N={nd}
EX xe 0 out 0 {ge}
REX xe 0 1k
GX xg 0 out 0 {gg}
RGX xg 0 1k
.end
";

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn vec_bytes(v: &DVec) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()
}

/// Bytes of one evaluation result: a tag, then the value bits or the
/// error message.
fn result_bytes<T>(r: &Result<T, CktError>, ok: impl Fn(&T) -> Vec<u8>) -> Vec<u8> {
    match r {
        Ok(v) => [vec![0], ok(v)].concat(),
        Err(e) => [vec![1], e.to_string().into_bytes()].concat(),
    }
}

struct Point {
    d: DVec,
    s: DVec,
    theta: OperatingPoint,
}

/// Three seeded points: multiplicative jitter on the initial design
/// (projected back into the box), |ŝ| ≤ 1, θ ∈ Θ.
fn points(env: &Testbench, seed: u64) -> Vec<Point> {
    let space = env.design_space();
    let range = env.operating_range();
    let (t_lo, t_hi) = range.temp_bounds();
    let (v_lo, v_hi) = range.vdd_bounds();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..3)
        .map(|_| {
            let d: DVec = space
                .initial()
                .iter()
                .map(|&x| x * rng.gen_range(0.9..1.1))
                .collect();
            let d = space.project(&d).expect("projection succeeds");
            let s: DVec = (0..env.stat_dim())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let theta = OperatingPoint::new(rng.gen_range(t_lo..t_hi), rng.gen_range(v_lo..v_hi));
            Point { d, s, theta }
        })
        .collect()
}

/// Two perturbation directions: a 1% step on the first design variable and
/// a 0.1σ step on the first statistical parameter.
fn directions(p: &Point) -> Vec<(DVec, DVec)> {
    let mut d1 = p.d.clone();
    d1[0] *= 1.01;
    let mut s2 = p.s.clone();
    s2[0] += 0.1;
    vec![(d1, p.s.clone()), (p.d.clone(), s2)]
}

/// Per point: `(performances, constraints, perturbed margins)` hashes.
fn capture(env: &Testbench, seed: u64) -> Vec<[u64; 3]> {
    points(env, seed)
        .iter()
        .map(|p| {
            let perf = env.eval_performances(&p.d, &p.s, &p.theta);
            let cons = env.eval_constraints(&p.d);
            let pert = env.eval_margins_perturbed(&p.d, &p.s, &p.theta, &directions(p));
            [
                fnv1a(result_bytes(&perf, vec_bytes)),
                fnv1a(result_bytes(&cons, vec_bytes)),
                fnv1a(result_bytes(&pert, |o| match o {
                    None => vec![2],
                    Some((base, per)) => {
                        let mut b = vec_bytes(base);
                        for m in per {
                            b.extend(vec_bytes(m));
                        }
                        b
                    }
                })),
            ]
        })
        .collect()
}

fn tiny() -> Testbench {
    Testbench::from_deck(TINY).unwrap()
}

/// `.tb out` names a node the `.nodes` line does not declare, so the
/// output is interned after the declared nodes.
fn out_undeclared() -> Testbench {
    let deck = TINY.replace(
        ".nodes vdd inp out x1 tail vbn",
        ".nodes vdd inp x1 tail vbn",
    );
    Testbench::from_deck(&deck).unwrap()
}

fn params() -> Testbench {
    Testbench::from_deck(PARAMS).unwrap()
}

fn transient() -> Testbench {
    tiny().with_sr_method(SlewRateMethod::Transient {
        dt: 20e-9,
        t_stop: 4e-6,
        step: 0.5,
    })
}

const TINY_SEED: u64 = 201;
const OUT_SEED: u64 = 202;
const PARAMS_SEED: u64 = 203;
const TRANSIENT_SEED: u64 = 204;

const GOLDEN_TINY: [[u64; 3]; 3] = [
    [0x3082da3709ff3fb7, 0x00044a019ea96eff, 0x586a9f870b8a67cd],
    [0x6f157a383b66c804, 0x936e599f54d8f187, 0x374740b14f569b0f],
    [0xa47ec833c0f95a53, 0x365a2c9b555ac65d, 0x6d931baf6ab82697],
];
const GOLDEN_OUT: [[u64; 3]; 3] = [
    [0x57f9e810fd526278, 0x5d55fc0221474350, 0xdd5fb92251fb121d],
    [0xf35bfb0419d09415, 0x1849c2c9b33526c7, 0x2ff3a278c59c6a67],
    [0x796cc02a92dc2f35, 0x9b01d6fc38101b11, 0x91c5b02722a1befb],
];
const GOLDEN_PARAMS: [[u64; 3]; 3] = [
    [0xdec54156afb33283, 0xf60ed2c3e171904a, 0x191e943b11bec548],
    [0xbed99eceb9d03696, 0x1a737f9bc703edb2, 0x083315955a73886f],
    [0x1f18284088c647c2, 0x6f06cd6f0a93ad70, 0x58e90a5a8dbcc4a8],
];
const GOLDEN_TRANSIENT: [[u64; 3]; 3] = [
    [0xa10db86489c2e1f5, 0xd0b0126280d7f9e4, 0x08328607b4eb6c87],
    [0x912a35ec84d90e48, 0x8f00944426c08e15, 0x08328607b4eb6c87],
    [0xaa135e8e44102c7b, 0x95f71126a5f303d4, 0x08328607b4eb6c87],
];

fn check(env: &Testbench, seed: u64, golden: &[[u64; 3]; 3]) {
    let got = capture(env, seed);
    for (i, (g, w)) in got.iter().zip(golden).enumerate() {
        for (k, what) in [
            "eval_performances",
            "eval_constraints",
            "eval_margins_perturbed",
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(
                g[k],
                w[k],
                "{}: {what} hash mismatch at point {i}",
                env.name()
            );
        }
    }
}

#[test]
fn tiny_ota_bits_pinned() {
    check(&tiny(), TINY_SEED, &GOLDEN_TINY);
}

#[test]
fn undeclared_output_node_bits_pinned() {
    check(&out_undeclared(), OUT_SEED, &GOLDEN_OUT);
}

#[test]
fn bound_passives_sources_and_diode_bits_pinned() {
    check(&params(), PARAMS_SEED, &GOLDEN_PARAMS);
}

#[test]
fn transient_slew_bits_pinned() {
    check(&transient(), TRANSIENT_SEED, &GOLDEN_TRANSIENT);
}

/// The pins are only worth something if the points simulate: every point
/// of every deck evaluates, and the small-signal shortcut answers except
/// under transient slew extraction.
#[test]
fn every_pinned_point_evaluates() {
    for (env, seed, shortcut) in [
        (tiny(), TINY_SEED, true),
        (out_undeclared(), OUT_SEED, true),
        (params(), PARAMS_SEED, true),
        (transient(), TRANSIENT_SEED, false),
    ] {
        for p in points(&env, seed) {
            let perf = env.eval_performances(&p.d, &p.s, &p.theta);
            assert!(perf.is_ok(), "{}: {perf:?}", env.name());
            assert!(env.eval_constraints(&p.d).is_ok(), "{}", env.name());
            let pert = env
                .eval_margins_perturbed(&p.d, &p.s, &p.theta, &directions(&p))
                .unwrap();
            assert_eq!(pert.is_some(), shortcut, "{}", env.name());
        }
    }
}

/// Prints fresh golden constants (run with `--ignored --nocapture` and paste
/// the output over the `GOLDEN_*` constants above).
#[test]
#[ignore]
fn regenerate() {
    let print = |label: &str, env: &Testbench, seed: u64| {
        println!("const GOLDEN_{label}: [[u64; 3]; 3] = [");
        for [p, c, m] in capture(env, seed) {
            println!("    [{p:#018x}, {c:#018x}, {m:#018x}],");
        }
        println!("];");
    };
    print("TINY", &tiny(), TINY_SEED);
    print("OUT", &out_undeclared(), OUT_SEED);
    print("PARAMS", &params(), PARAMS_SEED);
    print("TRANSIENT", &transient(), TRANSIENT_SEED);
}
