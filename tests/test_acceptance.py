"""Acceptance gate: thirteen end-to-end criteria at fixed tolerances.

Each test evaluates one numbered criterion, prints a single PASS/FAIL
line with the measured values (visible under ``pytest -s``), and then
asserts. Oracles are frozen constants computed independently of the
library code paths they check, published reference values, or direct
mathematical identities.
"""

import math
from functools import lru_cache

import numpy as np

from rodeo_sched import (BandModel, ContinuousBand, HamiltonianSpec,
                         RodeoObjective, TimeSchedule,
                         adaptive_alpha_curve, asymptotic_rsn,
                         build_sector_hamiltonian, eigendecompose,
                         fit_decay_exponent, fourier_expansion,
                         make_initial_state, optimize_alpha,
                         optimize_times, product_function, rra_average_success,
                         rsn_closed_form, rsn_quadrature, rsn_quadrature_batch,
                         superiteration_limit_rsn, superiteration_schedule,
                         trotter_floor)
from rodeo_sched.asymptotics import GOLDEN_RATIO
from rodeo_sched.spectral import level_gap

BAND = BandModel(0.1, 1.0)
T0_BAND = math.pi / 0.1

# Published optimization table for delta in [0.1, 1], N = 10: time-budget
# multiple of T0, residual weight, and the printed optimal time samples.
PRINTED_ROWS = [
    (0.5, 0.153, (0.449, 4.956, 10.302)),
    (1.0, 0.0335, (3.463, 4.300, 8.058, 15.596)),
    (2.0, 0.00161, (3.382, 4.118, 6.312, 10.303, 14.929, 23.788)),
    (3.0, 7.42e-5, (3.323, 4.210, 5.738, 7.843, 11.097, 14.557, 19.829, 27.650)),
]


def _report(index: int, ok: bool, detail: str) -> None:
    print(f"[{index:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {index}: {detail}"


def _two_sided(band: BandModel) -> ContinuousBand:
    table = np.array([[band.delta_min, 2.0], [band.delta_max, 2.0]])
    return ContinuousBand(band.delta_min, band.delta_max, table, normalize=False)


@lru_cache(maxsize=None)
def _xx_backend():
    spec = HamiltonianSpec(model="xx", length=10)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    e0 = float(eig.eigenvalues[0])
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    return RodeoObjective(eig, psi, e0), math.pi / level_gap(eig.eigenvalues, e0), eig


@lru_cache(maxsize=None)
def _tfim_alpha_crossing(field: float) -> float:
    """First T/T0 where the optimized ratio drops below 1.5, interpolated.

    The simulation runs in the even-parity sector; the time axis is
    normalized by the model's characteristic time pi / (E1 - E0) taken
    over the full spectrum (both parity sectors).
    """
    spec = HamiltonianSpec(model="tfim", length=10, field=field)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    e0 = float(eig.eigenvalues[0])
    obj = RodeoObjective(eig, make_initial_state(spec, "plus_projected"), e0)
    full = eigendecompose(build_sector_hamiltonian(
        HamiltonianSpec(model="tfim", length=10, field=field, sector="full")))
    t0 = math.pi / level_gap(full.eigenvalues, full.eigenvalues[0])
    mults = np.geomspace(0.15, 2.5, 12)
    curve = adaptive_alpha_curve(obj.batch, 100, mults * t0)
    alphas = [point.alpha for point in curve]
    for i, alpha in enumerate(alphas):
        if alpha < 1.5:
            if i == 0:
                return float(mults[0])
            lo, hi = alphas[i - 1], alpha
            frac = (lo - 1.5) / (lo - hi)
            return float(mults[i - 1] * (mults[i] / mults[i - 1]) ** frac)
    return math.inf


def test_criterion_01_optimized_zeta_table():
    details, ok_all = [], True
    for mult, printed, _ in PRINTED_ROWS:
        bound = printed * 1.05
        best = math.inf
        for seed in range(5):
            res = optimize_times(BAND.objective(), 10, mult * T0_BAND,
                                 budget=30_000, restarts=3, seed=seed)
            best = min(best, res.best_objective)
            if best <= bound:
                break
        ok_all &= best <= bound
        details.append(f"{mult:g}T0 {best:.4e}<={bound:.3e}")
    _report(1, ok_all, "optimize_times vs published table: " + ", ".join(details))


def test_criterion_02_printed_times_reproduce_zeta():
    details, ok_all = [], True
    for _, printed, times in PRINTED_ROWS:
        z = rsn_closed_form(BAND, TimeSchedule(times=np.array(times)))
        rounded = float(f"{z:.3g}")
        ulp = 10.0 ** (math.floor(math.log10(printed)) - 2)
        ok = abs(rounded - printed) <= ulp * (1 + 1e-9)
        ok_all &= ok
        details.append(f"{rounded:g}~{printed:g}")
    _report(2, ok_all,
            "printed time vectors round-trip to printed zeta (3 sig figs, "
            "within one ulp): " + ", ".join(details))


def test_criterion_03_closed_form_vs_quadrature():
    rng = np.random.default_rng(2026)
    band_q = _two_sided(BAND)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        sched = TimeSchedule(times=rng.uniform(0.05, 40.0, size=n))
        closed = rsn_closed_form(BAND, sched)
        quad = rsn_quadrature(band_q, 0.0, sched, abs_tol=1e-13)
        worst = max(worst, abs(closed - quad) / abs(closed))
    _report(3, worst < 1e-8,
            f"100 random schedules (N<=8): worst relative gap {worst:.2e} < 1e-8")


def test_criterion_04_alpha_two_identity():
    theta = np.linspace(0.1, 100.0, 50_001)
    err = np.max(np.abs(product_function(2.0, theta, 40)
                        - (np.sin(theta) / theta) ** 2))
    _report(4, err < 1e-10, f"alpha=2 squared-sinc identity: max error {err:.2e} < 1e-10")


def test_criterion_05_product_vs_fourier():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        alpha = float(rng.uniform(1.05, 3.0))
        theta = float(rng.uniform(0.1, 50.0))
        n = int(rng.integers(1, 21))
        worst = max(worst, abs(product_function(alpha, theta, n)
                               - fourier_expansion(alpha, theta, n)))
    _report(5, worst < 1e-11,
            f"1000 random (alpha, theta), N<=20: worst gap {worst:.2e} < 1e-11")


def test_criterion_06_exponential_regime_slope():
    theta, b = 1e6, 0.5
    alpha = 1.0 + b / theta
    n_values = np.arange(1, 51)
    logs = np.log([product_function(alpha, theta, int(n)) for n in n_values])
    slope = np.polyfit(n_values, logs, 1)[0]
    expected = 2.0 * math.log(math.cos(b))
    rel = abs(slope - expected) / abs(expected)
    _report(6, rel < 1e-3,
            f"log-residual slope {slope:.6f} vs 2*log(cos(1/2)) {expected:.6f}, "
            f"relative error {rel:.2e} < 1e-3")


def test_criterion_07_decay_exponent_and_pisot_flag():
    fit2 = fit_decay_exponent(2.0, 1e4)
    golden = fit_decay_exponent(GOLDEN_RATIO, 1e4)
    running_max = float(np.max(golden.window_maxima))
    floor = 10.0 * float(fit2.window_maxima[-1])
    ok = (abs(fit2.gamma - 2.0) < 0.1 and not fit2.non_decaying
          and golden.non_decaying and running_max > floor)
    _report(7, ok,
            f"gamma(2)={fit2.gamma:.4f} in 2.0+-0.1; golden flag "
            f"{golden.non_decaying}, running max {running_max:.2e} > "
            f"10x alpha=2 envelope {floor:.2e}")


def test_criterion_08_rra_formula_vs_monte_carlo():
    rng = np.random.default_rng(11)
    t = np.abs(rng.normal(0.0, 1.0, size=1_000_000))
    samples = np.cos(t / 2.0) ** 2
    se = samples.std() / math.sqrt(samples.size)
    gap = abs(samples.mean() - rra_average_success(1.0, 1.0, 1))
    _report(8, gap < 3 * se,
            f"one-cycle average success: |MC - formula| {gap:.2e} < 3 SE {3 * se:.2e}")


def test_criterion_09_initial_overlaps():
    obj, _, eig = _xx_backend()
    e1_overlap = float(obj.weights(np.zeros((0, 1)))[1][0])  # the target weight before any cycle
    spec = HamiltonianSpec(model="xx", length=10)
    fusion = make_initial_state(spec, "fusion")
    fusion_fid = float(abs(eig.eigenvectors[:, 0] @ fusion.vector) ** 2)
    ok_e1 = 5e-8 <= e1_overlap <= 9e-8
    ok_fusion = 0.45 <= fusion_fid <= 0.55
    _report(9, ok_e1 and ok_fusion,
            f"first-excited-basis overlap {e1_overlap:.3e} in [5e-8, 9e-8]: "
            f"{ok_e1}; fusion fidelity {fusion_fid:.4f} in [0.45, 0.55]: {ok_fusion}")


def test_criterion_10_curve_shapes():
    obj, t0, _ = _xx_backend()
    n = 100
    mults = np.array([0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
    fixed_alphas = (2.0, 1.5, 1.2)
    infid = {a: [obj.value(superiteration_schedule(a, n, m * t0).times)
                 for m in mults] for a in fixed_alphas}
    curve = adaptive_alpha_curve(obj.batch, n, mults * t0, monotone=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0, 977))))
    base = np.abs(rng.normal(size=(n, 50)))
    rra = [float(obj.batch((m * t0 / n) * math.sqrt(math.pi / 2) * base).mean())
           for m in mults]

    short = mults <= 0.5
    small = [a for a in fixed_alphas if a < 1.5]
    ok_a = all(infid[2.0][i] < min(infid[a][i] for a in small)
               for i in np.nonzero(short)[0])
    long_idx = np.nonzero(mults >= 10.0)[0]
    ok_b = all(curve[i].objective < min(infid[a][i] for a in fixed_alphas)
               and curve[i].objective < rra[i] for i in long_idx)
    alphas = [p.alpha for p in curve]
    ok_c = (all(a2 <= a1 + 2e-4 for a1, a2 in zip(alphas, alphas[1:]))
            and alphas[-1] < 1.2)
    _report(10, ok_a and ok_b and ok_c,
            f"(a) alpha=2 best at short T: {ok_a}; (b) adaptive beats fixed "
            f"and random mean at T>=10T0: {ok_b}; (c) monotone ratio, final "
            f"alpha {alphas[-1]:.4f} < 1.2: {ok_c}")


def test_criterion_11_tfim_criticality_trend():
    cross_1 = _tfim_alpha_crossing(1.0)
    cross_3 = _tfim_alpha_crossing(3.0)
    ok = cross_1 < cross_3
    _report(11, ok,
            f"ratio crosses 1.5 at T/T0 = {cross_1:.3f} (h=J) vs "
            f"{cross_3:.3f} (h=3J): earlier at criticality: {ok}")


def test_criterion_12_trotter_sweep():
    band = ContinuousBand(0.0, 1.0, density="constant")
    e_target, t0 = -1.0, math.pi
    dt = 1e-2 * t0
    n = 100

    def alpha_opt(total: float):
        objective = lambda tm: rsn_quadrature_batch(band, e_target, trotter_floor(tm, dt))
        return optimize_alpha(objective, n, total)

    t_grid = np.geomspace(0.1, 10.0, 20) * t0
    optima = [alpha_opt(float(t)) for t in t_grid]
    zetas = [o.objective for o in optima]
    ok_mono = all(z2 <= z1 * (1 + 1e-9) + 1e-300
                  for z1, z2 in zip(zetas, zetas[1:]))
    alpha_early = alpha_opt(0.3 * t0).alpha
    alpha_late = optima[-1].alpha
    ok_alpha = alpha_late < alpha_early
    _report(12, ok_mono and ok_alpha,
            f"flat-band Trotter sweep: zeta nonincreasing over 20 points: "
            f"{ok_mono}; alpha(10T0)={alpha_late:.4f} < "
            f"alpha(0.3T0)={alpha_early:.4f}: {ok_alpha}")


def test_criterion_13_asymptotic_gap():
    gaps = []
    for t1_delta in (10.0, 100.0):
        t1 = t1_delta / BAND.delta_min
        lim = superiteration_limit_rsn(BAND, t1)
        asym = asymptotic_rsn(BAND, t1)
        gaps.append(abs(lim - asym) / asym)
    ok = gaps[0] < 0.05 and gaps[1] < 0.05 and gaps[1] < gaps[0]
    _report(13, ok,
            f"limit vs power law: gaps {gaps[0]:.3e}, {gaps[1]:.3e} both < 5% "
            f"and shrinking")
