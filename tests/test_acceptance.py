"""Acceptance suite: one test per exit criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS/FAIL`` line (run with
``pytest -s`` to see them live).  Void-probability estimates are run to a
target CI half-width: the suggested replication count is the first batch
of a sequential run that stops once the target is met.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn

from voidnet.analytics import VORONOI_SHAPE, void_prob_bounds, void_prob_nearest, void_prob_rca
from voidnet.association import _replication_cells, void_probability_mc
from voidnet.channel import (
    SIGMA2_IN_DB,
    SIGMA_IN_DB,
    ChannelParams,
    WeightLaw,
    fractional_moment,
    sample_gain,
    shadowing_sigma2_from_db,
    zeta_dagger,
)
from voidnet.coverage import ALL_BS, MODELS, THINNED_PPP, VOID_AWARE, sir_samples
from voidnet.geometry import SimulationWindow, distances_to_point
from voidnet.harness import ExperimentConfig, _bounds_check_rows, auto_window, suggested_reps
from voidnet.pointprocess import (
    csr_test,
    map_pattern,
    mark_expansion_factor,
    rep_rng,
    sample_ppp,
)
from voidnet.spatialstats import remark2_test

LAMBDA_U = 370.0
RATIO_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)
Z = 1.959963984540054

SIGMA8_CONV_A = shadowing_sigma2_from_db(8.0, SIGMA_IN_DB)
SIGMA8_CONV_B = shadowing_sigma2_from_db(8.0, SIGMA2_IN_DB)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def simulate_void(lambda_b, cp, law, seed, half_width=0.005):
    window = auto_window(lambda_b, LAMBDA_U)
    reps = suggested_reps(
        void_prob_nearest(LAMBDA_U, lambda_b), lambda_b * window.sampling_area(), half_width
    )
    return void_probability_mc(lambda_b, LAMBDA_U, cp, law, reps, window, seed,
                               half_width=half_width)


def paired_movement(voids_a, voids_b, cells):
    """Mean of (void fraction a - void fraction b) on shared replications.

    Both fractions are pooled over the same cells, so the difference is a
    ratio estimator whose cluster variance is taken from per-replication
    residuals, as in :func:`voidnet.analytics.pooled_fraction`.  Returns
    ``(difference, standard error)``.
    """
    d = np.asarray(voids_a, dtype=float) - np.asarray(voids_b, dtype=float)
    n = np.asarray(cells, dtype=float)
    diff = d.sum() / n.sum()
    reps = len(n)
    var = reps / (reps - 1) * float(np.sum((d - diff * n) ** 2)) / n.sum() ** 2
    return float(diff), math.sqrt(var)


def test_criterion_1_nearest_void_probability():
    """Nearest association matches its closed form on the full ratio grid."""
    started = time.perf_counter()
    law = WeightLaw.nearest()
    failures = []
    details = []
    for i, ratio in enumerate(RATIO_GRID):
        lambda_b = LAMBDA_U / ratio
        est = simulate_void(lambda_b, RAYLEIGH, law, seed=100 + i)
        expected = void_prob_nearest(LAMBDA_U, lambda_b)
        if abs(est.value - expected) > 3.0 * est.se:
            failures.append(f"ratio {ratio}: {est.value:.5f} vs {expected:.5f} (se {est.se:.5f})")
        if est.half_width > 0.005 + 1e-9:
            failures.append(f"ratio {ratio}: CI half-width {est.half_width:.5f} > 0.005")
        if ratio == 2.0:
            if abs(est.value - 0.205574) > 0.01:
                failures.append(f"ratio 2 point check: {est.value:.5f} not within 0.01 of 0.20557")
            details.append(f"ratio 2: sim {est.value:.5f} vs formula 0.20557")
    elapsed = time.perf_counter() - started
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 minutes")
    ok = not failures
    report("1 nearest-void", ok, "; ".join(details + failures) + f" ({elapsed:.0f}s)")
    assert ok, failures


def test_criterion_2_rca_void_probability_matches_closed_form():
    """Unit-law void probability matches the moment-product closed form."""
    law = WeightLaw.unit()
    failures = []
    checked = 0
    for tag, sigma2 in (("s2=0", 0.0), ("8dB-sigma-in-db", SIGMA8_CONV_A),
                        ("8dB-sigma2-in-db", SIGMA8_CONV_B)):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=sigma2, alpha=4.0)
        rho = VORONOI_SHAPE * zeta_dagger(cp, law)
        for i, ratio in enumerate(RATIO_GRID):
            lambda_b = LAMBDA_U / ratio
            est = simulate_void(lambda_b, cp, law, seed=200 + i, half_width=0.008)
            expected = void_prob_rca(LAMBDA_U, lambda_b, rho)
            floor = math.exp(-ratio)
            checked += 1
            if abs(est.value - expected) > 3.0 * est.se:
                failures.append(
                    f"{tag} ratio {ratio}: {est.value:.5f} vs {expected:.5f} (se {est.se:.5f})"
                )
            if est.value < floor - 3.0 * est.se:
                failures.append(f"{tag} ratio {ratio}: {est.value:.5f} below floor {floor:.5f}")
    ok = not failures
    report("2 rca-void-closed-form", ok,
           f"{checked} (setting, ratio) points within 3 SE" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_3_void_probability_sandwich():
    """Simulated void probability sits inside the analytic sandwich."""
    cfg = ExperimentConfig(experiment="bounds-check", sets=50, reps=24, seed=300)
    rows, meta = _bounds_check_rows(cfg)
    failures = [
        f"set {r['set']} ({r['law']}, m={r['m']:.2f}): p={r['p_void_sim']:.4f} "
        f"outside [{r['bound_low']:.4f}, {r['bound_high']:.4f}] +/- 3se"
        for r in rows
        if not r["within_bounds"]
    ]
    for r in rows:
        if math.isfinite(r["bound_high"]) and not (
            r["bound_low"] < r["p_void_rca_formula"] < r["bound_high"]
        ):
            failures.append(f"set {r['set']}: closed form outside the open sandwich")
    ok = not failures
    report("3 sandwich", ok, f"{len(rows)} parameter sets" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_4_shadowing_vs_fading_sensitivity():
    """Shadowing moves the void probability more than fading does.

    At ratio 2 the movement from the Rayleigh, no-shadowing base case
    under 8 dB shadowing (the dB convention that moves it most) must
    exceed the m = 1 -> 4 fading movement by more than 3 paired standard
    errors.  All four settings run on the same rep_rng(400, r) streams, so
    every setting sees identical stations and users (common random
    numbers) and the movements are measured on paired replications.

    The margin is "more than", not a multiple: the Jensen floor
    exp(-ratio) caps any shadowing movement at p(m=1, s2=0) - exp(-2)
    ~ 0.046, below five times the fading movement (~0.06 simulated,
    ~0.1 by the closed form), so a 5x margin is out of reach of any
    correct program.  The paired design resolves the actual gap
    (~0.025 vs ~0.012) to several standard errors.
    """
    started = time.perf_counter()
    law = WeightLaw.unit()
    lambda_b = LAMBDA_U / 2.0
    window = auto_window(lambda_b, LAMBDA_U)
    reps = 190
    settings = {
        "base": ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0),
        "fading": ChannelParams(m=4.0, mu=0.0, sigma2=0.0, alpha=4.0),
        "sigma-in-db": ChannelParams(m=1.0, mu=0.0, sigma2=SIGMA8_CONV_A, alpha=4.0),
        "sigma2-in-db": ChannelParams(m=1.0, mu=0.0, sigma2=SIGMA8_CONV_B, alpha=4.0),
    }
    voids = {tag: np.empty(reps) for tag in settings}
    cells = np.empty(reps)
    for r in range(reps):
        for tag, cp in settings.items():
            counts = _replication_cells(lambda_b, LAMBDA_U, cp, law, window, rep_rng(400, r))
            voids[tag][r] = np.sum(counts == 0)
            cells[r] = len(counts)  # identical across settings: shared stations

    def movement(tag):
        diff, _ = paired_movement(voids[tag], voids["base"], cells)
        return abs(diff)

    moves_s = {tag: movement(tag) for tag in ("sigma-in-db", "sigma2-in-db")}
    best_tag = max(moves_s, key=moves_s.get)
    move_m = movement("fading")
    # |p_s - p_0| - |p_m - p_0| as one paired contrast, signed by the
    # observed directions of the two movements
    sign_s = np.sign(voids[best_tag].sum() - voids["base"].sum())
    sign_m = np.sign(voids["fading"].sum() - voids["base"].sum())
    excess, se = paired_movement(
        sign_s * (voids[best_tag] - voids["base"]),
        sign_m * (voids["fading"] - voids["base"]),
        cells,
    )
    z = excess / se if se > 0 else math.inf
    elapsed = time.perf_counter() - started
    ok = z > 3.0
    detail = (
        f"shadowing movement {moves_s[best_tag]:.5f} ({best_tag}) vs fading movement "
        f"{move_m:.5f}; excess {excess:.5f} +/- {se:.5f} (z {z:.1f}, {reps} paired reps, "
        f"{elapsed:.0f}s)"
    )
    report("4 shadowing-vs-fading", ok, detail)
    assert ok, detail


MARK_LAWS = {
    "deterministic-2": (lambda rng, n: np.full(n, 2.0), 0.25),
    "lognormal-0-0.25": (lambda rng, n: np.exp(rng.normal(0.0, 0.5, size=n)), math.exp(0.5)),
    "channel-m1-a4": (
        lambda rng, n: np.asarray(sample_gain(RAYLEIGH, rng, size=n), dtype=float).reshape(n)
        ** (-0.25),
        gamma_fn(1.5),
    ),
}


def test_criterion_5_random_conservation_property():
    """Randomly scaled PPPs stay PPPs with intensity lambda E[1/T^2]."""
    lam, suites, grid = 100.0, 500, 5
    failures = []
    details = []
    for name, (sampler, mean_inv_sq) in MARK_LAWS.items():
        target = SimulationWindow(side=math.sqrt(40.0 * grid**2 / (lam * mean_inv_sq)))
        expansion = mark_expansion_factor(sampler, rep_rng(500, 10**6))
        source = SimulationWindow(side=target.side * expansion)
        rejected = 0
        counts = np.empty(suites)
        for s in range(suites):
            rng = rep_rng(501, s)
            src = sample_ppp(lam, source, rng)
            mapped = map_pattern(src, sampler(rng, len(src)), target=target)
            counts[s] = len(mapped)
            rejected += csr_test(mapped, grid).p_value < 0.05
        rate = rejected / suites
        expected = lam * mean_inv_sq * target.sampling_area()
        count_se = counts.std(ddof=1) / math.sqrt(suites)
        details.append(f"{name}: reject {rate:.3f}, count {counts.mean():.0f}/{expected:.0f}")
        if not 0.03 <= rate <= 0.07:
            failures.append(f"{name}: CSR rejection rate {rate:.3f} outside [0.03, 0.07]")
        if abs(counts.mean() - expected) > 3.0 * count_se:
            failures.append(
                f"{name}: intensity off, mean count {counts.mean():.1f} vs {expected:.1f} "
                f"(se {count_se:.2f})"
            )
    ok = not failures
    report("5 conservation", ok, "; ".join(details if ok else failures))
    assert ok, failures


def test_criterion_6_transformed_serving_distance_law():
    """Unit-law serving distance is Rayleigh after the moment transform."""
    cp = ChannelParams(m=1.0, mu=0.0, sigma2=shadowing_sigma2_from_db(4.0, SIGMA_IN_DB), alpha=4.0)
    lambda_b, reps = 185.0, 2000
    window = auto_window(lambda_b, lambda_b)
    center = (window.side / 2.0, window.side / 2.0)
    vals = np.empty(reps)
    for r in range(reps):
        rng = rep_rng(600, r)
        bs = sample_ppp(lambda_b, window, rng)
        d = distances_to_point(bs.points, center, window)
        wh = np.asarray(sample_gain(cp, rng, size=len(bs)), dtype=float)  # unit weights
        vals[r] = float(np.min(d * wh ** (-1.0 / cp.alpha)))
    lam_dag = lambda_b * fractional_moment(cp, WeightLaw.unit(), 2.0 / cp.alpha)
    res = stats.kstest(vals, lambda x: 1.0 - np.exp(-math.pi * lam_dag * x**2))
    critical = 1.628 / math.sqrt(reps)
    ok = res.statistic < critical
    report("6 serving-distance", ok,
           f"KS statistic {res.statistic:.4f} vs 1% critical {critical:.4f}")
    assert ok, res.statistic


def test_criterion_7_associated_stations_not_a_ppp():
    """Void thinning leaves a detectably non-Poisson station pattern."""
    law = WeightLaw.nearest()
    failures = []
    lambda_b = LAMBDA_U / 0.5
    strong = remark2_test(lambda_b, LAMBDA_U, RAYLEIGH, law, reps=40,
                          window=auto_window(lambda_b, LAMBDA_U), seed=700)
    if strong.exit_fraction <= 0.15:
        failures.append(f"ratio 0.5 exit fraction {strong.exit_fraction:.3f} not significant")

    lambda_b = LAMBDA_U / 20.0
    weak = remark2_test(lambda_b, LAMBDA_U, RAYLEIGH, law, reps=60,
                        window=auto_window(lambda_b, LAMBDA_U), seed=701, n_envelope=999)
    if abs(weak.exit_fraction - 0.05) > 0.02:
        failures.append(f"ratio 20 exit fraction {weak.exit_fraction:.3f} not within 0.05 +/- 0.02")
    ok = not failures
    report("7 remark2", ok,
           f"exit fractions: ratio 0.5 -> {strong.exit_fraction:.3f}, "
           f"ratio 20 -> {weak.exit_fraction:.3f}")
    assert ok, failures


def test_criterion_8_coverage_model_orderings():
    """Ignoring void cells underestimates coverage at low user loads."""
    sigma2 = shadowing_sigma2_from_db(4.0, SIGMA_IN_DB)  # convention: sigma-in-db
    cp = ChannelParams(m=1.0, mu=0.0, sigma2=sigma2, alpha=4.0)
    law = WeightLaw.nearest()
    beta, reps = 0.8, 600
    failures = []

    def coverage_at(ratio, seed):
        window = auto_window(LAMBDA_U / ratio, LAMBDA_U)
        [(sirs, _)] = sir_samples((ratio,), LAMBDA_U, cp, law, reps, window, seed)
        est = {m: float(np.mean(sirs[m] >= beta)) for m in MODELS}
        se = {m: math.sqrt(max(est[m] * (1 - est[m]), 1e-12) / reps) for m in MODELS}
        return est, se

    est, se = coverage_at(0.5, seed=800)
    gap = est[VOID_AWARE] - est[ALL_BS]
    combined = Z * (se[VOID_AWARE] + se[ALL_BS])
    if gap <= combined:
        failures.append(f"ratio 0.5: all-bs gap {gap:.3f} within noise {combined:.3f}")
    if abs(est[THINNED_PPP] - est[VOID_AWARE]) >= abs(est[ALL_BS] - est[VOID_AWARE]):
        failures.append("ratio 0.5: thinned model not closer to void-aware than all-bs")
    low_detail = (f"ratio 0.5: all-bs {est[ALL_BS]:.3f} < thinned {est[THINNED_PPP]:.3f} "
                  f"<= void-aware {est[VOID_AWARE]:.3f}")

    est10, se10 = coverage_at(10.0, seed=801)
    for a, b in ((ALL_BS, VOID_AWARE), (ALL_BS, THINNED_PPP), (THINNED_PPP, VOID_AWARE)):
        if abs(est10[a] - est10[b]) > Z * (se10[a] + se10[b]):
            failures.append(f"ratio 10: {a} and {b} disagree beyond CIs")

    flat = {}
    for i, ratio in enumerate((2.0, 5.0, 10.0)):
        e, s = coverage_at(ratio, seed=802 + i)
        flat[ratio] = (e[ALL_BS], s[ALL_BS])
    pairs = [(2.0, 5.0), (2.0, 10.0), (5.0, 10.0)]
    for a, b in pairs:
        diff = abs(flat[a][0] - flat[b][0])
        tol = 3.0 * math.hypot(flat[a][1], flat[b][1])
        if diff > tol:
            failures.append(f"all-bs not flat: ratios {a}/{b} differ by {diff:.3f} > {tol:.3f}")
    ok = not failures
    report("8 coverage-orderings", ok, low_detail if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_9_analytic_unit_suite():
    """Closed-form identities hold to tight numerical tolerances."""
    failures = []
    lu, lb = 370.0, 185.0
    from voidnet.analytics import rho_strongest_power, user_count_pmf

    n = np.arange(201)
    if abs(user_count_pmf(n, lu, lb).sum() - 1.0) > 1e-8:
        failures.append("pmf normalization")
    n = np.arange(400)
    if abs((n * user_count_pmf(n, lu, lb)).sum() - 2.0) > 1e-6:
        failures.append("pmf mean")

    rng = np.random.default_rng(900)
    for _ in range(20):
        alpha = rng.uniform(2.5, 6.0)
        m = rng.uniform(2.0 / alpha + 0.05, 5.0)
        s2 = rng.uniform(0.0, 2.0)
        cp = ChannelParams(m=m, mu=0.0, sigma2=s2, alpha=alpha)
        if abs(rho_strongest_power(m, s2, alpha) - 3.5 * zeta_dagger(cp, WeightLaw.unit())) > 1e-10:
            failures.append(f"moment-product identity at m={m:.3f}, alpha={alpha:.3f}")
            break

    zs = [zeta_dagger(ChannelParams(m=1.2, mu=mu, sigma2=0.8, alpha=3.6), WeightLaw.unit())
          for mu in (-2.0, 0.0, 2.0)]
    if not np.allclose(zs, zs[0], rtol=1e-12):
        failures.append("mu leaks into the moment product")

    for _ in range(50):
        alpha = rng.uniform(2.5, 6.0)
        cp = ChannelParams(m=rng.uniform(2.0 / alpha + 0.05, 5.0), mu=0.0,
                           sigma2=rng.uniform(0.0, 2.0), alpha=alpha)
        if zeta_dagger(cp, WeightLaw.unit()) < 1.0:
            failures.append("moment product below 1")
            break

    rhos = np.linspace(3.5, 100.0, 40)
    vals = [void_prob_rca(lu, lb, r) for r in rhos]
    if not all(a > b for a, b in zip(vals, vals[1:])):
        failures.append("void probability not decreasing in rho")

    lower, upper = void_prob_bounds(lu, lb, 1e6)
    if upper - lower > 1e-4:
        failures.append("bounds gap at zeta=1e6 exceeds 1e-4")

    ok = not failures
    report("9 analytic-suite", ok, "all identities hold" if ok else "; ".join(failures))
    assert ok, failures
