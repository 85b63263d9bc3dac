import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voidnet.channel import ChannelParams, WeightLaw
from voidnet.coverage import (
    ALL_BS,
    MODELS,
    THINNED_PPP,
    VOID_AWARE,
    SirRealization,
    coverage_sweep,
    sample_realization,
    sir_at_typical_user,
    sir_samples,
    thinning_keep_probability,
)
from voidnet.geometry import SimulationWindow
from voidnet.pointprocess import rep_rng

RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)


def realization(serving_d=1.0, serving_g=1.0, dists=(), gains=(), nonvoid=None, kept=None):
    dists = np.asarray(dists, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if nonvoid is None:
        nonvoid = np.ones(len(dists), dtype=bool)
    if kept is None:
        kept = np.ones(len(dists), dtype=bool)
    return SirRealization(
        alpha=4.0,
        serving_distance=serving_d,
        serving_gain=serving_g,
        interferer_distances=dists,
        interferer_gains=gains,
        interferer_nonvoid=np.asarray(nonvoid, dtype=bool),
        interferer_kept=np.asarray(kept, dtype=bool),
    )


class TestSirAtTypicalUser:
    def test_lone_station_gives_infinite_sir(self):
        r = realization()
        assert math.isinf(sir_at_typical_user(r, ALL_BS))

    def test_two_equidistant_unit_gains(self):
        r = realization(serving_d=2.0, serving_g=1.0, dists=[2.0], gains=[1.0])
        assert sir_at_typical_user(r, ALL_BS) == pytest.approx(1.0)

    def test_masks_select_transmitters(self):
        r = realization(serving_d=1.0, serving_g=1.0,
                        dists=[1.0, 2.0], gains=[1.0, 1.0],
                        nonvoid=[False, True], kept=[False, False])
        assert sir_at_typical_user(r, ALL_BS) == pytest.approx(1.0 / (1.0 + 2.0**-4))
        assert sir_at_typical_user(r, VOID_AWARE) == pytest.approx(1.0 / 2.0**-4)
        assert math.isinf(sir_at_typical_user(r, THINNED_PPP))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            sir_at_typical_user(realization(), "everyone")


class TestSampleRealization:
    def test_serving_station_never_void(self):
        window = SimulationWindow(side=2.0)
        for r in range(5):
            rng = rep_rng(40, r)
            [(real, _)] = sample_realization(100.0, 50.0, RAYLEIGH, WeightLaw.nearest(),
                                             window, rng, keep_probs=(0.5,))
            assert real.serving_distance > 0.0
            assert real.serving_gain > 0.0

    def test_no_other_users_all_interferers_void(self):
        window = SimulationWindow(side=2.0)
        [(real, _)] = sample_realization(100.0, 0.0, RAYLEIGH, WeightLaw.nearest(),
                                         window, rep_rng(41, 0), keep_probs=(1.0,))
        assert not real.interferer_nonvoid.any()
        assert math.isinf(sir_at_typical_user(real, VOID_AWARE))


class TestSirSamples:
    def test_replication_r_runs_on_rep_rng_stream_r(self):
        law = WeightLaw.unit()
        window = SimulationWindow(side=2.0)
        [(sirs, tie)] = sir_samples((2.0,), 200.0, RAYLEIGH, law, 4, window, seed=43)
        keep_prob = thinning_keep_probability(100.0, 200.0, RAYLEIGH, law)
        ties = []
        for r in range(4):
            [(real, t)] = sample_realization(100.0, 200.0, RAYLEIGH, law, window,
                                             rep_rng(43, r), (keep_prob,))
            ties.append(t)
            for m in MODELS:
                assert sirs[m][r] == sir_at_typical_user(real, m)
        assert tie == float(np.mean(ties))


@pytest.fixture(scope="module")
def samples():
    window = SimulationWindow(side=1.645)
    [pair] = sir_samples((2.0,), 370.0, RAYLEIGH, WeightLaw.nearest(), 300, window, seed=42)
    return pair


class TestCoverageProbability:
    def test_dominance_void_aware_over_all_bs(self, samples):
        sirs, _ = samples
        assert np.all(sirs[VOID_AWARE] >= sirs[ALL_BS] - 1e-12)

    def test_monotone_in_beta(self, samples):
        sirs, _ = samples
        betas = np.logspace(-2, 2, 20)
        coverage = [(sirs[ALL_BS] >= b).mean() for b in betas]
        assert all(a >= b for a, b in zip(coverage, coverage[1:]))

    def test_beta_limits(self, samples):
        sirs, _ = samples
        assert np.mean(sirs[ALL_BS] >= 1e-9) == 1.0
        assert np.mean(sirs[ALL_BS] >= 1e12) == 0.0

    def test_no_users_void_aware_always_covered(self):
        # lambda_u = 0 has no user/station ratio, so this draws realizations directly.
        beta = 5.0
        window = SimulationWindow(side=2.0)
        sirs = np.array([
            sir_at_typical_user(real, VOID_AWARE)
            for r in range(20)
            for real, _ in sample_realization(150.0, 0.0, RAYLEIGH, WeightLaw.nearest(), window,
                                              rep_rng(44, r), keep_probs=(1.0,))
        ])
        assert np.all(sirs >= beta)

    def test_config_validation(self):
        # coverage_sweep rejects a threshold that is not finite and > 0, and an unknown model.
        window = SimulationWindow(side=1.0)
        for beta, models in [(0.0, MODELS), (-1.0, MODELS), (math.nan, MODELS),
                             (math.inf, MODELS), (1.0, ("nobody",))]:
            with pytest.raises(ValueError):
                coverage_sweep((2.0,), 370.0, RAYLEIGH, WeightLaw.nearest(), beta, 2, window,
                               seed=45, models=models)


class TestThinning:
    def test_keep_probability_nearest(self):
        keep = thinning_keep_probability(185.0, 370.0, RAYLEIGH, WeightLaw.nearest())
        assert keep == pytest.approx(1.0 - 0.2055742630, abs=1e-9)

    def test_sweep_rows(self):
        rows = coverage_sweep(
            (2.0,), 370.0, RAYLEIGH, WeightLaw.nearest(), beta=0.8, reps=40, seed=46,
            window=SimulationWindow(side=1.645), models=MODELS,
        )
        assert len(rows) == 3
        assert {r.model for r in rows} == set(MODELS)
        for r in rows:
            assert r.ci_low <= r.coverage <= r.ci_high
            assert r.lambda_b == pytest.approx(185.0)


class TestCoupledSweep:
    """One association per replication serves every ratio of the grid."""

    @given(st.integers(0, 10_000),
           st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4).map(sorted))
    def test_one_draw_across_ratios(self, seed, retain):
        retain = retain + [1.0]
        keep_probs = [0.3] * len(retain)
        pairs = sample_realization(185.0, 370.0, RAYLEIGH, WeightLaw.unit(),
                                   SimulationWindow(side=1.2), rep_rng(seed, 0), keep_probs, retain)
        all_bs = [sir_at_typical_user(real, ALL_BS) for real, _ in pairs]
        void_aware = [sir_at_typical_user(real, VOID_AWARE) for real, _ in pairs]
        assert len(set(all_bs)) == 1
        assert all(v >= a for v, a in zip(void_aware, all_bs))
        # kept users at a lower ratio are a subset of those at a higher one
        assert all(a >= b for a, b in zip(void_aware, void_aware[1:]))
        nonvoid = [real.interferer_nonvoid for real, _ in pairs]
        assert all(np.all(a <= b) for a, b in zip(nonvoid, nonvoid[1:]))

    def test_single_ratio_equals_sir_samples(self):
        window = SimulationWindow(side=1.645)
        rows = coverage_sweep((2.0,), 370.0, RAYLEIGH, WeightLaw.unit(), beta=0.8, reps=30,
                              seed=47, window=window)
        [(sirs, tie)] = sir_samples((2.0,), 370.0, RAYLEIGH, WeightLaw.unit(), 30, window, seed=47)
        for row in rows:
            assert row.coverage == float(np.mean(sirs[row.model] >= 0.8))
            assert row.near_tie_fraction == tie

    def test_top_ratio_rows_equal_its_own_sweep(self):
        window = SimulationWindow(side=1.645)
        args = (370.0, RAYLEIGH, WeightLaw.nearest())
        grid = coverage_sweep((0.5, 2.0), *args, beta=0.8, reps=25, seed=48, window=window)
        alone = coverage_sweep((2.0,), *args, beta=0.8, reps=25, seed=48, window=window)
        assert [r for r in grid if r.ratio == 2.0] == alone
        by_ratio = {(r.ratio, r.model): r.coverage for r in grid}
        assert by_ratio[(0.5, ALL_BS)] == by_ratio[(2.0, ALL_BS)]
        assert [r.lambda_b for r in grid if r.model == ALL_BS] == [740.0, 185.0]
