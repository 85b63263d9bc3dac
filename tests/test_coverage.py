import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voidnet import coverage
from voidnet.channel import SIGMA_IN_DB, ChannelParams, WeightLaw, shadowing_sigma2_from_db
from voidnet.coverage import (
    ALL_BS,
    MODELS,
    THINNED_PPP,
    VOID_AWARE,
    coverage_sweep,
    sample_realization,
    sir_at_typical_user,
    sir_samples,
    thinning_keep_probability,
)
from voidnet.geometry import SimulationWindow
from voidnet.pointprocess import rep_rng

RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)
SHADOWED = ChannelParams(m=1.0, mu=0.0, sigma2=shadowing_sigma2_from_db(8.0, SIGMA_IN_DB),
                         alpha=4.0)


class TestSirAtTypicalUser:
    def test_lone_station_gives_infinite_sir(self):
        [sir] = sir_at_typical_user(1.0, np.empty(0), np.ones((1, 0), dtype=bool))
        assert math.isinf(sir)

    def test_two_equidistant_unit_gains(self):
        [sir] = sir_at_typical_user(2.0**-4, np.array([2.0**-4]), np.ones((1, 1), dtype=bool))
        assert sir == pytest.approx(1.0)

    def test_masks_select_transmitters(self):
        # rows: every interferer (all-bs), the non-void one, none of them
        transmitting = np.array([[True, True], [False, True], [False, False]])
        all_bs, void_aware, thinned = sir_at_typical_user(1.0, np.array([1.0, 2.0**-4]),
                                                          transmitting)
        assert all_bs == pytest.approx(1.0 / (1.0 + 2.0**-4))
        assert void_aware == pytest.approx(1.0 / 2.0**-4)
        assert math.isinf(thinned)

    def test_unknown_model_rejected(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a replication")

        monkeypatch.setattr(coverage, "run_reps", no_draws)
        with pytest.raises(ValueError):
            sir_samples((2.0,), 370.0, RAYLEIGH, WeightLaw.nearest(), 2,
                        SimulationWindow(side=1.0), seed=45, models=(ALL_BS, "everyone"))


def record_sir_calls(monkeypatch) -> list:
    """Wrap ``sir_at_typical_user`` to keep (sir, powers, transmitting) per call."""
    calls = []

    def recorded(signal, powers, transmitting):
        sir = sir_at_typical_user(signal, powers, transmitting)
        calls.append((sir, powers, transmitting))
        return sir

    monkeypatch.setattr(coverage, "sir_at_typical_user", recorded)
    return calls


class TestSampleRealization:
    def test_serving_station_never_void(self):
        window = SimulationWindow(side=2.0)
        for r in range(5):
            rng = rep_rng(40, r)
            sir, _ = sample_realization(100.0, 50.0, RAYLEIGH, WeightLaw.nearest(),
                                        window, rng, keep_probs=(0.5,))
            # a positive, finite serving distance and a positive serving gain
            assert sir.shape == (1, len(MODELS))
            assert np.all(sir > 0.0)

    def test_no_other_users_all_interferers_void(self, monkeypatch):
        window = SimulationWindow(side=2.0)
        calls = record_sir_calls(monkeypatch)
        sample_realization(100.0, 0.0, RAYLEIGH, WeightLaw.nearest(),
                           window, rep_rng(41, 0), keep_probs=(1.0,), models=(VOID_AWARE,))
        [(sir, powers, transmitting)] = calls
        assert len(powers) > 0
        assert not transmitting.any()
        assert math.isinf(sir[0])

    def test_empty_station_draw_raises(self):
        # About 1e-9 expected stations: the one draw is empty and is not redrawn.
        with pytest.raises(ValueError, match="at least one base station"):
            sample_realization(1e-9, 50.0, RAYLEIGH, WeightLaw.nearest(),
                               SimulationWindow(side=1.0), rep_rng(42, 0), keep_probs=(1.0,))


class TestSirSamples:
    def test_replication_r_runs_on_rep_rng_stream_r(self):
        law = WeightLaw.unit()
        window = SimulationWindow(side=2.0)
        [(sirs, tie)] = sir_samples((2.0,), 200.0, RAYLEIGH, law, 4, window, seed=43)
        keep_prob = thinning_keep_probability(100.0, 200.0, RAYLEIGH, law)
        ties = []
        for r in range(4):
            sir, [t] = sample_realization(100.0, 200.0, RAYLEIGH, law, window,
                                          rep_rng(43, r), (keep_prob,))
            ties.append(t)
            for k, m in enumerate(MODELS):
                assert sirs[m][r] == sir[0, k]
        assert tie == float(np.mean(ties))

    @pytest.mark.parametrize("law, expected, ties", [
        (WeightLaw.nearest(), [
            {ALL_BS: [0.3722152242519158, 0.045878329197481665, 3542.048222057016],
             VOID_AWARE: [63.7225030003755, 0.10531540365407917, 9577.955793902338],
             THINNED_PPP: [1.7473809291409528, 0.1299918526945605, 5596.5181963323075]},
            {ALL_BS: [0.3722152242519158, 0.045878329197481665, 3542.048222057016],
             VOID_AWARE: [0.6371720743481154, 0.04826914586003247, 4915.027555270401],
             THINNED_PPP: [0.3742140037422027, 0.05541954762511407, 3918.653491179632]},
        ], [0.004976504976504976, 0.004886857345618706]),
        (WeightLaw.unit(), [
            {ALL_BS: [2.9050486784110636, 0.06721122131168479, 1.1235963340657762],
             VOID_AWARE: [18.98603726134729, 0.08669388602279667, 1.392610831805071],
             THINNED_PPP: [9.242895467631614, 0.07083888954845145, 1.277199336575612]},
            {ALL_BS: [2.9050486784110636, 0.06721122131168479, 1.1235963340657762],
             VOID_AWARE: [5.46751739782113, 0.08273325029965438, 1.1326787935527576],
             THINNED_PPP: [2.9376494764324894, 0.06739289778557984, 1.134705580079969]},
        ], [0.009617678909017493, 0.0041754960077966434]),
    ], ids=["nearest", "unit"])
    def test_sir_bits_pinned(self, law, expected, ties):
        # Exact SIRs of the typical user at 8 dB shadowing, so a change that
        # moves any draw or regroups a sum shows here, not only in a coverage
        # fraction.
        out = sir_samples((0.5, 2.0), 370.0, SHADOWED, law, 3, SimulationWindow(side=1.2),
                          seed=49)
        assert [{m: v.tolist() for m, v in sirs.items()} for sirs, _ in out] == expected
        assert [tie for _, tie in out] == ties


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
        sirs = np.concatenate([
            sample_realization(150.0, 0.0, RAYLEIGH, WeightLaw.nearest(), window,
                               rep_rng(44, r), keep_probs=(1.0,), models=(VOID_AWARE,))[0]
            for r in range(20)
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
        assert {r["model"] for r in rows} == set(MODELS)
        for r in rows:
            assert r["ci_low"] <= r["coverage"] <= r["ci_high"]
            assert r["lambda_b"] == pytest.approx(185.0)


class TestCoupledSweep:
    """One association per replication serves every ratio of the grid."""

    @given(st.integers(0, 10_000),
           st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4).map(sorted))
    def test_one_draw_across_ratios(self, seed, retain):
        retain = retain + [1.0]
        keep_probs = [0.3] * len(retain)
        with pytest.MonkeyPatch.context() as mp:
            calls = record_sir_calls(mp)
            sir, _ = sample_realization(185.0, 370.0, RAYLEIGH, WeightLaw.unit(),
                                        SimulationWindow(side=1.2), rep_rng(seed, 0), keep_probs,
                                        retain, models=(ALL_BS, VOID_AWARE))
        all_bs, void_aware = sir.T
        assert len(set(all_bs)) == 1
        assert all(v >= a for v, a in zip(void_aware, all_bs))
        # kept users at a lower ratio are a subset of those at a higher one
        assert all(a >= b for a, b in zip(void_aware, void_aware[1:]))
        nonvoid = calls[1][2]
        assert all(np.all(a <= b) for a, b in zip(nonvoid, nonvoid[1:]))

    def test_single_ratio_equals_sir_samples(self):
        window = SimulationWindow(side=1.645)
        rows = coverage_sweep((2.0,), 370.0, RAYLEIGH, WeightLaw.unit(), beta=0.8, reps=30,
                              seed=47, window=window)
        [(sirs, tie)] = sir_samples((2.0,), 370.0, RAYLEIGH, WeightLaw.unit(), 30, window, seed=47)
        for row in rows:
            assert row["coverage"] == float(np.mean(sirs[row["model"]] >= 0.8))
            assert row["near_tie_fraction"] == tie

    def test_top_ratio_rows_equal_its_own_sweep(self):
        window = SimulationWindow(side=1.645)
        args = (370.0, RAYLEIGH, WeightLaw.nearest())
        grid = coverage_sweep((0.5, 2.0), *args, beta=0.8, reps=25, seed=48, window=window)
        alone = coverage_sweep((2.0,), *args, beta=0.8, reps=25, seed=48, window=window)
        assert [r for r in grid if r["ratio"] == 2.0] == alone
        by_ratio = {(r["ratio"], r["model"]): r["coverage"] for r in grid}
        assert by_ratio[(0.5, ALL_BS)] == by_ratio[(2.0, ALL_BS)]
        assert [r["lambda_b"] for r in grid if r["model"] == ALL_BS] == [740.0, 185.0]
