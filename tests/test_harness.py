import argparse
import csv
import dataclasses
import json
import math
import typing
import warnings

import numpy as np
import pytest

import voidnet.cli
from voidnet import harness
from voidnet.analytics import EstimateWithCI, void_prob_rca
from voidnet.channel import zeta_dagger
from voidnet.cli import _build_parser, _config_from_args, main as cli_main
from voidnet.harness import (
    ConfigError,
    ExperimentConfig,
    auto_side,
    auto_window,
    parse_mark_law,
    parse_weight_law,
    run,
    suggested_reps,
    validate,
)


def fatal(diags):
    return [d for d in diags if not d.startswith("warning:")]


FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


class ReadSpy(ExperimentConfig):
    """An ExperimentConfig that records which of its fields are read."""

    def __getattribute__(self, name):
        if name in FIELDS:
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return super().__getattribute__(name)


def _float_field_cases():
    """(field, value) for every float-valued config field and each edge value."""
    hints = typing.get_type_hints(ExperimentConfig)
    for f in dataclasses.fields(ExperimentConfig):
        options = typing.get_args(hints[f.name]) or (hints[f.name],)
        if float in options:
            wrap = float
        elif tuple[float, ...] in options:
            wrap = lambda v: (v,)
        else:
            continue
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            yield pytest.param(f.name, wrap(value), id=f"{f.name}={value}")


class TestValidate:
    def test_clean_config(self):
        cfg = ExperimentConfig(experiment="void-prob")
        assert validate(cfg) == []

    def test_divergent_zeta_diagnostic(self):
        cfg = ExperimentConfig(experiment="void-prob", law="unit", m=0.4, alpha=4.0)
        diags = validate(cfg)
        assert any("zeta-dagger divergent" in d for d in diags)
        assert fatal(diags) == []  # advisory, still runnable

    def test_no_base_stations(self):
        cfg = ExperimentConfig(experiment="void-prob", lambda_b=0.0)
        assert any("no base stations" in d for d in fatal(validate(cfg)))

    def test_divergent_zeta_warns_only_where_the_channel_is_read(self):
        divergent = dict(law="unit", m=0.4)
        # bounds-check draws its own channel per set
        assert validate(ExperimentConfig(experiment="bounds-check", **divergent)) == [
            "warning: bounds-check ignores m 0.4", "warning: bounds-check ignores law unit"]
        [diag] = validate(ExperimentConfig(experiment="void-prob", **divergent))
        assert diag.startswith("warning: zeta-dagger divergent")

    @pytest.mark.parametrize("experiment", ["void-prob", "cell-pmf", "coverage", "remark2",
                                            "bounds-check", "conservation-check"])
    def test_fixed_count_experiments_warn_half_width_ignored(self, experiment):
        # An explicit reps runs once, so no experiment reads half_width then
        # and none suggests a count; bounds-check and conservation-check read
        # no ratio grid either
        grid = None if experiment in ("bounds-check", "conservation-check") else (2.0,)
        cfg = dict(experiment=experiment, ratio_grid=grid, reps=3)
        assert validate(ExperimentConfig(**cfg)) == []  # the default half-width says nothing
        assert validate(ExperimentConfig(half_width=0.01, **cfg)) == [
            f"warning: {experiment} ignores half_width 0.01"]

    def test_undersized_window(self):
        cfg = ExperimentConfig(experiment="void-prob", ratio_grid=(2.0,), side=0.5)
        assert any("expected counts below" in d for d in validate(cfg))

    @pytest.mark.parametrize("cfg", [
        dict(experiment="formulas", side=1.0),  # draws no window
        dict(experiment="conservation-check", side=2.0, reps=2),
        dict(experiment="bounds-check", side=3.0, reps=2),  # 555 stations at ratio 6
    ])
    def test_only_drawn_windows_are_judged(self, cfg):
        # formulas reads no side: its side is an ignored field, not a window
        expected = ["warning: formulas ignores side 1.0"] if cfg["experiment"] == "formulas" else []
        assert validate(ExperimentConfig(**cfg)) == expected

    def test_bounds_check_judged_at_its_own_top_ratio(self):
        [warning] = validate(ExperimentConfig(experiment="bounds-check", side=2.0, reps=2))
        assert "expected counts below 500" in warning
        assert "at ratio 6.0" in warning and "at ratio 8.0" not in warning

    def test_unknown_experiment(self):
        cfg = ExperimentConfig(experiment="tea-leaves")
        assert fatal(validate(cfg))

    def test_bad_alpha(self):
        cfg = ExperimentConfig(experiment="formulas", alpha=2.0)
        assert any("path-loss" in d for d in fatal(validate(cfg)))

    @pytest.mark.parametrize("grid", ["-1", "0", "1,nan", "inf"])
    def test_bad_ratio_grid(self, grid, capsys):
        ratios = tuple(float(r) for r in grid.split(","))
        cfg = ExperimentConfig(experiment="void-prob", ratio_grid=ratios, side=2.0, reps=4)
        assert any("ratio grid" in d for d in fatal(validate(cfg)))
        assert cli_main(["validate", "--ratio-grid", grid, "--side", "2"]) == 2
        assert "configuration ok" not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_half_width(self, value, capsys):
        cfg = ExperimentConfig(experiment="void-prob", half_width=float(value), reps=4)
        assert any("half-width" in d for d in fatal(validate(cfg)))
        assert cli_main(["validate", "--half-width", value, "--reps", "4"]) == 2
        assert "configuration ok" not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_side(self, value, capsys):
        cfg = ExperimentConfig(experiment="void-prob", side=float(value), reps=4)
        assert any("window side" in d for d in fatal(validate(cfg)))
        assert cli_main(["validate", "--side", value, "--reps", "4"]) == 2
        assert "configuration ok" not in capsys.readouterr().out

    def test_unparsable_side_from_config_file(self):
        cfg = ExperimentConfig(experiment="void-prob", side="abc", reps=4)
        assert any("window side" in d for d in fatal(validate(cfg)))

    @pytest.mark.parametrize("field,value", list(_float_field_cases()))
    def test_float_field_rejected_or_runs(self, field, value, tmp_path):
        # Every float field's edge value is either a diagnostic or harmless.
        cfg = ExperimentConfig(experiment="formulas", out=str(tmp_path / "f.csv"),
                               **{field: value})
        if not fatal(validate(cfg)):
            run(cfg)

    def test_huge_shadowing_is_a_warning(self):
        cfg = ExperimentConfig(experiment="void-prob", law="unit", sigma2_ln=1e4)
        assert any("zeta-dagger divergent" in d for d in validate(cfg))
        assert fatal(validate(cfg)) == []

    def test_fatal_config_gets_no_warning(self):
        cfg = ExperimentConfig(experiment="void-prob", ratio_grid=(2.0,), reps=0)
        assert validate(cfg) == ["reps must be >= 1"]

    @pytest.mark.parametrize("experiment", ["cell-pmf", "remark2"])
    def test_one_ratio_experiments_reject_a_grid(self, experiment):
        assert fatal(validate(ExperimentConfig(experiment=experiment, ratio_grid=(0.5, 8.0))))
        # with neither a grid nor lambda_b the default grid is not run as its first ratio
        assert fatal(validate(ExperimentConfig(experiment=experiment)))
        assert validate(ExperimentConfig(experiment=experiment, ratio_grid=(0.5,))) == []

    @pytest.mark.parametrize("experiment, grid", [
        ("void-prob", (1e-6,)), ("cell-pmf", (1e-6,)), ("remark2", (1e-6,)),
        ("coverage", (0.5, 1e6)),
    ])
    def test_window_too_large_to_draw(self, experiment, grid):
        # 5e8 stations, or 5e8 users, in one replication's window: refused, never drawn.
        [diag] = validate(ExperimentConfig(experiment=experiment, ratio_grid=grid, reps=2))
        assert "at most 1,000,000" in diag
        assert fatal([diag])

    def test_bounds_check_window_too_large_to_draw(self):
        # At ratio 0.3 a 1000 km side expects 1.2e9 stations: refused, never drawn.
        diags = validate(ExperimentConfig(experiment="bounds-check", side=1000.0, reps=2))
        assert any("at ratio 0.3" in d and "at most 1,000,000" in d for d in fatal(diags))

    @pytest.mark.parametrize("experiment, grid, accepted, refused", [
        ("void-prob", (2.0,), 0.5, 0.46), ("remark2", (0.5,), 0.39, 0.37),
        ("bounds-check", (1.0,), 0.82, 0.8),
    ])
    def test_window_station_floor(self, experiment, grid, accepted, refused):
        # Just over and just under 40 expected stations (remark2: non-void ones;
        # bounds-check: at its largest ratio, 6).
        def diags(side):
            return fatal(validate(ExperimentConfig(experiment=experiment, ratio_grid=grid,
                                                   side=side, reps=2)))
        assert diags(accepted) == []
        [diag] = diags(refused)
        assert "at least 40 are needed" in diag

    def test_window_too_large_exits_before_any_draw(self, capsys):
        assert cli_main(["void-prob", "--ratio-grid", "1e-9", "--reps", "2"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_two_shadowing_specs_rejected(self):
        cfg = ExperimentConfig(experiment="formulas", sigma_db=8.0, sigma2_db=8.0)
        assert any("exactly one way" in d for d in validate(cfg))


class TestSizing:
    def test_auto_side_guarantees_counts(self):
        side = auto_side(185.0, 370.0)
        assert 185.0 * side * side >= 500.0
        assert 370.0 * side * side >= 500.0

    def test_auto_window_uses_sparser_process(self):
        assert auto_window(46.25, 370.0).side == pytest.approx(math.sqrt(500.0 / 46.25), abs=1e-3)

    def test_suggested_reps_scales_inversely_with_half_width(self):
        a = suggested_reps(0.2, 500.0, 0.005)
        b = suggested_reps(0.2, 500.0, 0.01)
        assert a >= 4 * b - 4

    def test_suggested_reps_floor(self):
        assert suggested_reps(0.01, 5000.0, 0.05) >= 8


class TestParsers:
    def test_weight_laws(self):
        assert parse_weight_law("nearest").kind == "nearest"
        assert parse_weight_law("unit").kind == "unit"
        law = parse_weight_law("lognormal:0.5,1.5")
        assert law.kind == "lognormal" and law.mu_w == 0.5 and law.sigma2_w == 1.5
        with pytest.raises(ConfigError):
            parse_weight_law("lognormal:oops")
        with pytest.raises(ConfigError):
            parse_weight_law("strongest")

    def test_mark_laws(self):
        cfg = ExperimentConfig(experiment="conservation-check")
        cp = cfg.channel_params()
        law = cfg.weight_law()
        sampler, mean_inv_sq = parse_mark_law("deterministic:2", cp, law)
        assert mean_inv_sq == 0.25
        assert np.all(sampler(np.random.default_rng(0), 5) == 2.0)
        _, m2 = parse_mark_law("lognormal:0.0,0.25", cp, law)
        assert m2 == pytest.approx(math.exp(0.5))
        sampler3, m3 = parse_mark_law("channel", cp, law)
        assert m3 == 1.0  # nearest law: WH = 1
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.all(sampler3(rng, 5) == 1.0)
        assert rng.bit_generator.state == state  # no gains drawn only to be discarded
        for bad in ("cauchy", "lognormal:0", "lognormal:a,b", "lognormal:0,nan",
                    "lognormal:0,1000", "deterministic:abc", "deterministic:inf"):
            with pytest.raises(ConfigError):
                parse_mark_law(bad, cp, law)

    def test_config_values_read_as_declared_types(self):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "void-prob", "lambda_u": 370, "ratio_grid": [1, 2.5], "reps": None,
             "side": "auto"})
        assert cfg.lambda_u == 370.0 and isinstance(cfg.lambda_u, float)
        assert cfg.ratio_grid == (1.0, 2.5) and cfg.reps is None and cfg.side == "auto"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_mapping({"experiment": "void-prob", "seed": True, "m": "1",
                                           "ratio_grid": "1,2", "law": 3, "lambda_b": [1.0]})
        assert len(exc.value.diagnostics) == 5

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"experiment": "formulas", "lambda_bee": 1.0})


class TestRunExperiments:
    def test_formulas_deterministic_bytes(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = ExperimentConfig(experiment="formulas", ratio_grid=(0.5, 1.0, 2.0),
                               law="unit", out=str(out))
        run(cfg)
        first = out.read_bytes()
        run(cfg)
        assert out.read_bytes() == first

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_repeat_runs_identical(self, experiment, tmp_path):
        tiny = {
            "void-prob": dict(ratio_grid=(2.0,), reps=4, half_width=0.05),
            "cell-pmf": dict(ratio_grid=(1.0,), reps=3),
            "bounds-check": dict(sets=2, reps=2),
            "conservation-check": dict(lambda_b=100.0, reps=5, mark_law="channel",
                                       law="lognormal:0,1"),
            "remark2": dict(ratio_grid=(0.5,), reps=2, n_envelope=39),
            "coverage": dict(ratio_grid=(2.0,), reps=5),
            "formulas": dict(ratio_grid=(0.5, 2.0)),
        }
        out = tmp_path / "a.csv"
        cfg = ExperimentConfig(experiment=experiment, seed=9, out=str(out), **tiny[experiment])
        run(cfg)
        first = out.read_bytes()
        run(cfg)
        assert out.read_bytes() == first

    # The tiny configs of test_repeat_runs_identical, an auto-rep case per
    # experiment that runs to a half-width, and a lambda_b case per
    # experiment that reads the ratio.
    SPIED = {
        "void-prob": [dict(ratio_grid=(2.0,), reps=4, half_width=0.05),
                      dict(ratio_grid=(2.0,), half_width=0.05), dict(lambda_b=185.0, reps=2)],
        "cell-pmf": [dict(ratio_grid=(1.0,), reps=3), dict(ratio_grid=(1.0,), half_width=0.05),
                     dict(lambda_b=370.0, reps=2)],
        "bounds-check": [dict(sets=2, reps=2)],
        "conservation-check": [dict(lambda_b=100.0, reps=5, mark_law="channel",
                                    law="lognormal:0,1")],
        "remark2": [dict(ratio_grid=(0.5,), reps=2, n_envelope=39),
                    dict(lambda_b=740.0, reps=2, n_envelope=39)],
        "coverage": [dict(ratio_grid=(2.0,), reps=5), dict(lambda_b=185.0, reps=5)],
        "formulas": [dict(ratio_grid=(0.5, 2.0)), dict(lambda_b=185.0)],
    }

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_each_body_reads_exactly_its_declared_fields(self, experiment):
        spec = harness._EXPERIMENTS[experiment]
        union = set(harness._READ_BY_ALL)
        for extra in self.SPIED[experiment]:
            config = ReadSpy(experiment=experiment, seed=9, **extra)
            assert fatal(validate(config)) == []
            object.__getattribute__(config, "__dict__").pop("_read", None)
            spec.body(config)
            read = object.__getattribute__(config, "__dict__")["_read"]
            assert read <= spec.reads, f"{extra}: undeclared {sorted(read - spec.reads)}"
            union |= read
        assert union == spec.reads, f"declared, never read: {sorted(spec.reads - union)}"

    def test_void_prob_passes_half_width_for_auto_reps(self, tmp_path, monkeypatch):
        calls = []

        def fake_sweep(ratios, *args, half_width=None):
            calls.append(half_width)
            return [EstimateWithCI(value=0.2, ci_low=0.19, ci_high=0.21, reps=123)
                    for _ in ratios]

        monkeypatch.setattr(harness, "void_probability_sweep", fake_sweep)
        out = tmp_path / "a.csv"
        run(ExperimentConfig(experiment="void-prob", ratio_grid=(2.0,), half_width=0.01,
                             out=str(out)))
        run(ExperimentConfig(experiment="void-prob", ratio_grid=(2.0,), reps=4,
                             half_width=0.01, out=str(tmp_path / "b.csv")))
        assert calls == [0.01, None]  # a fixed rep count is run as given
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["reps"] == "123"  # the realized count, not the first batch

    @pytest.mark.parametrize("experiment,extra,expected", [
        ("void-prob", dict(reps=3), [
            "ratio,lambda_b,lambda_u,side,reps,p_void_sim,ci_low,ci_high,p_void_nearest_formula,"
            "p_void_rca_formula,bound_low,bound_high",
            "2.0,185.0,370.0,1.644,3,0.23659517426273458,0.21572397724686543,0.25881926704877384,"
            "0.20557426301997803,0.20557426301997803,0.1353352832366127,0.33333333333333337",
        ]),
        ("coverage", dict(reps=20, law="unit", sigma_db=8.0), [
            "ratio,lambda_b,model,beta,coverage,ci_low,ci_high,reps,near_tie_fraction",
            "2.0,185.0,all-bs,0.8,0.8,0.5839825677481064,0.919342337420202,20,"
            "0.0047689091971373845",
            "2.0,185.0,void-aware,0.8,0.8,0.5839825677481064,0.919342337420202,20,"
            "0.0047689091971373845",
            "2.0,185.0,thinned-ppp,0.8,0.8,0.5839825677481064,0.919342337420202,20,"
            "0.0047689091971373845",
        ]),
        ("coverage", dict(ratio_grid=(0.5, 2.0), reps=10), [
            "ratio,lambda_b,model,beta,coverage,ci_low,ci_high,reps,near_tie_fraction",
            "0.5,740.0,all-bs,0.8,0.8,0.49016247153664183,0.9433178485456247,10,0.005903901622267381",
            "0.5,740.0,void-aware,0.8,1.0,0.7224672001371107,0.9999999999999999,10,"
            "0.005903901622267381",
            "0.5,740.0,thinned-ppp,0.8,0.9,0.5958499732047615,0.9821237869049271,10,"
            "0.005903901622267381",
            "2.0,185.0,all-bs,0.8,0.8,0.49016247153664183,0.9433178485456247,10,0.004576731706334743",
            "2.0,185.0,void-aware,0.8,0.8,0.49016247153664183,0.9433178485456247,10,"
            "0.004576731706334743",
            "2.0,185.0,thinned-ppp,0.8,0.8,0.49016247153664183,0.9433178485456247,10,"
            "0.004576731706334743",
        ]),
        ("remark2", dict(reps=3, n_envelope=39), [
            "r,k_hat,lo,hi,pi_r_sq,exit_rate",
            "0.03288,0.002254592652905015,0.0028178184973300558,"
            "0.004054145536289875,0.0033963582248770652,1.0",
            "0.052781052631578944,0.006773618731936677,0.00770287418115795,"
            "0.009993633578513706,0.008751972960365345,1.0",
            "0.07268210526315788,0.013291713343738682,0.01523210758506777,"
            "0.018342690777822544,0.01659605514870676,1.0",
            "0.09258315789473684,0.023030693378295414,0.02537335132999142,"
            "0.029027355372193718,0.026928604789901327,1.0",
            "0.11248421052631577,0.03610562040072419,0.03764171243274852,"
            "0.04189926951319649,0.03974962188394902,1.0",
            "0.13238526315789473,0.05130666363021744,0.0524216847164167,"
            "0.05739951494984826,0.055059106430849866,1.0",
            "0.15228631578947366,0.06874441066642163,0.07046664778037182,"
            "0.07591377633817217,0.07285705843060383,1.0",
            "0.17218736842105262,0.08875351545727544,0.09023330690761479,"
            "0.09663391750921349,0.09314347788321098,0.6666666666666666",
            "0.19208842105263155,0.11187223360700237,0.11230807600974732,"
            "0.11999467083089001,0.11591836478867121,0.6666666666666666",
            "0.21198947368421048,0.1369246738305653,0.13702202646699463,"
            "0.14527815307933817,0.1411817191469846,0.6666666666666666",
            "0.23189052631578944,0.1649437436229004,0.1645931496922839,"
            "0.17332387315740966,0.16893354095815113,0.3333333333333333",
            "0.2517915789473684,0.19534804417763307,0.19526749297151497,"
            "0.2043826645972374,0.19917383022217086,0.6666666666666666",
            "0.27169263157894735,0.2273743146483791,0.22739213737471412,"
            "0.2374395872345364,0.2319025869390437,0.6666666666666666",
            "0.2915936842105263,0.2629963931482772,0.2627284509432804,"
            "0.27326509928343745,0.2671198111087696,0.6666666666666666",
            "0.31149473684210527,0.30113467682807454,0.2995749261731002,"
            "0.3124067695771528,0.3048255027313488,0.0",
            "0.3313957894736842,0.34093746037783784,0.33943477227240204,"
            "0.3505470657666388,0.345019661806781,0.0",
            "0.35129684210526313,0.3839126810845556,0.38295372539775174,"
            "0.3944528466122801,0.38770228833506637,0.3333333333333333",
            "0.37119789473684206,0.43116481197277806,0.4267920026512166,"
            "0.44083811346826346,0.43287338231620487,0.0",
            "0.391098947368421,0.4785995783769932,0.4756187662969963,"
            "0.487373651835184,0.4805329437501965,0.0",
            "0.411,0.5291792528905174,0.52443966593627,"
            "0.5394645095637467,0.5306809726370414,0.0",
        ]),
        ("void-prob", dict(reps=3, law="unit", sigma_db=8.0), [
            "ratio,lambda_b,lambda_u,side,reps,p_void_sim,ci_low,ci_high,"
            "p_void_nearest_formula,p_void_rca_formula,bound_low,bound_high",
            "2.0,185.0,370.0,1.644,3,0.1675603217158177,0.14892219260203088,"
            "0.18801576540939546,0.20557426301997803,0.15586870717347598,0.1353352832366127,"
            "0.20263509178460828",
        ]),
        ("void-prob", dict(reps=3, law="lognormal:0,4", sigma_db=8.0), [
            "ratio,lambda_b,lambda_u,side,reps,p_void_sim,ci_low,ci_high,"
            "p_void_nearest_formula,p_void_rca_formula,bound_low,bound_high",
            "2.0,185.0,370.0,1.644,3,0.15884718498659517,0.14117868606580006,"
            "0.1782679076911475,0.20557426301997803,0.14301561802176807,0.1353352832366127,"
            "0.16157390105338543",
        ]),
        ("cell-pmf", dict(reps=3), [
            "n_users,p_sim,ci_low,ci_high,p_formula",
            "0,0.23659517426273458,0.21572397724686543,0.25881926704877384,0.20557426301997803",
            "1,0.23257372654155495,0.19316942769339998,0.27725391022600726,0.26163997111633613",
            "2,0.19168900804289543,0.1725173566424482,0.21244420156618807,0.2140690672770024",
            "3,0.153485254691689,0.136086949819732,0.17266332321040925,0.14271271151800222",
            "4,0.0938337801608579,0.07709124895124027,0.11376420995681981,0.08433023862427308",
            "5,0.05294906166219839,0.04269115659892839,0.06550310280359428,0.04599831197687644",
            "6,0.01742627345844504,0.011919586181133864,0.02541154840629691,"
            "0.02369610010930023",
            "7,0.013404825737265416,0.00869416822901328,0.020614725813312754,"
            "0.011694179274719507",
            "8,0.004691689008042895,0.0017205119223334129,0.012728413404283732,"
            "0.005581312835661548",
            "9,0.0020107238605898124,0.0006730518056051278,0.0059910441010609826,"
            "0.0025933372771760853",
            "10,0.0006702412868632708,0.00011558481510201232,0.0038762077275422717,"
            "0.0011787896714436845",
            "11,0.0,0.0,0.002568092225310222,0.0005260714236194983",
            "12,0.0006702412868632708,0.000118323844169539,0.0037868084719914737,"
            "0.0002311525952267507",
        ]),
        ("bounds-check", dict(sets=3, reps=2), [
            "set,law,m,alpha,sigma2_ln,mu,ratio,reps,p_void_sim,se,bound_low,bound_high,"
            "p_void_rca_formula,within_bounds",
            "0,lognormal,3.413428503830402,4.607789638475278,1.1529492844104883,"
            "0.3884684704163326,3.8777232911431367,2,0.0562685093780849,0.010122193531052391,"
            "0.02069789465972237,0.1506933401444389,0.055839983908830985,1",
            "1,unit,3.9634434809951884,3.5366416856402623,0.760646802775454,"
            "-0.3503779634217278,4.295285649699199,2,0.047926267281105994,0.011391110725142603,"
            "0.01363267697096835,0.14037653723069726,0.04580088513766978,1",
            "2,unit,3.4208448708898453,4.315095384830345,1.1598299162266736,"
            "-0.4465213059127674,5.10620226272273,2,0.02786377708978328,0.0053617502428778,"
            "0.006059049964516836,0.11813635912155523,0.030675521218456975,1",
        ]),
        ("conservation-check", dict(reps=3, mark_law="deterministic:2"), [
            "suite,n_mapped,chi2,dof,p_value",
            "0,1053,29.64482431149098,24,0.3936073426608799",
            "1,952,21.581932773109244,24,0.7915917584737958",
            "2,1004,22.294820717131476,24,0.8766500922597852",
        ]),
        ("conservation-check", dict(reps=3, mark_law="channel", law="unit", sigma_db=8.0), [
            "suite,n_mapped,chi2,dof,p_value",
            "0,963,28.355140186915886,24,0.4906920314422486",
            "1,1029,31.9086491739553,24,0.25854845593947157",
            "2,977,16.321392016376663,24,0.2477449159633911",
        ]),
        ("formulas", dict(), [
            "ratio,lambda_b,lambda_u,zeta_dagger,rho,p_void_nearest,p_void_rca,bound_low,"
            "bound_high",
            "2.0,185.0,370.0,1.0,3.5,0.20557426301997803,0.20557426301997803,"
            "0.1353352832366127,0.33333333333333337",
        ]),
        ("formulas", dict(law="unit", m=0.5), [
            "ratio,lambda_b,lambda_u,zeta_dagger,rho,p_void_nearest,p_void_rca,bound_low,"
            "bound_high",
            "2.0,185.0,370.0,inf,inf,0.20557426301997803,0.1353352832366127,0.1353352832366127,"
            "0.1353352832366127",
        ]),
    ], ids=["void-prob", "coverage", "coverage-two-ratio", "remark2", "void-prob-unit",
            "void-prob-lognormal", "cell-pmf", "bounds-check", "conservation-deterministic",
            "conservation-channel", "formulas", "formulas-divergent"])
    def test_single_ratio_rows_pinned(self, experiment, extra, expected, tmp_path):
        # A one-ratio grid is drawn as it was before grids shared a draw; the
        # two-ratio case pins the coupled coverage path, the remark2 case
        # pins Ripley's K and its envelope, and the unit and lognormal
        # void-prob cases pin the thinned association kernel.
        out = tmp_path / "a.csv"
        run(ExperimentConfig(experiment=experiment, out=str(out), **{"ratio_grid": (2.0,), **extra}))
        assert [l for l in out.read_text().splitlines() if not l.startswith("#")] == expected

    def test_wide_grid_meets_half_width_well_inside_the_cap(self, tmp_path):
        out = tmp_path / "a.json"
        grid = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
        run(ExperimentConfig(experiment="void-prob", ratio_grid=grid, fmt="json", out=str(out)))
        payload = json.loads(out.read_text())
        meta, rows = payload["metadata"], payload["rows"]
        assert meta["result.r_top"] == 20.0
        assert meta["result.side_top"] == auto_side(370.0 / 20.0, 370.0)
        assert meta["result.batches"] <= 8  # the cap is MAX_SEQUENTIAL_BATCHES = 16
        assert [r["ratio"] for r in rows] == list(grid)
        for row in rows:
            assert row["reps"] == meta["result.reps"]
            assert (row["ci_high"] - row["ci_low"]) / 2.0 <= 0.005
            # the equivalent window holds the draw's expected station count
            assert row["lambda_b"] * row["side"] ** 2 == pytest.approx(
                370.0 / 20.0 * meta["result.side_top"] ** 2)

    def test_coverage_ratio_from_intensities(self, tmp_path):
        out = tmp_path / "a.json"
        run(ExperimentConfig(experiment="coverage", lambda_b=185.0, reps=5, model="void-aware",
                             fmt="json", out=str(out)))
        assert [r["ratio"] for r in json.loads(out.read_text())["rows"]] == [2.0]

    def test_coverage_metadata(self, tmp_path):
        out = tmp_path / "a.json"
        run(ExperimentConfig(experiment="coverage", ratio_grid=(0.5, 4.0), reps=5, fmt="json",
                             out=str(out)))
        meta = json.loads(out.read_text())["metadata"]
        assert (meta["result.r_top"], meta["result.reps"], meta["result.batches"]) == (4.0, 5, 1)
        assert meta["result.side_top"] == auto_side(370.0 / 4.0, 370.0)

    # A law under 8 dB shadowing, and a divergent zeta-dagger, whose guess is
    # the Jensen floor exp(-ratio) of the p_void_rca_formula column.
    FIRST_BATCH_LAWS = {"unit-8db": dict(law="unit", sigma_db=8.0),
                        "unit-divergent": dict(law="unit", m=0.4)}

    @staticmethod
    def _expected_batch(config, r_top):
        """suggested_reps on the gamma-area void guess at r_top, in its auto window."""
        zd = zeta_dagger(config.channel_params(), config.weight_law())
        lambda_b = config.lambda_u / r_top
        area = auto_window(lambda_b, config.lambda_u).sampling_area()
        guess = void_prob_rca(config.lambda_u, lambda_b, 3.5 * zd)
        return suggested_reps(guess, lambda_b * area, config.half_width)

    @pytest.mark.parametrize("law", FIRST_BATCH_LAWS)
    def test_first_batch_is_suggested_reps_on_the_void_guess(self, law, tmp_path, monkeypatch):
        calls = []

        def fake_sweep(ratios, *args, half_width=None):
            calls.append((args[3], half_width))
            return [EstimateWithCI(value=0.2, ci_low=0.19, ci_high=0.21, reps=args[3])
                    for _ in ratios]

        monkeypatch.setattr(harness, "void_probability_sweep", fake_sweep)
        config = ExperimentConfig(experiment="void-prob", ratio_grid=(0.5, 2.0),
                                  out=str(tmp_path / "a.csv"), **self.FIRST_BATCH_LAWS[law])
        run(config)
        assert calls == [(self._expected_batch(config, 2.0), 0.005)]

    @pytest.mark.parametrize("law", FIRST_BATCH_LAWS)
    def test_cell_pmf_first_batch_is_suggested_reps_on_the_void_guess(self, law, tmp_path,
                                                                       monkeypatch):
        calls = []

        def fake_mc(*args, half_width=None):
            calls.append((args[4], half_width))
            return [EstimateWithCI(value=0.2, ci_low=0.19, ci_high=0.21, reps=args[4])], 2.0

        monkeypatch.setattr(harness, "cell_count_pmf_mc", fake_mc)
        config = ExperimentConfig(experiment="cell-pmf", ratio_grid=(2.0,),
                                  out=str(tmp_path / "a.csv"), **self.FIRST_BATCH_LAWS[law])
        run(config)
        assert calls == [(self._expected_batch(config, 2.0), 0.005)]

    def test_cell_pmf_mean_and_reps_pinned(self, tmp_path):
        # The pinned rows leave out the mean users per cell, which the
        # metadata reports; same config as the pinned cell-pmf rows.
        out = tmp_path / "a.json"
        run(ExperimentConfig(experiment="cell-pmf", ratio_grid=(2.0,), reps=3, fmt="json",
                             out=str(out)))
        meta = json.loads(out.read_text())["metadata"]
        assert (meta["result.mean_users_per_cell"], meta["result.reps"]) == (1.9852546916890081, 3)

    def test_cell_pmf_zero_bin_is_void_prob_estimate(self, tmp_path):
        # Both auto-rep runs size their first batch alike (gamma-area guess
        # at rho = 3.5 zeta-dagger), so the n = 0 bin reproduces void-prob's
        # estimate and realized count under a non-nearest law too.
        base = dict(law="unit", sigma_db=8.0, ratio_grid=(2.0,), half_width=0.01, fmt="json")
        run(ExperimentConfig(experiment="void-prob", out=str(tmp_path / "v.json"), **base))
        run(ExperimentConfig(experiment="cell-pmf", out=str(tmp_path / "c.json"), **base))
        [void] = json.loads((tmp_path / "v.json").read_text())["rows"]
        pmf = json.loads((tmp_path / "c.json").read_text())
        zero = pmf["rows"][0]
        assert zero["n_users"] == 0
        assert (zero["p_sim"], zero["ci_low"], zero["ci_high"]) == (
            void["p_void_sim"], void["ci_low"], void["ci_high"])
        assert pmf["metadata"]["result.reps"] == void["reps"]

    def test_cell_pmf_passes_half_width_for_auto_reps(self, tmp_path, monkeypatch):
        calls = []
        real_mc = harness.cell_count_pmf_mc

        def spy_mc(*args, half_width=None):
            calls.append((args[4], half_width))
            return real_mc(*args, half_width=half_width)

        monkeypatch.setattr(harness, "cell_count_pmf_mc", spy_mc)
        out = tmp_path / "a.csv"
        run(ExperimentConfig(experiment="cell-pmf", ratio_grid=(8.0,), seed=104, out=str(out)))
        run(ExperimentConfig(experiment="cell-pmf", ratio_grid=(8.0,), seed=104, reps=4,
                             out=str(tmp_path / "b.csv")))
        assert calls == [(13, 0.005), (4, None)]  # a fixed rep count is run as given
        text = out.read_text()
        assert "# result.reps=26" in text  # the realized count, not the first batch
        assert "# result.batches=2" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (float(row["ci_high"]) - float(row["ci_low"])) / 2.0 <= 0.005

    def test_metadata_echo_in_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        run(ExperimentConfig(experiment="formulas", ratio_grid=(2.0,), seed=17, out=str(out)))
        text = out.read_text()
        assert "# config.seed=17" in text
        assert "# resolved.db_convention=sigma2-ln" in text
        assert "# tool.version=" in text

    def test_json_format(self, tmp_path):
        out = tmp_path / "f.json"
        run(ExperimentConfig(experiment="formulas", ratio_grid=(1.0, 2.0), fmt="json",
                             out=str(out)))
        payload = json.loads(out.read_text())
        assert "metadata" in payload and len(payload["rows"]) == 2
        assert payload["metadata"]["config.experiment"] == "formulas"
        assert isinstance(payload["metadata"]["config.alpha"], float)
        assert isinstance(payload["rows"][0]["p_void_rca"], float)

    def test_json_is_strict_for_non_finite_values(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "f.json"
        run(ExperimentConfig(experiment="formulas", law="unit", m=0.4, fmt="json", out=str(out)))
        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["metadata"]["result.zeta_dagger"] == "inf"
        assert all(row["rho"] == "inf" for row in payload["rows"])

    # One tiny config per experiment, as in test_single_ratio_rows_pinned.
    TINY = {
        "void-prob": dict(reps=3),
        "cell-pmf": dict(reps=3),
        "bounds-check": dict(sets=3, reps=2),
        "conservation-check": dict(reps=3, mark_law="deterministic:2"),
        "remark2": dict(reps=3, n_envelope=39),
        "coverage": dict(ratio_grid=(0.5, 2.0), reps=10),
        "formulas": dict(law="unit", m=0.5),
    }

    @pytest.mark.parametrize("experiment", TINY)
    def test_json_rows_are_strict_and_equal_the_csv(self, experiment, tmp_path):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        paths = {}
        for fmt in ("json", "csv"):
            paths[fmt] = tmp_path / f"a.{fmt}"
            run(ExperimentConfig(experiment=experiment, fmt=fmt, out=str(paths[fmt]),
                                 **{"ratio_grid": (2.0,), **self.TINY[experiment]}))
        rows = json.loads(paths["json"].read_text(), parse_constant=refuse)["rows"]
        lines = [l for l in paths["csv"].read_text().splitlines() if not l.startswith("#")]
        cells = list(csv.DictReader(lines))
        assert rows and len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            assert list(row) == list(cell)
            assert {k: str(harness._format_value(v)) for k, v in row.items()} == cell
            # and every float survives both files exactly
            assert all(float(cell[k]) == v for k, v in row.items() if isinstance(v, float))

    def test_fatal_config_refuses_to_run(self, tmp_path):
        cfg = ExperimentConfig(experiment="void-prob", lambda_b=0.0, out=str(tmp_path / "x.csv"))
        with pytest.raises(ConfigError):
            run(cfg)

    def test_cell_pmf_smoke(self, tmp_path):
        out = tmp_path / "pmf.csv"
        run(ExperimentConfig(experiment="cell-pmf", ratio_grid=(1.0,), reps=6,
                             half_width=0.05, out=str(out)))
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "n_users,p_sim,ci_low,ci_high,p_formula"
        assert len(lines) > 3

    def test_conservation_smoke(self, tmp_path):
        out = tmp_path / "cons.csv"
        run(ExperimentConfig(experiment="conservation-check", lambda_b=100.0, reps=25,
                             mark_law="deterministic:2", out=str(out)))
        meta = dict(
            line[2:].split("=", 1)
            for line in out.read_text().splitlines()
            if line.startswith("# result.")
        )
        expected = float(meta["result.expected_count"])
        assert abs(float(meta["result.mean_count"]) - expected) < 0.2 * expected
        assert meta["result.mark_law"] == "deterministic:2"

    def test_coverage_smoke(self, tmp_path):
        out = tmp_path / "cov.csv"
        run(ExperimentConfig(experiment="coverage", ratio_grid=(2.0,), reps=10,
                             model="void-aware", out=str(out)))
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 2  # header + one row


class TestCli:
    def test_formulas_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli_main(["formulas", "--ratio-grid", "0.5,2", "--law", "unit",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_validate_warning_exit_zero(self, capsys):
        code = cli_main(["validate", "--law", "unit", "--m", "0.4", "--alpha", "4"])
        assert code == 0
        assert "zeta-dagger divergent" in capsys.readouterr().out

    def test_divergent_run_warns_once(self, tmp_path, capsys):
        argv = ["void-prob", "--law", "unit", "--m", "0.4", "--ratio-grid", "2", "--reps", "3",
                "--out", str(tmp_path / "v.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(argv) == 0
        assert caught == []
        captured = capsys.readouterr()
        assert (captured.out + captured.err).count("zeta-dagger divergent") == 1

    def test_validate_fatal_exit_two(self, capsys):
        code = cli_main(["validate", "--lambda-b", "0"])
        assert code == 2

    def test_validate_rejects_malformed_mark_law(self, capsys):
        assert cli_main(["validate", "--mark-law", "lognormal:0"]) == 2
        assert "configuration ok" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["remark2", "--n-envelope", "10"],
        ["conservation-check", "--mark-law", "deterministic:abc"],
        ["formulas", "--ratio-grid", "0"],
        ["void-prob", "--ratio-grid", "-1", "--side", "2"],
        ["void-prob", "--half-width", "0", "--reps", "4"],
        ["void-prob", "--half-width", "-1"],
        ["void-prob", "--half-width", "nan"],
        ["void-prob", "--side", "-1", "--reps", "4"],
        ["void-prob", "--side", "nan"],
        ["void-prob", "--side", "inf"],
        ["formulas", "--lambda-u", "0", "--lambda-b", "100"],
        ["void-prob", "--lambda-u", "0", "--lambda-b", "100"],
        ["bounds-check", "--sets", "0"],
        ["coverage", "--beta", "nan"],
        ["cell-pmf", "--ratio-grid", "0.5,8", "--reps", "2"],
        ["remark2", "--ratio-grid", "0.5,8", "--reps", "2"],
        ["void-prob", "--seed", "-1", "--reps", "2"],
        ["cell-pmf", "--reps", "2"],
        ["coverage", "--model", "bogus"],
        ["formulas", "--format", "xml"],
        ["void-prob", "--ratio-grid", "2", "--reps", "2", "--side", "0.01"],
        ["cell-pmf", "--ratio-grid", "2", "--reps", "2", "--side", "0.01"],
        ["bounds-check", "--sets", "2", "--reps", "2", "--side", "0.01"],
        ["remark2", "--ratio-grid", "2", "--reps", "2", "--side", "0.05", "--n-envelope", "39"],
        ["coverage", "--ratio-grid", "2", "--reps", "2", "--side", "0.01"],
        ["conservation-check", "--reps", "2", "--mark-law", "lognormal:0,50"],
        ["conservation-check", "--reps", "2", "--side", "0.05"],
        ["conservation-check", "--reps", "2", "--mark-law", "lognormal:0,1000"],
        ["void-prob", "--lambda-b", "100", "--ratio-grid", "2", "--reps", "2"],
        ["conservation-check", "--grid", "1"],
    ], ids=["remark2-n-envelope", "conservation-mark-law", "formulas-zero-ratio",
            "void-prob-negative-ratio", "void-prob-zero-half-width",
            "void-prob-negative-half-width", "void-prob-nan-half-width",
            "void-prob-negative-side", "void-prob-nan-side", "void-prob-inf-side",
            "formulas-no-users", "void-prob-no-users", "bounds-check-no-sets",
            "coverage-nan-beta", "cell-pmf-grid", "remark2-grid", "void-prob-negative-seed",
            "cell-pmf-no-grid", "coverage-unknown-model", "formulas-unknown-format",
            "void-prob-window-without-stations", "cell-pmf-window-without-stations",
            "bounds-check-window-without-stations", "remark2-window-without-stations",
            "coverage-window-without-stations", "conservation-source-too-large",
            "conservation-target-too-small", "conservation-mark-moment-overflow",
            "void-prob-ratio-two-ways", "conservation-grid"])
    def test_config_errors_exit_two(self, argv, tmp_path, capsys):
        assert cli_main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "void-prob"])
    @pytest.mark.parametrize("text", [json.dumps({"half_width": "0.01", "reps": 4}),
                                      json.dumps({"reps": "4"}), None, "", "[1, 2]"],
                             ids=["string-half-width", "string-reps", "missing-file",
                                  "malformed-json", "non-object"])
    def test_mistyped_config_file_exits_two(self, command, text, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        if text is not None:
            cfg_file.write_text(text)
        assert cli_main([command, "--config", str(cfg_file),
                         "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 1
        assert "must be" in err

    @pytest.mark.parametrize("argv, expected", [
        (["validate", "--n-envelope", "10", "--ratio-grid", "2"],
         ["warning: void-prob ignores n_envelope 10"]),
        (["validate", "--model", "void-aware", "--beta", "3", "--ratio-grid", "2"],
         ["warning: void-prob ignores beta 3.0", "warning: void-prob ignores model void-aware"]),
    ], ids=["n-envelope", "model-beta"])
    def test_validate_warns_of_ignored_fields(self, argv, expected, capsys):
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_docstring_examples_validate(self):
        examples = [line.split()[1:] for line in voidnet.cli.__doc__.splitlines()
                    if line.startswith("voidnet ")]
        assert len(examples) == 4
        for argv in examples:
            config = _config_from_args(_build_parser().parse_args(argv))
            assert fatal(validate(config)) == [], argv

    @pytest.mark.parametrize("command", ["validate", "void-prob"])
    def test_unparsable_side_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--side", "abc"])
        assert exc.value.code == 2
        assert "argument --side" in capsys.readouterr().err

    def test_every_config_field_has_a_flag(self):
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        wanted = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}
        for name, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions}
            assert wanted <= dests, f"{name} lacks flags for {sorted(wanted - dests)}"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"law": "unit", "ratio_grid": [2.0], "seed": 5}))
        out = tmp_path / "o.json"
        code = cli_main(["formulas", "--config", str(cfg_file), "--law", "nearest",
                         "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["config.law"] == "nearest"  # flag wins
        assert payload["metadata"]["config.seed"] == 5  # file value kept
