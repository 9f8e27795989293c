import csv
import json
import math

import numpy as np
import pytest
import scipy

from gcruin import cli

MAX_MODEL = json.dumps({
    "algebra": {"kind": "max"},
    "claim_law": {"family": "uniform", "a": 0.0, "b": 1.0},
    "premium_law": {"family": "uniform", "a": 0.0, "b": 2.0},
})

ALPHA_MODEL = json.dumps({
    "algebra": {"kind": "alpha_stable", "alpha": 1.0},
    "claim_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
    "premium_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
    "beta": 2.0,
})

KENDALL_MODEL = json.dumps({
    "algebra": {"kind": "kendall", "alpha": 1.0},
    "claim_law": {"family": "lom_kendall", "c": 1.0, "alpha": 1.0},
    "premium_law": {"family": "lom_kendall", "c": 1.0, "alpha": 1.0},
    "u": 1.0, "lambda": 2.0,
})


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_sample_writes_csv_and_meta(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "sample",
                   "--law", '{"family": "uniform", "a": 0, "b": 1}', "--n", "50"])
    assert rc == 0
    rows = read_csv(tmp_path / "sample.csv")
    assert rows[0] == ["value"] and len(rows) == 51
    assert all(0.0 <= float(r[0]) <= 1.0 for r in rows[1:])
    meta = json.loads((tmp_path / "sample_meta.json").read_text())
    assert meta["command"] == "sample"
    assert meta["seed"] == cli.DEFAULT_SEED
    assert "version" in meta and "elapsed_seconds" in meta
    assert meta["numpy_version"] == np.__version__
    assert meta["scipy_version"] == scipy.__version__
    assert meta["bit_generator"] == "PCG64"
    assert meta["schema_version"] == 1


def test_sample_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["--out", str(out), "sample",
                         "--law", '{"family": "pareto2a", "alpha": 1.0}',
                         "--n", "200"]) == 0
    assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()


def test_convolve_kendall_atom(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "convolve",
                   "--algebra", '{"kind": "kendall", "alpha": 1.0}',
                   "--x", "0.5", "--y", "1.0", "--grid", "0:4:5"])
    assert rc == 0
    rows = read_csv(tmp_path / "convolve.csv")
    got = {float(z): float(c) for z, c in rows[1:]}
    assert got[0.0] == 0.0
    assert got[1.0] == pytest.approx(0.5)          # atom at the maximum
    assert got[2.0] == pytest.approx(0.875)
    meta = json.loads((tmp_path / "convolve_meta.json").read_text())
    assert meta["result"]["atoms"] == [[1.0, 0.5]]


def test_transform_values(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "transform",
                   "--algebra", '{"kind": "classical"}',
                   "--law", '{"family": "point", "a": 1.0}', "--t-grid", "0:2:3"])
    assert rc == 0
    rows = read_csv(tmp_path / "transform.csv")
    vals = {float(t): float(p) for t, p in rows[1:]}
    assert vals[0.0] == pytest.approx(1.0)
    assert vals[1.0] == pytest.approx(math.exp(-1.0))
    assert vals[2.0] == pytest.approx(math.exp(-2.0))


TABLE_LAW = ('{"family": "table", "atoms": [[0.5, 0.3], [2.0, 0.2]], '
             '"cdf_points": [[0, 0], [1, 0.25], [3, 0.5]]}')


def test_transform_table_law_keeps_its_continuous_part(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "transform",
                   "--algebra", '{"kind": "classical"}', "--law", TABLE_LAW,
                   "--t-grid", "0:1:2"])
    assert rc == 0
    vals = {float(t): float(p) for t, p in read_csv(tmp_path / "transform.csv")[1:]}
    assert vals[0.0] == pytest.approx(1.0, abs=1e-10)
    e = math.exp
    want = (0.3 * e(-0.5) + 0.2 * e(-2.0) + 0.25 * (1.0 - e(-1.0))
            + 0.125 * (e(-1.0) - e(-3.0)))
    assert vals[1.0] == pytest.approx(want, abs=1e-10)


def test_walk_full_paths(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "walk",
                   "--algebra", '{"kind": "max"}',
                   "--step-law", '{"family": "uniform", "a": 0, "b": 1}',
                   "--n", "5", "--paths", "2", "--full"])
    assert rc == 0
    rows = read_csv(tmp_path / "walk.csv")
    assert rows[0] == ["path", "step", "state"]
    assert len(rows) == 1 + 2 * 6
    states = [float(r[2]) for r in rows[1:7]]
    assert states == sorted(states)          # max walk is nondecreasing


@pytest.mark.parametrize("mode", [[], ["--full"]], ids=["terminal", "full"])
def test_walk_negative_start_exits_2(tmp_path, capsys, mode):
    rc = cli.main(["--out", str(tmp_path), "walk", "--algebra", '{"kind": "max"}',
                   "--step-law", '{"family": "uniform", "a": 0, "b": 1}',
                   "--n", "2", "--paths", "3", "--start", "-1", *mode])
    assert rc == 2
    assert "start must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "walk.csv").exists()


def test_safety_kendall(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "safety", "--model", KENDALL_MODEL,
                   "--t", "1.0"])
    assert rc == 0
    rep = json.loads((tmp_path / "safety.json").read_text())
    assert rep["margin"] == pytest.approx(math.exp(-1.0) + 1.0, abs=1e-10)
    assert rep["condition_holds"] is True


def test_safety_summary_shows_the_definition_margin(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "safety", "--model", KENDALL_MODEL,
                     "--t", "1.0"]) == 0
    line = capsys.readouterr().out
    assert "margin 1.36788 (published formula; margin_definition 1)" in line


def test_safety_max_same_for_duplicate_atom_locations(tmp_path):
    sides = []
    for name, atoms in (("split", [[0.5, 0.1], [0.5, 0.2], [2, 0.7]]),
                        ("merged", [[0.5, 0.3], [2, 0.7]])):
        model = _with(MAX_MODEL, premium_law={"family": "table", "atoms": atoms}, u=0.25)
        assert cli.main(["--out", str(tmp_path / name), "safety", "--model", model,
                         "--t", "1.0"]) == 0
        rep = json.loads((tmp_path / name / "safety.json").read_text())
        sides.append((rep["margin"], rep["extras"]["premium_side"]))
    assert sides[0] == sides[1]


def test_max_point_premium_against_unbounded_claims_is_ruined(tmp_path):
    # cdf(40) of lom_alpha(1, 1) rounds to 1, but claims are unbounded
    model = _with(MAX_MODEL, claim_law={"family": "lom_alpha", "gamma": 1, "alpha": 1},
                  premium_law={"family": "point", "a": 40})
    assert _survival(tmp_path, model) == 0.0


def test_non_finite_option_message(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", ALPHA_MODEL,
                     "--u", "nan"]) == 2
    assert capsys.readouterr().err == "error: --u must be finite, got nan\n"


def test_ruin_closed_form_row(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "ruin", "--model", MAX_MODEL,
                   "--u", "0.5"])
    assert rc == 0
    rows = read_csv(tmp_path / "ruin.csv")
    u, surv, ruin = float(rows[1][0]), float(rows[1][1]), float(rows[1][2])
    assert (u, rows[1][5]) == (0.5, "closed_form")
    assert surv == pytest.approx(0.755929, abs=1e-5)
    assert ruin == pytest.approx(0.244071, abs=1e-5)
    summary = json.loads((tmp_path / "ruin_summary.json").read_text())
    assert summary["method"] == "closed" and summary["rows"] == 1


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_ruin_files_are_strict_json_with_infinite_diagnostics(tmp_path):
    # unbounded claims against a point-mass premium: claim_sup is infinite
    model = _with(MAX_MODEL, claim_law={"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
                  premium_law={"family": "point", "a": 1.0})
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", model, "--u", "0.5"]) == 0
    summary = _strict_json(tmp_path / "ruin_summary.json")
    meta = _strict_json(tmp_path / "ruin_meta.json")
    assert summary["diagnostics"][0]["claim_sup"] == "inf"
    assert meta["result"]["diagnostics"][0]["claim_sup"] == "inf"


def test_json_files_write_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "x.json"
    cli._write_json(path, {"a": [math.inf, -math.inf, math.nan, 1.5], "b": (2, "inf")})
    assert _strict_json(path) == {"a": ["inf", "-inf", "nan", 1.5], "b": [2, "inf"]}


def test_ruin_u_grid_volterra(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "ruin", "--model", ALPHA_MODEL,
                   "--u-grid", "0:2:3", "--steps", "1000"])
    assert rc == 0
    rows = read_csv(tmp_path / "ruin.csv")
    assert len(rows) == 4
    got = {float(r[0]): float(r[1]) for r in rows[1:]}
    for u, surv in got.items():
        assert surv == pytest.approx(1.0 - 0.5 * math.exp(-0.5 * u), abs=1e-3)


def test_ruin_mc_method(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "ruin", "--model", KENDALL_MODEL,
                   "--method", "mc", "--u", "2.0", "--paths", "4000",
                   "--horizon", "200", "--seed", "7"])
    assert rc == 0
    rows = read_csv(tmp_path / "ruin.csv")
    surv, lo, hi = float(rows[1][1]), float(rows[1][3]), float(rows[1][4])
    assert 0.0 < lo <= surv <= hi < 1.0


def test_malformed_json_exits_2(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "sample", "--law", "{not json"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_family_exits_2(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "sample",
                     "--law", '{"family": "cauchy"}']) == 2
    assert "family" in capsys.readouterr().err


def test_missing_model_field_exits_2(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model",
                     '{"algebra": {"kind": "max"}}']) == 2
    assert "missing field" in capsys.readouterr().err


def test_certain_ruin_exits_3(tmp_path, capsys):
    model = json.loads(ALPHA_MODEL)
    model["beta"] = 1.0          # rho = 1: the net profit condition fails
    assert cli.main(["--out", str(tmp_path), "ruin",
                     "--model", json.dumps(model), "--u", "1.0"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_bad_grid_exits_2(tmp_path):
    assert cli.main(["--out", str(tmp_path), "convolve",
                     "--algebra", '{"kind": "max"}',
                     "--x", "1", "--y", "1", "--grid", "nope"]) == 2


def _with(model: str, **fields) -> str:
    obj = json.loads(model)
    obj.update(fields)
    return json.dumps(obj)


CONVOLVE = ["convolve", "--algebra", '{"kind": "kendall", "alpha": 1.0}']
TRANSFORM = ["transform", "--algebra", '{"kind": "classical"}',
             "--law", '{"family": "point", "a": 1.0}']


@pytest.mark.parametrize("argv, data_file", [
    (["ruin", "--model", ALPHA_MODEL, "--u", "nan"], "ruin.csv"),
    (["ruin", "--model", ALPHA_MODEL, "--u", "inf"], "ruin.csv"),
    (["ruin", "--model", KENDALL_MODEL, "--method", "mc", "--t", "nan",
      "--paths", "10", "--horizon", "2"], "ruin.csv"),
    (["safety", "--model", KENDALL_MODEL, "--t", "inf"], "safety.json"),
    (CONVOLVE + ["--x", "nan", "--y", "1"], "convolve.csv"),
    (CONVOLVE + ["--x", "1", "--y=-inf"], "convolve.csv"),
    (["walk", "--algebra", '{"kind": "max"}', "--n", "2", "--start", "nan",
      "--step-law", '{"family": "uniform", "a": 0, "b": 1}'], "walk.csv"),
    (["ruin", "--model", ALPHA_MODEL, "--u-grid", "0:nan:5"], "ruin.csv"),
    (["ruin", "--model", ALPHA_MODEL, "--u-grid", "0:inf:5"], "ruin.csv"),
    (CONVOLVE + ["--x", "1", "--y", "1", "--grid", "nan:1:3"], "convolve.csv"),
    (TRANSFORM + ["--t-grid", "0:inf:3"], "transform.csv"),
    (["ruin", "--model", _with(ALPHA_MODEL, u=math.nan)], "ruin.csv"),
    (["ruin", "--model", _with(KENDALL_MODEL, **{"lambda": math.inf})], "ruin.csv"),
    (["ruin", "--model", _with(ALPHA_MODEL, beta=math.nan)], "ruin.csv"),
    # JSON admits NaN and Infinity literals inside algebra and law descriptors
    (["walk", "--algebra", '{"kind": "kendall", "alpha": NaN}', "--n", "2",
      "--step-law", '{"family": "uniform", "a": 0, "b": 1}'], "walk.csv"),
    (["walk", "--algebra", '{"kind": "max"}', "--n", "2",
      "--step-law", '{"family": "uniform", "a": 0, "b": Infinity}'], "walk.csv"),
    (["sample", "--law", '{"family": "lom_alpha", "gamma": 1, "alpha": NaN}'], "sample.csv"),
    (["sample", "--law", '{"family": "point", "a": Infinity}'], "sample.csv"),
    (["transform", "--algebra", '{"kind": "kingman", "s": NaN}',
      "--law", '{"family": "point", "a": 1.0}'], "transform.csv"),
    (["convolve", "--algebra", '{"kind": "kendall_type", "p": Infinity}',
      "--x", "1", "--y", "1"], "convolve.csv"),
    (["ruin", "--model", _with(MAX_MODEL, claim_law={"family": "uniform", "a": 0,
                                                     "b": math.nan})], "ruin.csv"),
])
def test_non_finite_input_exits_2(tmp_path, capsys, argv, data_file):
    assert cli.main(["--out", str(tmp_path), *argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / data_file).exists()
    assert not list(tmp_path.glob("*_meta.json"))


# ---------------------------------------------------------------------------
# max model: the premium scale beta reaches every route
# ---------------------------------------------------------------------------

MAX_UNIT = _with(MAX_MODEL, premium_law={"family": "uniform", "a": 0, "b": 1})


def _survival(tmp_path, model, *extra):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", model, *extra]) == 0
    return float(read_csv(tmp_path / "ruin.csv")[1][1])


def test_max_beta_scales_premiums_in_every_route(tmp_path):
    # uniform(0, 1) claims, premiums 2 * uniform(0, 1): the closed form at b = 2
    model = _with(MAX_UNIT, beta=2.0)
    want = math.sqrt((1.0 - 0.5) / (1.0 - 0.25 / 2.0))
    assert _survival(tmp_path / "auto", model, "--u", "0.5") == pytest.approx(want, abs=1e-9)
    assert _survival(tmp_path / "ode", model, "--u", "0.5", "--method", "ode") \
        == pytest.approx(want, abs=1e-6)
    assert cli.main(["--out", str(tmp_path / "mc"), "ruin", "--model", model, "--u", "0.5",
                     "--method", "mc", "--paths", "20000", "--horizon", "400"]) == 0
    row = read_csv(tmp_path / "mc" / "ruin.csv")[1]
    assert float(row[3]) <= want <= float(row[4])


def test_max_point_premium_is_scaled_by_beta(tmp_path):
    # premium delta_0.6 scaled to 1.2 >= the claim supremum 1: survival is certain
    model = _with(MAX_UNIT, premium_law={"family": "point", "a": 0.6}, beta=2.0)
    assert _survival(tmp_path / "b2", model, "--u", "0") == 1.0
    assert _survival(tmp_path / "b1", _with(model, beta=1.0), "--u", "0") == 0.0


@pytest.mark.parametrize("u, want", [(0.5, 0.0), (1.99, 0.0), (2.0, 1.0), (3.0, 1.0)])
def test_max_auto_covers_claims_reaching_past_premiums(tmp_path, u, want):
    model = _with(MAX_MODEL, claim_law={"family": "uniform", "a": 0, "b": 2},
                  premium_law={"family": "uniform", "a": 0, "b": 1})
    assert _survival(tmp_path, model, "--u", str(u)) == want


def test_max_auto_solves_atomless_table_laws_by_ode(tmp_path):
    # the MAX_MODEL laws uniform(0, 1) and uniform(0, 2), written as tables
    model = _with(MAX_MODEL,
                  claim_law={"family": "table", "cdf_points": [[0, 0], [1, 1]]},
                  premium_law={"family": "table", "cdf_points": [[0, 0], [2, 1]]})
    got = _survival(tmp_path / "table", model, "--u", "0.5")
    summary = json.loads((tmp_path / "table" / "ruin_summary.json").read_text())
    assert summary["method"] == "ode"
    assert got == pytest.approx(_survival(tmp_path / "uniform", MAX_MODEL, "--u", "0.5"),
                                abs=1e-8)


def test_max_auto_routes_table_laws_with_atoms_to_mc(tmp_path):
    # a table with atoms and a continuous part has a density, but the ODE
    # accepts atomless laws only
    mixed = {"family": "table", "atoms": [[0.5, 0.3], [2, 0.2]],
             "cdf_points": [[0, 0], [1, 0.25], [3, 0.5]]}
    for field in ("claim_law", "premium_law"):
        out = tmp_path / field
        model = _with(MAX_MODEL, **{field: mixed})
        surv = _survival(out, model, "--u", "0.5", "--paths", "2000", "--horizon", "200")
        summary = json.loads((out / "ruin_summary.json").read_text())
        assert summary["method"] == "mc"
        assert 0.0 <= surv <= 1.0


def test_ode_method_rejects_other_algebras(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", KENDALL_MODEL,
                     "--method", "ode"]) == 2
    assert "max model" in capsys.readouterr().err


def test_alpha_premiums_of_another_order_exit_2_but_mc_runs(tmp_path, capsys):
    model = _with(ALPHA_MODEL, algebra={"kind": "alpha_stable", "alpha": 1.5},
                  claim_law={"family": "lom_alpha", "gamma": 1.0, "alpha": 1.5})
    for method in ("auto", "volterra"):
        assert cli.main(["--out", str(tmp_path / method), "ruin", "--model", model,
                         "--u", "2", "--method", method]) == 2
        assert "order" in capsys.readouterr().err
        assert not (tmp_path / method / "ruin.csv").exists()
    surv = _survival(tmp_path / "mc", model, "--u", "2", "--method", "mc",
                     "--paths", "2000", "--horizon", "200")
    assert 0.0 < surv < 1.0


def test_workers_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["--out", str(tmp_path), "--workers", "2", "sample",
                  "--law", '{"family": "point", "a": 1.0}'])


# ---------------------------------------------------------------------------
# ruin options are used or refused, never dropped
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, extra", [
    (ALPHA_MODEL, ["--u", "1"]),
    (MAX_MODEL, ["--u", "0.5"]),
], ids=["alpha", "max"])
def test_ruin_finite_horizon_auto_runs_mc(tmp_path, model, extra):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", model, *extra,
                     "--t", "0.5", "--paths", "2000"]) == 0
    assert json.loads((tmp_path / "ruin_summary.json").read_text())["method"] == "mc"


@pytest.mark.parametrize("model, method", [
    (ALPHA_MODEL, "volterra"),
    (MAX_MODEL, "closed"),
    (MAX_MODEL, "ode"),
], ids=["volterra", "closed", "ode"])
def test_ruin_finite_horizon_refuses_infinite_horizon_methods(tmp_path, capsys, model, method):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", model, "--u", "0.5",
                     "--t", "0.1", "--method", method]) == 2
    assert "--t" in capsys.readouterr().err
    assert not (tmp_path / "ruin.csv").exists()
    assert not list(tmp_path.glob("*_meta.json"))


def test_ruin_u_and_u_grid_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "ruin", "--model", MAX_MODEL,
                  "--u", "0.9", "--u-grid", "0:1:3"])
    assert exc.value.code == 2
    assert "not allowed" in capsys.readouterr().err
    assert not (tmp_path / "ruin.csv").exists()


def test_table_law_with_negative_knot_exits_2(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "sample", "--n", "5", "--law",
                     '{"family": "table", "cdf_points": [[-1, 0], [1, 1]]}']) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "sample.csv").exists()
