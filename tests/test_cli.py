"""CLI behavior: schemas, exit codes, manifests, reproducibility."""

import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import prismconn
from prismconn import mc_sim, pfc_analytic
from prismconn.cli import (
    _FIELD_SLAB_POINTS,
    _PARAMS,
    _cast,
    _parse_grid,
    _parse_int_spec,
    _render,
    main,
)
from prismconn.errors import DomainError
from prismconn.geometry import enumerate_features, house_prism, sample_uniform_rng
from prismconn.linkmodels import Mimo, PathLossParams, Siso, UnitDisk
from prismconn.mc_sim import connection_field
from prismconn.validation import CHECK_NAMES, run_checks


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_mass_siso_value(tmp_path):
    out = tmp_path / "mass.csv"
    rc = run_cli(
        ["mass", "--model", "siso", "--d", "2", "--eta", "2", "--beta", "1",
         "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header[:5] == ["model", "k", "d", "eta", "beta"]
    assert len(rows) == 1
    closed = float(rows[0][header.index("closed_form")])
    assert closed == pytest.approx(0.5, rel=1e-12)


def test_mass_mimo_value_and_json(tmp_path):
    out = tmp_path / "mass.json"
    rc = run_cli(
        ["mass", "--model", "mimo", "--n", "2", "--d", "3", "--eta", "2",
         "--beta", "1", "--format", "json", "--output", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["closed_form"] == pytest.approx(2.3912381435122416, rel=1e-10)
    assert abs(row["closed_form"] - row["quadrature"]) < 1e-6


def test_mass_sweep_rows(tmp_path):
    out = tmp_path / "mass.csv"
    rc = run_cli(
        ["mass", "--model", "simo", "--m", "1..4", "--d", "3",
         "--eta", "2,3,4", "--beta", "1", "--output", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 12  # 4 orders x 3 exponents


def test_pfc_table(tmp_path):
    out = tmp_path / "pfc.csv"
    rc = run_cli(
        ["pfc", "--prism", "house", "--L", "7", "--beta", "1",
         "--rho", "0.5:0.7:0.1", "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header[0] == "rho"
    assert {"p_fc", "p_out", "in_regime", "p_fc_bulk", "p_fc_bulk_faces",
            "p_fc_bulk_faces_edges", "term_corners"} <= set(header)
    assert len(rows) == 3
    p_fc = float(rows[0][header.index("p_fc")])
    p_out = float(rows[0][header.index("p_out")])
    assert p_fc == pytest.approx(1.0 - p_out, rel=1e-12)


def test_pfc_single_point_and_low_density_flag(tmp_path):
    out = tmp_path / "pfc.csv"
    rc = run_cli(
        ["pfc", "--prism", "house", "--L", "7", "--beta", "1",
         "--rho", "1e-9", "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][header.index("in_regime")] == "false"
    # with a vanishing density prefactor only the bulk survives: P_fc -> 1
    assert float(rows[0][header.index("p_fc_bulk")]) == pytest.approx(1.0, abs=1e-6)


def test_pfc_json_has_feature_table(tmp_path):
    out = tmp_path / "pfc.json"
    rc = run_cli(
        ["pfc", "--prism", "house", "--L", "7", "--beta", "1", "--rho", "0.8",
         "--format", "json", "--output", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    table = payload["feature_table"]
    classes = {row["class"] for row in table}
    assert classes == {"corners", "edges", "faces", "bulk"}
    assert sum(r["multiplicity"] for r in table if r["class"] == "corners") == 10
    assert sum(r["multiplicity"] for r in table if r["class"] == "edges") == 15


# sha256 of the output bytes, pinned before the per-class sums moved into
# `assemble` (x86_64 Linux, CPython 3.11.7, numpy 2.4.6): the ledger's
# columns and table keep every bit.
PFC_HOUSE = ["pfc", "--prism", "house", "--L", "7", "--rho", "0.1:1.2:0.02"]


@pytest.mark.parametrize(
    "fmt, digest",
    [("csv", "f6d98f26f69a39a65bf912d40bf8eb91a5052fce1452a600a4e4fd6e790f5165"),
     ("json", "f34b40a2ba0504d36dd61cf13e71550774501f3153090ad360b444a6d5797e5c")],
)
def test_pfc_house_output_keeps_its_bytes(fmt, digest, capsys):
    assert run_cli([*PFC_HOUSE, "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `validate`'s output bytes and its exit code, pinned before the
# oracles took stacks and the MIMO forms arrays (x86_64 Linux, CPython
# 3.11.7, numpy 2.4.6): no check's status or detail string moves.
@pytest.mark.parametrize(
    "argv, code, digest",
    [(["validate"], 0,
      "b7b9d9f7e7d398e601104471badb96cd3561ca5262ad167246621c6d5e37fe5d"),
     (["validate", "--format", "json"], 0,
      "2e36c4c159fa228d71749ecdc59047a8ca3f147fa2b4d74f96cbbace17aa02a0"),
     (["validate", "--perturb"], 4,
      "1bbab406b92cb4529ae93c627d6775422fedd350ff3c0db3e6f738385d056f44")],
    ids=["csv", "json", "perturb"],
)
def test_validate_output_keeps_its_bytes(argv, code, digest, capsys):
    assert run_cli(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the output bytes, pinned before `specfun`'s scipy and `math`
# wrappers were deleted and the beta * r^eta probe moved into the distance
# check (x86_64 Linux, CPython 3.11.7, numpy 2.4.6): every H, moment and
# quadrature keeps its bits, and so does every Monte Carlo draw.
@pytest.mark.parametrize(
    "argv, digest",
    [(["mass", "--model", "simo", "--m", "1..64", "--eta", "2,3,4"],
      "8df21030e9fe221b87aec287d1d625d958c5532a7ba80a8be3a0f040053159c6"),
     (["mass", "--model", "mimo", "--m", "2..64", "--eta", "2,3,4", "--d", "2"],
      "b354b098134f2a2950243288ace4e49a5d1d22030e8eb62dec4ab23de23c5222"),
     (["field", "--square", "10", "--rho", "1.5", "--seed", "3", "--grid", "60"],
      "a8c4e5d97fff5cc2f000baf7b9f65b34ead858444b11560142367ccbf8579164"),
     (["field", "--square", "8", "--rho", "1.0", "--model", "simo", "--m", "3",
       "--seed", "5", "--grid", "60"],
      "b33142c9a8f5a37de4f9b5b9797468955669d64d1b097c2aaa4b4cfbec2cd252"),
     (["field", "--prism", "house", "--L", "7", "--rho", "0.3", "--model", "mimo",
       "--n", "2", "--seed", "7", "--grid", "20"],
      "6fb2a6ab07a2f62940bf65d27d3c40edee359dfaf423a696560f9b9c2665044b"),
     (["simulate", "--rho", "0.5,0.8", "--trials", "50", "--seed", "4"],
      "c46cc7a159ee347d825de3c25e6e2d97f3633f2c5abdc4dd89a67dd47542d1f2")],
    ids=["mass-simo", "mass-mimo", "field-siso", "field-simo3", "field-mimo-house",
         "simulate"],
)
def test_mass_field_and_simulate_output_keeps_its_bytes(argv, digest, capsys):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_simulate_analytic_column_keeps_its_bytes(tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--rho", "0.5,0.8", "--trials", "50", "--seed", "4",
            "--output", str(out)]
    assert run_cli(argv) == 0
    header, rows = read_csv(out)
    column = "\n".join(row[header.index("p_fc_analytic")] for row in rows)
    assert hashlib.sha256(column.encode()).hexdigest() == (
        "5bc2f705bfadbefb7dacd9aea9c5f705b92f1576ed1e5c96305bb5fbcba10190"
    )


def test_pfc_evaluates_each_term_once_per_density(monkeypatch, capsys):
    calls = []
    term = pfc_analytic.FeatureContribution.term

    def counted(self, rho):
        calls.append(rho)
        return term(self, rho)

    monkeypatch.setattr(pfc_analytic.FeatureContribution, "term", counted)
    assert run_cli(PFC_HOUSE) == 0
    densities = len(capsys.readouterr().out.splitlines()) - 1
    assert densities == 56
    assert len(calls) == len(enumerate_features(house_prism(7.0))) * densities


def test_pfc_capability_exit_code(tmp_path):
    rc = run_cli(
        ["pfc", "--prism", "house", "--L", "7", "--beta", "1", "--eta", "3",
         "--rho", "0.8", "--output", str(tmp_path / "x.csv")]
    )
    assert rc == 3


def _refused_eta(eta):
    return (
        "capability error: the per-feature expansion is validated for eta = 2 in three "
        f"dimensions only, got eta={eta}, dim=3\n"
    )


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # the path loss is refused before the density is read
        (["pfc", "--eta", "3", "--rho", "-1"], 3, _refused_eta(3.0)),
        (["simulate", "--eta", "3", "--rho", "-1", "--seed", "1"], 3, _refused_eta(3.0)),
        (["pfc", "--eta", "4", "--rho", "0.8"], 3, _refused_eta(4.0)),
        (["simulate", "--eta", "4", "--rho", "0.8", "--seed", "1"], 3, _refused_eta(4.0)),
        (["pfc", "--beta", "1e103", "--rho", "0.5"], 4,
         "numerical failure: corners: the term at rho = 0.5 is no finite double\n"),
    ],
    ids=["pfc-eta3", "simulate-eta3", "pfc-eta4", "simulate-eta4", "pfc-term-overflow"],
)
def test_pfc_and_simulate_refusals_keep_their_lines(argv, code, err, capsys):
    # the library takes any path loss; `pfc` and `simulate` accept eta = 2 only
    assert run_cli(argv) == code
    assert capsys.readouterr() == ("", err)


def test_pfc_builds_one_link(monkeypatch, capsys):
    expected = [Mimo(2, 2, PathLossParams(1.0, 2.0, 3))]
    built = []
    post_init = Mimo.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Mimo, "__post_init__", counted)
    assert run_cli(PFC_HOUSE) == 0
    assert built == expected


def test_usage_errors():
    assert run_cli(["mass", "--model", "warp", "--output", "/dev/null"]) == 2
    assert run_cli(["pfc", "--prism", "house", "--rho", "0:1:-1"]) == 2
    assert run_cli(["simulate", "--prism", "house", "--rho", "0.5"]) == 2  # no seed
    assert run_cli(["field", "--square", "10", "--rho", "1", "--seed", "-1", "--grid", "3"]) == 2
    assert run_cli(["nonsense"]) == 2


def test_malformed_numbers_are_usage_errors(tmp_path, capsys):
    assert run_cli(["pfc", "--rho", "abc"]) == 2
    assert run_cli(["mass", "--model", "simo", "--m", "1..x"]) == 2
    assert run_cli(["mass", "--model", "simo", "--eta", "2,q"]) == 2
    assert run_cli(["field", "--square", "5", "--rho", ",", "--seed", "1"]) == 2
    assert run_cli(["mass", "--model", "simo", "--m", ","]) == 2
    assert run_cli(["mass", "--model", "simo", "--m", "1..1000000000000"]) == 2
    for spec in ("0:1:nan", "0:inf:1", "nan:1:0.5", "-inf:1:1", "0:1:1e-12"):
        assert run_cli(["pfc", "--rho", spec]) == 2
    field = ["field", "--seed", "1", "--grid", "3"]
    assert run_cli(field + ["--square", "5", "--rho", "0.3,0.9"]) == 2
    assert run_cli(field + ["--square", "5", "--rho", "-0.5"]) == 2
    assert run_cli(field + ["--square", "nan", "--rho", "0.3"]) == 2
    assert run_cli(field + ["--square", "5", "--prism", "cube", "--L", "3", "--rho", "0.3"]) == 2
    config = tmp_path / "bad.json"
    for command, params in (
        ("pfc", {"rho": []}),
        ("mass", {"model": "simo", "eta": []}),
        ("field", {"square": 5, "seed": 1, "rho": []}),
    ):
        config.write_text(json.dumps(params), encoding="utf-8")
        assert run_cli([command, "--config", str(config)]) == 2
    config.write_text(json.dumps({"rho": "x"}), encoding="utf-8")
    assert run_cli(["pfc", "--config", str(config)]) == 2
    config.write_text(json.dumps({"rho": 0.5, "length": "seven"}), encoding="utf-8")
    assert run_cli(["pfc", "--config", str(config)]) == 2
    config.write_text(
        json.dumps({"square": 5, "rho": 0.3, "seed": 1, "grid": "many"}), encoding="utf-8"
    )
    assert run_cli(["field", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "'abc'" in err and "'x'" in err and "'seven'" in err and "'many'" in err
    assert "Traceback" not in err


def test_spec_errors_keep_their_reason(capsys):
    assert run_cli(["mass", "--model", "simo", "--m", "1..1000000000000"]) == 2
    assert "more than 1000000 values" in capsys.readouterr().err
    assert run_cli(["pfc", "--rho", ","]) == 2
    assert "has no values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, m, beta",
    [("simo", "1", "1e-320"), ("simo", "2", "1e-300"), ("mimo", "2", "1e-308"),
     ("simo", "1", "2e-207")],
)
def test_closed_mass_overflow_is_a_numerical_failure(model, m, beta, tmp_path, capsys):
    out = tmp_path / "mass.csv"
    argv = ["mass", "--model", model, "--m", m, "--beta", beta, "--output", str(out)]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    link = "Mimo" if model == "mimo" else "SimoMiso"
    assert err.count("\n") == 1 and err.startswith(f"numerical failure: {link}.moment")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["pfc"], ["simulate", "--trials", "1", "--seed", "1"]],
    ids=["pfc", "simulate"],
)
def test_homogeneous_mass_overflow_is_a_numerical_failure(command, tmp_path, capsys):
    # beta^1.5 underflows to 0 at beta = 1e-308: one line, no traceback, no output
    out = tmp_path / "out.csv"
    argv = [*command, "--beta", "1e-308", "--rho", "0.5", "--prism", "cube", "--L", "2",
            "--output", str(out)]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: Mimo.moment")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["mass", "--model", "simo", "--m", "2"], ["pfc", "--rho", "0.5"],
     ["simulate", "--rho", "0.5", "--trials", "2", "--seed", "1"]],
    ids=["mass", "pfc", "simulate"],
)
def test_huge_beta_is_a_numerical_failure_that_names_the_cause(command, tmp_path, capsys):
    # beta^(3/2) overflows at 1e300, so M' (about 1e-450) is no positive double
    out = tmp_path / "out.csv"
    assert run_cli([*command, "--beta", "1e300", "--output", str(out)]) == 4
    err = capsys.readouterr().err
    link = "SimoMiso" if command[0] == "mass" else "Mimo"
    assert err.count("\n") == 1 and err.startswith(f"numerical failure: {link}.moment")
    assert "^1.5 overflows, so M' is no positive double" in err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1e104", "1e200"])
@pytest.mark.parametrize(
    "command",
    [["pfc"], ["simulate", "--trials", "1", "--seed", "1"]],
    ids=["pfc", "simulate"],
)
def test_corner_factor_overflow_names_the_factor(command, beta, tmp_path, capsys):
    # M' is a positive double here, but g = 1/(2 pi J) ~ beta / 11 and g^3 is not
    out = tmp_path / "out.csv"
    argv = [*command, "--beta", beta, "--rho", "0.5", "--prism", "cube", "--L", "2",
            "--output", str(out)]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: corners: the geometric factor overflows")
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1e103", "6e103"])
def test_corner_term_overflow_names_the_class(beta, tmp_path, capsys):
    # g^3 and the corner factor are doubles here, but the corner term (or the
    # factor itself at 6e103) is not; it was printed as inf, with p_fc = -inf
    out = tmp_path / "out.csv"
    assert run_cli(["pfc", "--beta", beta, "--rho", "0.5", "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: corners: the ")
    assert "overflows" in err or "is no finite double" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, m", [("siso", "1"), ("simo", "3"), ("mimo", "2")])
def test_mass_where_r_to_the_eta_overflows_is_refused(model, m, tmp_path, capsys):
    # H reads 0 once r^eta overflows, long before the true H meets the floor:
    # integrated up to there, SISO's quadrature would be 2.738e230 against
    # the closed form's 3.064e230.  Every fading model gets the overflow line,
    # not its special function's refusal of x = inf, and no numpy warning.
    out = tmp_path / "mass.csv"
    argv = ["mass", "--model", model, "--m", m, "--eta", "4", "--beta", "1e-308",
            "--output", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: ")
    assert "beta * r^eta overflows before H" in err
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    # the README's uninstalled form: PYTHONPATH=src python -m prismconn ...
    src = str(Path(prismconn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "prismconn", "validate", "--check", "union-find"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("union-find,PASS")


def test_mimo_mass_runs_at_every_order_mimo_takes(tmp_path, capsys):
    # Gamma(2n + nu) / Gamma(n)^2 passes the doubles from n = 504; M' stays near 4e3
    out = tmp_path / "mass.csv"
    assert run_cli(["mass", "--model", "mimo", "--m", "504,512", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [row["k"] for row in rows] == ["504", "512"]
    for row in rows:
        closed, quad = float(row["closed_form"]), float(row["quadrature"])
        assert closed == pytest.approx(quad, rel=1e-11)
    assert run_cli(["mass", "--model", "mimo", "--m", "513", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("capability error: MIMO H is implemented")


@pytest.mark.parametrize(
    "config_text, argv",
    [
        ('[ "rho" ]', ["--config", "{config}"]),
        ("5", ["--config", "{config}"]),
        (None, ["--config", "{directory}"]),
        (None, ["--prism", "{directory}", "--rho", "0.5"]),
        (None, ["--rho", "0.5", "--output", "{directory}"]),
    ],
    ids=["config-list", "config-number", "config-directory", "prism-directory",
         "output-directory"],
)
def test_unusable_file_argument_is_a_usage_error(config_text, argv, tmp_path, capsys):
    config = tmp_path / "config.json"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    argv = [arg.format(config=config, directory=tmp_path) for arg in argv]
    assert run_cli(["pfc", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


fast = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# characters no int() or float() accepts alone, and that spell no inf or nan
malformed = st.text(alphabet="xyz#?/", min_size=1, max_size=4)


@fast
@given(st.integers(-1000, 1000), st.integers(0, 50))
def test_int_range_round_trip(lo, width):
    assert _parse_int_spec(f"{lo}..{lo + width}") == list(range(lo, lo + width + 1))


@fast
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10))
def test_int_list_round_trip(values):
    assert _parse_int_spec(",".join(map(str, values))) == values


@fast
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=10))
def test_grid_list_round_trip(values):
    assert _parse_grid(",".join(map(repr, values))) == values


@fast
@given(st.integers(-400, 400), st.integers(1, 40), st.integers(1, 30))
def test_grid_range_round_trip(start_q, step_q, count):
    # quarters are exact in binary, so every grid value is exact too
    start, step = start_q / 4, step_q / 4
    stop = start + (count - 1) * step
    assert _parse_grid(f"{start!r}:{stop!r}:{step!r}") == [
        start + k * step for k in range(count)
    ]


@fast
@given(malformed, st.integers(-10, 10))
def test_malformed_specs_raise_domain_error(token, good):
    for spec in (f"{good}..{token}", f"{token}..{good}", f"{good},{token}", token):
        with pytest.raises(DomainError, match=re.escape(repr(token))):
            _parse_int_spec(spec)
    for spec in (f"{token}:1:1", f"0:{token}:1", f"0:1:{token}", f"{good},{token}", token):
        with pytest.raises(DomainError, match=re.escape(repr(token))):
            _parse_grid(spec)
    with pytest.raises(DomainError):
        _parse_int_spec([good, token])
    for spec in ([], ",", f"{good}..{good + 10**12}"):
        with pytest.raises(DomainError):
            _parse_int_spec(spec)
    for spec in ([], f"{good}:{good + 1}:1e-12", f"{good}:1e300:1"):
        with pytest.raises(DomainError):
            _parse_grid(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["mass", "--model", "simo", "--m", "2", "--eta", "2:2.0000000000004:1e-13"],
        ["pfc", "--rho", "0.5:0.5000000000003:1e-13"],
    ],
)
def test_a_range_whose_rounded_values_repeat_is_a_usage_error(argv, capsys):
    spec = argv[-1]
    with pytest.raises(DomainError, match="repeats"):
        _parse_grid(spec)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and repr(spec) in captured.err


def test_star_prism_is_a_usage_error(tmp_path, capsys):
    star = [
        [10 * math.cos(math.pi / 2 + 4 * math.pi * k / 5),
         10 * math.sin(math.pi / 2 + 4 * math.pi * k / 5)]
        for k in range(5)
    ]
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"base_vertices": star, "height": 5}), encoding="utf-8")
    assert run_cli(["pfc", "--prism", str(path), "--rho", "1"]) == 2
    assert run_cli(["simulate", "--prism", str(path), "--rho", "1", "--trials", "2",
                    "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error: base must wind exactly once") == 2


def test_simulate_reproducible(tmp_path):
    args = ["simulate", "--prism", "house", "--L", "7", "--beta", "1",
            "--rho", "0.5:0.6:0.1", "--trials", "30", "--seed", "42"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--output", str(out1)]) == 0
    assert run_cli(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["rho", "n_nodes", "trials", "p_fc_hat", "ci_low",
                      "ci_high", "mean_isolated", "p_fc_analytic"]
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0
        assert float(row[4]) <= float(row[3]) <= float(row[5])


def test_simulate_single_trial(tmp_path):
    out = tmp_path / "one.csv"
    rc = run_cli(
        ["simulate", "--prism", "cube", "--L", "4", "--beta", "1",
         "--rho", "0.2", "--trials", "1", "--seed", "7", "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    low, high = float(rows[0][4]), float(rows[0][5])
    assert 0.0 <= low <= high <= 1.0


def test_field_square(tmp_path):
    out = tmp_path / "field.csv"
    args = ["field", "--square", "10", "--rho", "0.3", "--model", "siso",
            "--beta", "1", "--eta", "2", "--grid", "21", "--seed", "5",
            "--output", str(out)]
    assert run_cli(args) == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "value"]
    assert len(rows) == 21 * 21
    values = [float(r[2]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in values)
    out2 = tmp_path / "field2.csv"
    assert run_cli(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_field_zero_density_is_uniform_zero(tmp_path):
    out = tmp_path / "field0.csv"
    rc = run_cli(
        ["field", "--square", "10", "--rho", "0.001", "--model", "siso",
         "--beta", "1", "--eta", "2", "--grid", "11", "--seed", "5",
         "--output", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert all(float(r[2]) == 0.0 for r in rows)


def test_field_prism_3d(tmp_path):
    out = tmp_path / "field3.csv"
    rc = run_cli(
        ["field", "--prism", "cube", "--L", "3", "--rho", "0.5",
         "--model", "mimo", "--n", "2", "--beta", "1", "--eta", "2",
         "--grid", "6", "--seed", "11", "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "z", "value"]
    assert len(rows) == 6 * 6 * 6  # cube: every lattice point is inside


def test_field_on_a_prism_with_a_lone_extreme_vertex(tmp_path, monkeypatch):
    # The hexagon's smallest and largest x are lone vertices, (-0.5, 1.5)
    # and (4.5, 2), so the first and last lattice planes hold no point inside
    # the prism: their slabs hand the field an empty grid, and the other
    # slabs still write their points.  The first call is the range probe.
    path = tmp_path / "hexagon.json"
    base = [[0, 0], [2, -1], [4, 0], [4.5, 2], [2, 3.25], [-0.5, 1.5]]
    path.write_text(json.dumps({"base_vertices": base, "height": 1.75}), encoding="utf-8")
    sizes, field = [], mc_sim.connection_field

    def spy(points, model, grid_points):
        sizes.append(len(grid_points))
        return field(points, model, grid_points)

    monkeypatch.setattr(mc_sim, "connection_field", spy)
    out = tmp_path / "field.csv"
    assert run_cli(["field", "--prism", str(path), "--rho", "0.05", "--seed", "1",
                    "--grid", "64", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "z", "value"]
    assert sizes[0] == 1 and sizes[1] == sizes[-1] == 0
    assert len(rows) == sum(sizes[1:]) > 0
    assert -0.5 < min(float(row[0]) for row in rows) < max(float(row[0]) for row in rows) < 4.5
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)


def run_cli_capped(argv):
    """The CLI in a subprocess under a 1.5 GB address-space cap; (result, seconds)."""
    src = str(Path(prismconn.__file__).resolve().parent.parent)
    code = "import sys; from prismconn.cli import main; sys.exit(main(sys.argv[1:]))"
    limit = 1536 * 2**20
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc, time.monotonic() - start


def test_field_grid_is_capped():
    field = ["field", "--rho", "0.3", "--seed", "1"]
    assert run_cli(field + ["--square", "5", "--grid", "3163"]) == 2  # just over 10^7
    assert run_cli(field + ["--prism", "cube", "--L", "3", "--grid", "216"]) == 2
    # 10^10 points: rejected before any lattice is built, under a 1.5 GB
    # address-space cap that the lattice's first array alone would break
    proc, seconds = run_cli_capped(field + ["--square", "5", "--grid", "100000"])
    assert proc.returncode == 2, proc.stderr
    assert "more than 10000000" in proc.stderr and "Traceback" not in proc.stderr
    assert seconds < 30.0


def test_field_node_count_is_capped():
    field = ["field", "--seed", "1", "--grid", "2"]
    assert run_cli(field + ["--square", "1000", "--rho", "1.000001"]) == 2  # just over 10^6
    assert run_cli(field + ["--prism", "cube", "--L", "100", "--rho", "1.000001"]) == 2
    assert run_cli(field + ["--square", "1e200", "--rho", "1e200"]) == 2  # overflows to inf
    # 10^12 nodes: rejected before any node is drawn (14.6 TiB of coordinates)
    proc, seconds = run_cli_capped(field + ["--square", "1e6", "--rho", "1"])
    assert proc.returncode == 2, proc.stderr
    assert "more than 1000000" in proc.stderr and "Traceback" not in proc.stderr
    assert seconds < 30.0


def test_simulate_node_count_is_capped():
    for rho in (
        "120",  # about 51 000 nodes: a 10 GB pair table per trial
        "1e300",  # a pair table too large to convert to a double
        "1e308",  # a node count that overflows to inf
    ):
        proc, seconds = run_cli_capped(
            ["simulate", "--prism", "house", "--L", "7", "--rho", rho, "--trials", "1",
             "--seed", "1"]
        )
        assert proc.returncode == 2, (rho, proc.stderr)
        assert "pair table" in proc.stderr and "Traceback" not in proc.stderr
        # one short line, not the count's hundreds of digits
        error = proc.stderr.splitlines()[-1]
        assert error.startswith("usage error") and len(error) < 160, proc.stderr
        assert seconds < 30.0


def test_field_prism_replays_from_manifest(tmp_path):
    out1, manifest = tmp_path / "f.csv", tmp_path / "f.manifest.json"
    rc = run_cli(
        ["field", "--prism", "house", "--L", "3", "--rho", "0.5", "--model", "unitdisk",
         "--radius", "1.2", "--grid", "7", "--seed", "4",
         "--output", str(out1), "--manifest", str(manifest)]
    )
    assert rc == 0
    assert json.loads(manifest.read_text())["parameters"]["square"] is None
    out2 = tmp_path / "f2.csv"
    assert run_cli(["field", "--config", str(manifest), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_manifest_round_trip(tmp_path):
    out1 = tmp_path / "sim.csv"
    manifest = tmp_path / "sim.manifest.json"
    rc = run_cli(
        ["simulate", "--prism", "house", "--L", "7", "--beta", "1",
         "--rho", "0.5", "--trials", "25", "--seed", "9",
         "--output", str(out1), "--manifest", str(manifest)]
    )
    assert rc == 0
    payload = json.loads(manifest.read_text())
    assert payload["command"] == "simulate"
    assert payload["parameters"]["seed"] == 9
    out2 = tmp_path / "sim2.csv"
    rc = run_cli(["simulate", "--config", str(manifest), "--output", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


# Manifests as pfc and simulate wrote them while they still took --d, whose
# only accepted value was 3.
RETIRED_D_MANIFESTS = {
    "pfc": {"beta": 1.0, "d": 3, "eta": 2.0, "length": 7.0, "prism": "house",
            "rho": [0.1, 0.5, 0.9]},
    "simulate": {"beta": 1.0, "d": 3, "eta": 2.0, "length": 7.0, "poisson": False,
                 "prism": "house", "rho": [0.5, 0.87], "seed": 9, "trials": 50},
}


@pytest.mark.parametrize("command", sorted(RETIRED_D_MANIFESTS))
def test_manifest_with_retired_d_replays(command, tmp_path):
    old = RETIRED_D_MANIFESTS[command]
    config = tmp_path / "old.manifest.json"
    config.write_text(json.dumps(
        {"command": command, "package_version": "0.1.0", "parameters": old}
    ))
    replay, direct = tmp_path / "replay.csv", tmp_path / "direct.csv"
    assert run_cli([command, "--config", str(config), "--output", str(replay)]) == 0
    flags = ["--prism", "house", "--L", "7", "--beta", "1", "--eta", "2",
             "--rho", ",".join(map(str, old["rho"]))]
    if command == "simulate":
        flags += ["--seed", "9", "--trials", "50"]
    assert run_cli([command, *flags, "--output", str(direct)]) == 0
    assert replay.read_bytes() == direct.read_bytes()
    rewritten = json.loads((tmp_path / "replay.csv.manifest.json").read_text())
    assert rewritten["parameters"] == {k: v for k, v in old.items() if k != "d"}


def test_config_flags_win(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": "siso", "d": 2, "eta": "2", "beta": 1.0}))
    out = tmp_path / "m.csv"
    rc = run_cli(
        ["mass", "--config", str(config), "--beta", "4", "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert float(rows[0][header.index("beta")]) == 4.0
    # closed form scales as 1/beta for d = 2, eta = 2
    assert float(rows[0][header.index("closed_form")]) == pytest.approx(
        0.125, rel=1e-12
    )


@pytest.mark.parametrize(
    "command, params, message",
    [
        ("simulate", {"rho": 0.5, "seed": 1, "trials": 2, "poisson": "false"}, "poisson: "),
        ("validate", {"check": "exponent-rates", "perturb": "false"}, "perturb: "),
        ("simulate", {"rho": 0.5, "seed": 1, "trials": 2.7}, "trials: "),
        ("mass", {"model": "simo", "k": True}, "k: "),
        ("pfc", {"rho": 0.5, "d": 2}, "pfc takes no d=2"),
        ("simulate", {"rho": 0.5, "seed": 1, "trials": 2, "d": 2}, "simulate takes no d=2"),
        ("pfc", {"rho": 0.5, "bta": 4}, "pfc takes no bta=4"),
        ("field", {"square": 5, "rho": 0.3, "seed": 1, "d": 3}, "field takes no d=3"),
    ],
    ids=["poisson-string", "perturb-string", "trials-fraction", "k-bool",
         "pfc-d-2", "simulate-d-2", "pfc-misspelt-beta", "field-d"],
)
def test_config_value_the_command_cannot_take_is_a_usage_error(
    command, params, message, tmp_path, capsys
):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(params), encoding="utf-8")
    assert run_cli([command, "--config", str(config), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, params",
    [
        ("mass", {"model": "unitdisk"}),
        ("field", {"square": 5, "rho": 0.3, "seed": 1, "grid": 3, "model": "warp"}),
    ],
    ids=["mass", "field"],
)
def test_unknown_model_is_a_usage_error_from_flag_or_config(command, params, tmp_path):
    out = ["--output", str(tmp_path / "o")]
    flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    assert run_cli([command, *flags, *out]) == 2
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(params), encoding="utf-8")
    assert run_cli([command, "--config", str(config), *out]) == 2


# Each command run once from flags and once from a config holding the same
# values as JSON types: both read through one path, so the bytes agree.
SAME_RUN = {
    "mass": (["--model", "mimo", "--m", "2..4", "--eta", "2,3", "--beta", "1"],
             {"model": "mimo", "k": [2, 3, 4], "eta": [2, 3], "beta": 1}),
    "pfc": (["--prism", "house", "--L", "7", "--rho", "0.1:0.3:0.1", "--eta", "2"],
            {"prism": "house", "length": 7, "rho": [0.1, 0.2, 0.3], "eta": 2.0}),
    "simulate": (["--rho", "0.5", "--trials", "5", "--seed", "3", "--poisson"],
                 {"rho": 0.5, "trials": 5, "seed": 3, "poisson": True}),
    "field": (["--square", "4", "--rho", "0.5", "--model", "simo", "--m", "3",
               "--grid", "5", "--seed", "2"],
              {"square": 4, "rho": 0.5, "model": "simo", "k": 3.0, "grid": 5, "seed": 2}),
    "validate": (["--check", "exponent-rates", "--perturb"],
                 {"check": "exponent-rates", "perturb": True}),
}


@pytest.mark.parametrize("command", sorted(SAME_RUN))
def test_flags_and_config_give_the_same_bytes(command, tmp_path):
    argv, params = SAME_RUN[command]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(params), encoding="utf-8")
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    code = run_cli([command, *argv, "--output", str(by_flags)])
    assert code in (0, 4)  # the perturbed validate run fails its check
    assert run_cli([command, "--config", str(config), "--output", str(by_config)]) == code
    assert by_flags.read_bytes() == by_config.read_bytes()
    manifest = Path(f"{by_flags}.manifest.json").read_bytes()
    assert manifest == Path(f"{by_config}.manifest.json").read_bytes()


def test_table_defaults_read_through_their_types():
    for table in _PARAMS.values():
        for key, param in table.items():
            if param.default is not None:
                _cast(param.kind, param.default, key)


def test_default_manifest_alongside_output(tmp_path):
    out = tmp_path / "mass.csv"
    rc = run_cli(
        ["mass", "--model", "siso", "--d", "2", "--eta", "2", "--beta", "1",
         "--output", str(out)]
    )
    assert rc == 0
    manifest = tmp_path / "mass.csv.manifest.json"
    assert manifest.exists()
    assert json.loads(manifest.read_text())["command"] == "mass"


def test_manifest_records_numpy_and_scipy_versions(tmp_path):
    manifest = tmp_path / "p.manifest.json"
    rc = run_cli(
        ["validate", "--check", "exponent-rates", "--perturb",
         "--output", str(tmp_path / "p.csv"), "--manifest", str(manifest)]
    )
    assert rc == 4  # a failed validation is recorded too
    payload = json.loads(manifest.read_text())
    assert payload == {
        "command": "validate",
        "package_version": prismconn.__version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "parameters": {"check": "exponent-rates", "perturb": True},
    }


def test_validate_subset_and_exit_codes(tmp_path):
    out = tmp_path / "checks.csv"
    rc = run_cli(
        ["validate", "--check", "union-find,exact-oracle", "--output", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert [r[0] for r in rows] == ["union-find", "exact-oracle"]
    assert all(r[1] == "PASS" for r in rows)


def test_validate_perturb_negative_control(tmp_path):
    rc = run_cli(
        ["validate", "--check", "exponent-rates", "--perturb",
         "--output", str(tmp_path / "p.csv")]
    )
    assert rc == 4
    header, rows = read_csv(tmp_path / "p.csv")
    assert rows[0][1] == "FAIL"


def test_every_check_passes_a_python_bool():
    # a comparison of numpy floats would pass np.True_
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    for r in results:
        assert type(r.passed) is bool, r.name


def test_validate_unknown_check():
    assert run_cli(["validate", "--check", "no-such-check"]) == 2


def test_run_checks_registry():
    assert set(CHECK_NAMES) == {
        "cross-form-h", "mass-oracle", "exponent-rates", "scaling-slopes",
        "union-find", "exact-oracle",
    }
    results = run_checks(["exponent-rates"])
    assert results[0].passed


COMMON_FLAGS = ("-h", "--help", "--output", "--format", "--manifest", "--config")
FLAGS = {
    "mass": ("--model", "--m", "--n", "--d", "--eta", "--beta"),
    "pfc": ("--prism", "--L", "--beta", "--eta", "--rho"),
    "simulate": ("--prism", "--L", "--beta", "--eta", "--rho",
                 "--trials", "--seed", "--poisson"),
    "field": ("--square", "--prism", "--L", "--model", "--m", "--n", "--radius",
              "--beta", "--eta", "--rho", "--grid", "--seed"),
    "validate": ("--check", "--perturb"),
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_every_flag(command, capsys):
    assert run_cli([command, "--help"]) == 0
    text = capsys.readouterr().out
    for flag in FLAGS[command] + COMMON_FLAGS:
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text), flag


def test_stdout_output(capsys):
    rc = run_cli(["mass", "--model", "siso", "--d", "2", "--eta", "2", "--beta", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("model,k,d,eta,beta")


def _cell_reference(value) -> str:
    """The per-cell CSV spelling the renderer has always produced."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _render_csv_reference(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell_reference(v) for v in row])
    return buf.getvalue()


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[True, None, 3, 0.1, "a,b"], [False, 2.5, None, -0.0, 'say "hi"'],
         [None, 1e-300, 10**20, float("inf"), ""]],
        # a column that is bool in one row only, and a column mixing 1 and True
        [[1, 0.5, None], [True, 0.25, False], [0, float("nan"), 7]],
        [[None], [""], [True]],  # one-column rows, where an empty cell is quoted
        [[1.5, True], [2.5], [3.5, None, False]],  # ragged rows
    ],
)
def test_csv_render_matches_per_cell_reference(rows):
    header = ["a", "b", "c", "d", "e"]
    assert _render("csv", header, rows) == _render_csv_reference(header, rows)


def test_csv_render_byte_identical_for_every_command(tmp_path, monkeypatch):
    tables = []

    def spy(fmt, header, rows, extra=None):
        tables.append((header, rows))
        return _render(fmt, header, rows, extra)

    monkeypatch.setattr("prismconn.cli._render", spy)
    runs = [
        ["mass", "--model", "mimo", "--m", "2..4", "--eta", "2,3"],
        ["pfc", "--rho", "0.05,0.5,0.9"],
        ["simulate", "--rho", "0.6", "--trials", "4", "--seed", "3"],
        ["validate", "--check", "union-find"],
    ]
    for argv in runs:
        assert run_cli([*argv, "--output", str(tmp_path / "out.csv")]) == 0
    assert len(tables) == len(runs)
    assert any(isinstance(v, bool) for _, rows in tables for row in rows for v in row)
    for header, rows in tables:
        assert _render("csv", header, rows) == _render_csv_reference(header, rows)


def field_table_old_way(domain, model, rho, grid_n, seed):
    """`field`'s header and rows as the whole-lattice pipeline built them:
    every lattice point, the prism's kept, then one connection_field call."""
    rng = np.random.default_rng(seed)
    if isinstance(domain, float):  # the side of a square
        lo, hi = (0.0, 0.0), (domain, domain)
        points = rng.random((round(rho * domain * domain), 2)) * domain
    else:
        lo, hi = domain.bounding_box
        points = sample_uniform_rng(domain, round(rho * domain.volume), rng)
    axes = [np.linspace(a, b, grid_n) for a, b in zip(lo, hi)]
    grid = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    if not isinstance(domain, float):
        grid = grid[domain.contains_many(grid)]
    header = ["x", "y", "z"][: len(lo)] + ["value"]
    return header, np.column_stack((grid, connection_field(points, model, grid))).tolist()


FIELD_CASES = {
    "siso square": (
        ["--square", "6", "--rho", "1.5", "--grid", "70", "--seed", "4"],
        (6.0, Siso(PathLossParams(1.0, 2.0, 2)), 1.5, 70, 4),
    ),
    "mimo house": (
        ["--prism", "house", "--L", "7", "--model", "mimo", "--m", "2", "--rho", "0.8",
         "--grid", "24", "--seed", "3"],
        (house_prism(7.0), Mimo(2, 2, PathLossParams(1.0, 2.0, 3)), 0.8, 24, 3),
    ),
    "unitdisk prism": (
        ["--prism", "house", "--L", "3", "--model", "unitdisk", "--radius", "1.2",
         "--rho", "0.5", "--grid", "17", "--seed", "5"],
        (house_prism(3.0), UnitDisk(1.2, PathLossParams(1.0, 2.0, 3)), 0.5, 17, 5),
    ),
}


@pytest.mark.parametrize("sink", ["file", "stdout", "json"])
@pytest.mark.parametrize("case", list(FIELD_CASES))
def test_field_output_is_the_whole_table_render(case, sink, tmp_path, capsys):
    argv, old_way = FIELD_CASES[case]
    header, rows = field_table_old_way(*old_way)
    out = tmp_path / "field.out"
    if sink == "stdout":
        assert run_cli(["field", *argv]) == 0
        written = capsys.readouterr().out
    else:
        assert run_cli(["field", *argv, "--format", "csv" if sink == "file" else sink,
                        "--output", str(out)]) == 0
        written = out.read_text(encoding="utf-8")
    if sink == "json":
        assert written == _render("json", header, rows)
    else:
        assert written == _render_csv_reference(header, rows)


def test_field_streams_one_slab_at_a_time(monkeypatch):
    grids = []
    real = connection_field

    def spy(points, model, grid):
        grids.append(len(grid))
        return real(points, model, grid)

    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr("prismconn.mc_sim.connection_field", spy)
    monkeypatch.setattr("sys.stdout", Sink())
    argv, _ = FIELD_CASES["mimo house"]
    assert run_cli(["field", *argv]) == 0
    planes = max(1, _FIELD_SLAB_POINTS // 24**2)
    assert 24 % planes != 0  # a short last slab
    assert len(grids) > 2 and max(grids) <= planes * 24**2
    assert len(writes) > 2  # the header, then a write per slab
    assert "".join(writes).count("\n") == 1 + 11_328


def test_field_grid_cap_comes_before_any_draw(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("nodes drawn before the lattice was checked")

    monkeypatch.setattr("prismconn.cli.sample_uniform_rng", no_draw)
    monkeypatch.setattr("numpy.random.default_rng", no_draw)
    field = ["field", "--rho", "0.3", "--seed", "1"]
    assert run_cli(field + ["--prism", "cube", "--L", "3", "--grid", "216"]) == 2
    assert "more than 10000000" in capsys.readouterr().err
    assert run_cli(field + ["--square", "5", "--grid", "3163"]) == 2
    assert "more than 10000000" in capsys.readouterr().err
    # --format json holds the whole table in memory, so its cap is tighter
    json_field = field + ["--format", "json"]
    assert run_cli(json_field + ["--prism", "cube", "--L", "3", "--grid", "47"]) == 2
    assert "more than 100000 for json" in capsys.readouterr().err
    assert run_cli(json_field + ["--square", "5", "--grid", "317"]) == 2
    assert "more than 100000 for json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # one node; its distances across a square of side 1e160 overflow to inf
        ["--square", "1e160", "--rho", "1e-320"],
        # finite distances, but beta r^2 overflows in MIMO H at the far corner
        ["--square", "1e150", "--rho", "1e-300", "--model", "mimo", "--beta", "1e10"],
        # the same in SISO H, whose exp(-inf) would read 0
        ["--square", "1e150", "--rho", "1e-300", "--model", "siso", "--beta", "1e10"],
        # r^4 overflows though beta r^4 would be about 1: H is not 0 there
        ["--square", "1e78", "--rho", "1e-154", "--model", "siso", "--eta", "4",
         "--beta", "1e-310"],
    ],
)
def test_field_refuses_an_unusable_distance_before_writing(argv, tmp_path, capsys):
    field = ["field", *argv, "--grid", "3", "--seed", "1"]
    out = tmp_path / "field.csv"
    assert run_cli(field + ["--output", str(out)]) == 2
    assert not out.exists()
    assert run_cli(field) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err
