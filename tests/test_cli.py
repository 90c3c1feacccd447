import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixpoint import __version__, cli
from fixpoint.cli import (_EXPERIMENTS, _REQUIRED, _SEED, main,
                          parse_config, run_config)
from fixpoint.errors import (ConfigError, ConvergenceError, LsViolationError,
                             NonFiniteError, NonselfExitError, StallError)
from fixpoint.gallery import list_maps, make_map
from fixpoint.picard import Orbit, orbit_csv, stability_constants


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_basics(tmp_path):
    p = _write(tmp_path, "a.cfg", """
        # a comment
        experiment = solve
        map = affine-halfline
        x0 = 3.0      # trailing comment
        tol = 1e-9
    """)
    values = parse_config(p)
    assert values["experiment"] == "solve"
    assert values["x0"] == "3.0"
    assert values["tol"] == "1e-9"


def test_parse_config_missing_experiment(tmp_path):
    p = _write(tmp_path, "a.cfg", "map = constant\n")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(p)


def test_parse_config_unknown_experiment(tmp_path):
    p = _write(tmp_path, "a.cfg",
               "experiment = dance\nmap = constant\n")
    with pytest.raises(ConfigError, match="dance"):
        parse_config(p)


def test_parse_config_bad_line_reports_line_number(tmp_path):
    p = _write(tmp_path, "a.cfg",
               "experiment = solve\nmap = constant\nnonsense\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:3"):
        parse_config(p)


def test_parse_config_duplicate_key(tmp_path):
    p = _write(tmp_path, "a.cfg",
               "experiment = solve\nmap = constant\nmap = constant\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(p)


def test_parse_config_foreign_key_for_experiment(tmp_path, capsys):
    p = _write(tmp_path, "a.cfg",
               "experiment = solve\nmap = constant\nq = 0.9\nx0 = 0.0\n")
    with pytest.raises(ConfigError, match="'q'"):
        parse_config(p)
    # limit reads only the inner-solve keys of a path config, so q is
    # foreign there too, and the run exits 2 like any unknown key
    p = _write(tmp_path, "limit.cfg",
               "experiment = limit\nmap = affine-halfline\nq = 0.3\n")
    out = tmp_path / "o"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert "'q'" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_accepts_map_params(tmp_path):
    p = _write(tmp_path, "a.cfg",
               "experiment = solve\nmap = rakotch-decay\n"
               "map.a = 2.0\nx0 = 1.0\n")
    assert parse_config(p)["map.a"] == "2.0"


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# experiments through the real entry point

def test_solve_experiment_writes_orbit_and_solution(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", """
        experiment = solve
        map = affine-halfline
        x0 = 3.0
        tol = 1e-12
    """)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    sol = (out / "solution.txt").read_text()
    assert "iterations=41" in sol
    orbit = (out / "orbit.csv").read_text().strip().split("\n")
    assert orbit[0] == "i,x0,residual"
    assert orbit[1].startswith("0,3.0")
    assert len(orbit) == 43          # header + 42 points
    assert "engine=fixpoint" in (out / "manifest.txt").read_text()


def test_solve_from_a_start_whose_residual_overflows(tmp_path):
    # the residual of 1e160 squares past the largest float; its image
    # 5e159 is finite, so the solve runs on instead of ending in
    # NonFiniteError (exit 1)
    cfg = _write(tmp_path, "far.cfg", "experiment=solve\n"
                 "map=affine-halfline\nx0=1e160\ntol=1e-10\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "iterations=564\n" in (out / "solution.txt").read_text()
    assert not (out / "error.txt").exists()


def test_solve_nonself_exit_gives_status_one_and_error_file(tmp_path):
    cfg = _write(tmp_path, "exit.cfg", """
        experiment = solve
        map = constant
        map.c = 2.0
        x0 = 0.0
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = (out / "error.txt").read_text()
    assert "error=NonselfExitError" in err
    assert (out / "orbit.csv").exists()


def test_stability_experiment_passes_and_reproduces(tmp_path):
    cfg = _write(tmp_path, "stab.cfg", """
        experiment = stability
        map = rakotch-decay
        M = 1.0
        epsilon = 0.5
        trials = 5
        n = 200
        seed = 11
    """)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    r1 = (out1 / "stability.txt").read_text()
    assert r1 == (out2 / "stability.txt").read_text()
    assert "pass_count=5" in r1


def test_stability_seed_override_changes_draws(tmp_path):
    cfg = _write(tmp_path, "stab.cfg", """
        experiment = stability
        map = rakotch-decay
        M = 1.0
        epsilon = 0.5
        trials = 3
        n = 200
        seed = 11
    """)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", str(cfg), "--out", str(out1)])
    main(["run", str(cfg), "--out", str(out2), "--seed", "12"])
    assert ((out1 / "stability.txt").read_text()
            != (out2 / "stability.txt").read_text())


def test_stability_uses_known_fixed_point_when_xbar_missing(tmp_path):
    cfg = _write(tmp_path, "stab.cfg", """
        experiment = stability
        map = damped-rational
        M = 1.0
        epsilon = 0.5
        trials = 2
        n = 100
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0


def test_trace_experiment_writes_path(tmp_path):
    cfg = _write(tmp_path, "trace.cfg", """
        experiment = trace
        map = affine-halfline
        target-t = 0.8
        q = 0.9
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "path.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,x0,")
    assert lines[-1].startswith("0.8,")


def test_trace_violation_reports_structured_error(tmp_path):
    cfg = _write(tmp_path, "trace.cfg", """
        experiment = trace
        map = constant
        map.c = 2.0
        target-t = 0.9
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = (out / "error.txt").read_text()
    assert "error=LsViolationError" in err
    assert "lam=2.0" in err
    assert "t=0.50000" in err
    assert "point=1.0" in err


def test_limit_experiment_reports_boundary_fixed_point(tmp_path):
    cfg = _write(tmp_path, "limit.cfg", """
        experiment = limit
        map = affine-halfline
        final-tol = 1e-6
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lim = (out / "limit.txt").read_text()
    assert "on_boundary=True" in lim
    assert "point=-0.99999" in lim
    # terminal row present in the path dump
    assert (out / "path.csv").read_text().strip().split("\n")[-1] \
        .startswith("1.0,")


def test_limit_schedule_reaching_one_exits_one(tmp_path):
    # 1 - 0.5**54 rounds to 1.0 while the tail bound is still ~3e-16, above
    # final-tol: the schedule is exhausted, not misconfigured
    cfg = _write(tmp_path, "limit.cfg", """
        experiment = limit
        map = affine-halfline
        final-tol = 1e-17
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = (out / "error.txt").read_text()
    assert "error=ConvergenceError" in err
    tail = float(err.split("tail_bound=")[1].split("\n")[0])
    assert 1e-17 <= tail < 1e-15
    assert not (out / "limit.txt").exists()


def test_limit_schedule_running_out_of_steps_exits_one(tmp_path):
    # at ratio 0.95 the 399 schedule steps end with t_n below 1.0 and the
    # tail bound, about 3.9e-9, still above final-tol
    cfg = _write(tmp_path, "limit.cfg", """
        experiment = limit
        map = affine-halfline
        ratio = 0.95
        final-tol = 1e-12
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = (out / "error.txt").read_text()
    assert "error=ConvergenceError" in err
    assert "exhausted 399 steps" in err
    tail = float(err.split("\ntail_bound=")[1].split("\n")[0])
    assert 1e-12 < tail < 1e-8
    assert not (out / "limit.txt").exists()


def test_certify_contractive_map_exits_zero(tmp_path):
    cfg = _write(tmp_path, "cert.cfg", """
        experiment = certify
        map = rakotch-decay
        pairs = 32
        seed = 5
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    text = (out / "certify.txt").read_text()
    assert "certified=True" in text
    assert "pairs_passed=32" in text


def test_certify_sentinel_fails_admissibility(tmp_path):
    cfg = _write(tmp_path, "cert.cfg", """
        experiment = certify
        map = planar-rotation
        pairs = 8
    """)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    text = (out / "certify.txt").read_text()
    assert "admissible_on_grid=False" in text
    assert "contractive_on_pairs=True" in text
    assert "certified=False" in text


def test_certify_zero_pairs_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "cert.cfg", """
        experiment = certify
        map = rakotch-decay
        pairs = 0
    """)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "pairs" in capsys.readouterr().err


def test_config_error_exits_two_with_message(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", """
        experiment = solve
        map = no-such-map
        x0 = 0.0
    """)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # the message itself, not the repr a KeyError makes of it
    assert capsys.readouterr().err.startswith(
        "fixpoint: unknown map 'no-such-map'; known: affine-halfline")


@pytest.mark.parametrize("text,message", [
    ("experiment = solve\nmap = constant\n= 1\nx0 = 0.0\n",
     r"bad\.cfg:3: empty key$"),
    ("experiment = solve\nx0 = 0.0\n", "missing required key 'map'$"),
    # c = 2 lies outside the box: no known fixed point to default xbar to
    ("experiment = stability\nmap = constant\nmap.c = 2.0\nM = 1.0\n"
     "epsilon = 0.5\nn = 200\n",
     "map 'constant' has no known fixed point; give one with 'xbar'$"),
], ids=["empty-key", "no-map", "no-xbar"])
def test_usage_errors_exit_two_without_a_directory(tmp_path, capsys, text,
                                                    message):
    cfg = _write(tmp_path, "bad.cfg", text)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert re.search(message, capsys.readouterr().err.rstrip("\n"))
    assert not out.exists()


def test_bad_map_param_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", """
        experiment = solve
        map = rakotch-decay
        map.a = 500.0
        x0 = 1.0
    """)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "a = 500" in capsys.readouterr().err


_NONFINITE_BASES = {
    "tol": "experiment = solve\nmap = affine-halfline\nx0 = 3.0\n",
    "x0": "experiment = solve\nmap = affine-halfline\n",
    "M": "experiment = stability\nmap = rakotch-decay\nepsilon = 0.5\n"
         "trials = 2\nn = 200\n",
    "epsilon": "experiment = stability\nmap = rakotch-decay\nM = 1.0\n"
               "trials = 2\nn = 200\n",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(_NONFINITE_BASES))
def test_nonfinite_number_is_a_config_error(tmp_path, capsys, key, value):
    cfg = _write(tmp_path, "bad.cfg",
                 _NONFINITE_BASES[key] + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' must be finite" in err
    assert not out.exists()


_STABILITY = ("experiment = stability\nmap = rakotch-decay\nM = 1.0\n"
              "epsilon = 0.5\ntrials = 2\nn = 200\n")
_CERTIFY = "experiment = certify\nmap = rakotch-decay\npairs = 4\n"
_SOLVE = "experiment = solve\nmap = affine-halfline\nx0 = 4.0\n"


@pytest.mark.parametrize("text,flags,match", [
    (_STABILITY + "seed = -5\n", [], "key 'seed' must be >= 0, got -5"),
    (_CERTIFY + "seed = -1\n", [], "key 'seed' must be >= 0, got -1"),
    (_CERTIFY, ["--seed", "-1"], "--seed must be >= 0, got -1"),
    (_STABILITY + "seed = 3\n", ["--seed", "-5"],
     "--seed must be >= 0, got -5"),
    # solve draws nothing from the seed, and refuses a negative one all
    # the same
    (_SOLVE, ["--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["stability-key", "certify-key", "certify-flag", "flag-over-key",
        "solve-flag"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, text, flags,
                                         match):
    cfg = _write(tmp_path, "neg.cfg", text)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fixpoint: ") and match in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--seed", "3"]],
                         ids=["no-flag", "flag"])
@pytest.mark.parametrize("value,match", [
    ("abc", "key 'seed': not an integer: 'abc'"),
    ("-5", "key 'seed' must be >= 0, got -5"),
])
def test_bad_seed_key_is_refused_with_or_without_the_flag(
        tmp_path, capsys, value, match, flags):
    cfg = _write(tmp_path, "bad.cfg", _SOLVE + f"seed = {value}\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fixpoint: ") and match in err
    assert not out.exists()


# a map and valid values of the required keys for each kind, so that a
# config built on one fails only for the key a test changes
_VALID = {"solve": {"map": "affine-halfline", "x0": "3.0"},
          "stability": {"map": "rakotch-decay", "M": "1.0",
                        "epsilon": "0.5", "trials": "2", "n": "200"},
          "trace": {"map": "affine-halfline"},
          "limit": {"map": "affine-halfline"},
          "certify": {"map": "rakotch-decay", "pairs": "4"}}


def _config(kind: str, changes: dict) -> str:
    """The valid config of kind with changes applied; None drops a key."""
    keys = {"experiment": kind, **_VALID[kind], **changes}
    return "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


def _past(parse, bound: str):
    """The value just past bound: the least value itself when strict."""
    op, least = bound.split()
    least = parse(least)
    if op == ">":
        return least
    return least - 1 if parse is int else math.nextafter(least, -math.inf)


_BOUNDED = [(kind, key, spec) for kind, (keys, _) in _EXPERIMENTS.items()
            for key, spec in {**_SEED, **keys}.items() if spec[2]]
_REQUIRED_KEYS = [(kind, key) for kind, (keys, _) in _EXPERIMENTS.items()
                  for key, spec in keys.items() if spec[1] is _REQUIRED]


@pytest.mark.parametrize("kind", sorted(_VALID))
def test_valid_configs_run(tmp_path, kind):
    cfg = _write(tmp_path, "ok.cfg", _config(kind, {}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("kind,key,spec", _BOUNDED,
                         ids=[f"{k}-{key}" for k, key, _ in _BOUNDED])
def test_value_past_its_bound_is_a_config_error(tmp_path, capsys, kind,
                                                key, spec):
    parse, _, bound = spec
    value = _past(parse, bound)
    cfg = _write(tmp_path, "bad.cfg", _config(kind, {key: repr(value)}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"key {key!r} must be {bound}, got {value}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,key", _REQUIRED_KEYS,
                         ids=[f"{k}-{key}" for k, key in _REQUIRED_KEYS])
def test_missing_required_key_is_a_config_error(tmp_path, capsys, kind,
                                                key):
    cfg = _write(tmp_path, "bad.cfg", _config(kind, {key: None}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"missing required key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_certify_grid_max_at_its_bound_runs(tmp_path):
    # below 1e-6 the grid's geometric part would run downward, and the
    # refusal used to name a sorted grid the config never gave
    cfg = _write(tmp_path, "ok.cfg", _config("certify", {"grid-max": "1e-6"}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "grid_max=1e-06" in (out / "certify.txt").read_text()


# error.txt of each run failure with every payload field set, byte for
# byte: the fields in the order the error class lists them, an orbit
# going to orbit.csv instead
_ERROR_TEXTS = {
    "stall": (StallError("step collapsed", t=0.25,
                         point=np.array([1.0, -0.5]), step=1e-15),
              "error=StallError\nmessage=step collapsed\nt=0.25\n"
              "step=1e-15\npoint=1.0;-0.5\n"),
    "non-finite": (NonFiniteError("the map sent it",
                                  point=np.array([math.nan, math.inf]),
                                  last_inside=np.array([0.5, 2.0])),
                   "error=NonFiniteError\nmessage=the map sent it\n"
                   "point=nan;inf\nlast_inside=0.5;2.0\n"),
    "ls-violation": (LsViolationError("boundary condition fails", t=0.5,
                                      point=np.array([2.0]), lam=1.5),
                     "error=LsViolationError\nmessage=boundary condition "
                     "fails\nt=0.5\nlam=1.5\npoint=2.0\n"),
    "convergence": (ConvergenceError("no residual", residual=0.125,
                                     tail_bound=3.0),
                    "error=ConvergenceError\nmessage=no residual\n"
                    "residual=0.125\ntail_bound=3.0\n"),
    "nonself-exit": (NonselfExitError("iterate 1 left", orbit=Orbit(
        np.zeros((2, 1)), np.zeros(1), 1, 0.0)),
                     "error=NonselfExitError\nmessage=iterate 1 left\n"),
}


@pytest.mark.parametrize("name", sorted(_ERROR_TEXTS))
def test_error_text_writes_each_payload_field_in_order(name):
    exc, text = _ERROR_TEXTS[name]
    assert cli._error_text(exc) == text


def test_list_maps_names_everything(capsys):
    assert main(["list-maps"]) == 0
    out = capsys.readouterr().out
    for name in ("affine-halfline", "rakotch-decay", "constant",
                 "planar-rotation", "damped-rational"):
        assert name in out
    # every map's notes and parameters, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f298415a2ebf59127d62b9dadfb91bce34a221620d51a9644e26795f9fa2c5e6")


# ---------------------------------------------------------------------------
# the README's example configs

_README = Path(__file__).resolve().parents[1] / "README.md"
# the files the README names for each experiment kind, besides manifest.txt
_README_OUTPUTS = {"solve": {"orbit.csv", "solution.txt"},
                   "stability": {"stability.txt"}, "trace": {"path.csv"},
                   "limit": {"path.csv", "limit.txt"},
                   "certify": {"certify.txt"}}


def test_readme_configs_run_and_write_their_files(tmp_path):
    texts = re.findall(r"```ini\n(.*?)```", _README.read_text(), re.S)
    kinds = []
    for j, text in enumerate(texts):
        cfg = _write(tmp_path, f"readme{j}.cfg", text)
        kind = parse_config(cfg)["experiment"]
        out = tmp_path / f"out{j}"
        assert run_config(cfg, out, None) == 0, text
        assert {p.name for p in out.iterdir()} == \
            _README_OUTPUTS[kind] | {"manifest.txt"}
        kinds.append(kind)
    assert sorted(kinds) == sorted(_README_OUTPUTS)


def test_an_index_past_the_largest_float_exits_two_without_a_directory(
        tmp_path, capsys):
    # the README's stability config at epsilon = 1e-300: eps (1 - phi(eps))
    # underflows to 0, so no settling time can be certified
    text = re.search(r"```ini\n(# stability:.*?)```", _README.read_text(),
                     re.S).group(1)
    text, n = re.subn(r"(?m)^epsilon=.*$", "epsilon=1e-300", text)
    assert n == 1
    cfg = _write(tmp_path, "tiny.cfg", text)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "fixpoint: settling time bound 4 (M + 1) / ((1 - phi(eps)) eps) = "
        "8.0 / 0.0 exceeds the largest float")
    assert not out.exists()


# one table per experiment kind, and one for the seed, whose rows give
# each key, its type, its default and its bound
_KEY_TABLE = re.compile(r"^\| (.+) key \| type \| default \| bound \|\n"
                        r"\|[-| ]+\|\n((?:\|.*\n)+)", re.M)


def test_readme_key_tables_match_the_cli():
    want = {f"`{kind}`": keys for kind, (keys, _) in _EXPERIMENTS.items()}
    want["every experiment's"] = _SEED
    tables = dict(_KEY_TABLE.findall(_README.read_text()))
    assert tables.keys() == want.keys()
    for head, rows in tables.items():
        got = {}
        for row in rows.splitlines():
            key, *cells = (c.strip().strip("`")
                           for c in row.strip("|").split("|"))
            got[key] = cells
        assert got.keys() == want[head].keys(), head
        for key, (parse, default, bound) in want[head].items():
            kind, doc_default, doc_bound = got[key]
            assert kind == parse.__name__.lstrip("_"), key
            assert doc_bound == (bound or ""), key
            if default is _REQUIRED or default is None:
                assert doc_default == ("optional" if default is None
                                       else "required"), key
            else:
                assert parse(doc_default) == default, key


# ---------------------------------------------------------------------------
# golden bytes: every report but manifest.txt must match its recorded
# sha256 digest, so a change that alters a report has to update it on purpose

_GOLDEN = {
    "solve": (
        "experiment = solve\nmap = affine-halfline\nx0 = 3.0\n"
        "tol = 1e-12\n", 0,
        {"orbit.csv": "f178a17a872c59c963bba5071035ca3c"
                      "82ecdba405bee76c891c4a2696d47535",
         "solution.txt": "0a5efd0542f99b576f9e471c7d663124"
                         "f63e97a723e54bb808072cb19769c242"}),
    # x0 is the fixed point, so tol is met at the start: 0 iterations, and
    # orbit.csv still holds the start row and one step
    "solve-at-start": (
        "experiment = solve\nmap = affine-halfline\nx0 = -1.0\n", 0,
        {"orbit.csv": "2d2c228810029002e1554643c90f5fc9"
                      "0afc4bb62842eeec598a377d8077cda9",
         "solution.txt": "63fac6e99dedd962d026287edb1d15dc"
                         "f22af81508eb08c53e9b1e39931bfcba"}),
    "solve-nonself-exit": (
        "experiment = solve\nmap = constant\nmap.c = 2.0\nx0 = 0.0\n", 1,
        {"error.txt": "affe67fff74065a5c45bf36cb9679312"
                      "3eca1e156d887c3f4426cffedc26b9fb",
         "orbit.csv": "2f49fce873ef7b25e9988a40e07ee92b"
                      "27f9f3bdabe5d3948b92485a63c4021a"}),
    # 10,000 iterations: orbit.csv crosses a chunk boundary of the writer
    "solve-rakotch": (
        "experiment = solve\nmap = rakotch-decay\nx0 = 1.0\n"
        "tol = 1e-8\n", 0,
        {"orbit.csv": "7eecd6ffcf279411d2fc98661dd66244"
                      "afa1264b18cd747fef17523f61285d0a",
         "solution.txt": "7ed533921624ecf9ebe20c537a509fe1"
                         "06cf3e69270f152acc7d2f4b88ea22d0"}),
    # a ConvergenceError carrying residual=
    "solve-max-iter": (
        "experiment = solve\nmap = rakotch-decay\nx0 = 1.0\n"
        "tol = 1e-10\nmax-iter = 5\n", 1,
        {"error.txt": "89be0979d233806375a194d15e54e7b8"
                      "dfdee878a87ff16b4209f9c0fcaa48f0"}),
    # delta = 0.00625, the exact value: 1 - phi(t) is taken in closed form
    "stability": (
        "experiment = stability\nmap = rakotch-decay\nM = 1.0\n"
        "epsilon = 0.5\ntrials = 5\nn = 200\nseed = 11\n", 0,
        {"stability.txt": "ec331c940a336fa9e19e5cc842fed056"
                          "66b408bc172e502061b4224ac08326bf"}),
    "trace": (
        "experiment = trace\nmap = affine-halfline\ntarget-t = 0.8\n"
        "q = 0.9\n", 0,
        {"path.csv": "ccd185758c6a565f11e4a9162b7bc35b"
                     "26338a46f0342605b168bc7d1c90dcca"}),
    "trace-rotation": (
        "experiment = trace\nmap = planar-rotation\ntarget-t = 0.8\n"
        "q = 0.9\n", 0,
        {"path.csv": "9a31508cc123807e8825ea76052afb68"
                     "b7d4c93af1310696883bca746f891fb5"}),
    "trace-violation": (
        "experiment = trace\nmap = constant\nmap.c = 2.0\n"
        "target-t = 0.9\n", 1,
        {"error.txt": "a7ba58e531fa33723f0ac073b210685a"
                      "f2c49c9c3490b5f2b44c897101882780"}),
    "limit": (
        "experiment = limit\nmap = affine-halfline\nfinal-tol = 1e-6\n", 0,
        {"limit.txt": "5a56a2ed035b69e8c4f7ea93c4bfdbaa"
                      "25755c7df965223704fec280b0cfa311",
         "path.csv": "5a15a0bcbf45421c2f9b9bfa2c13850f"
                     "42cee0119b0e614a28be698a6d59d199"}),
    # a ConvergenceError carrying tail_bound=: the schedule reaches t = 1.0
    "limit-exhausted": (
        "experiment = limit\nmap = affine-halfline\nfinal-tol = 1e-17\n",
        1,
        {"error.txt": "74341bc4d2c0b5f0976d7f57b9e503e6"
                      "90fc983bb251325f83968e51bee532a8"}),
    "certify": (
        "experiment = certify\nmap = rakotch-decay\npairs = 32\n"
        "seed = 5\n", 0,
        {"certify.txt": "965b4ca982b9ca53bfd2cd4860066077"
                        "07bd9eb0f85ca18d3fa5119935a2295a"}),
    "certify-rotation": (
        "experiment = certify\nmap = planar-rotation\npairs = 64\n"
        "seed = 5\n", 1,
        {"certify.txt": "202732cbecbae32757fff33c919743dc"
                        "c3d981399f04b7d4ccc240df9a684130"}),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_reports_match_golden_bytes(tmp_path, name):
    text, status, digests = _GOLDEN[name]
    cfg = _write(tmp_path, f"{name}.cfg", text)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == status
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != "manifest.txt"}
    assert got == digests


def test_drives_pass_boundary_distance_only_point_arrays(tmp_path,
                                                       monkeypatch):
    # affine-halfline with a halfline whose boundary_distance refuses
    # anything but a point array: float_points does not promise it the
    # float form, so the drives that step the map on floats still pass it
    # arrays, and the reports are the gallery map's bytes
    seen = []

    def array_only(mapping):
        bdist = mapping.domain.boundary_distance

        def strict(p):
            if not isinstance(p, np.ndarray):
                raise TypeError(f"boundary_distance got {p!r}")
            seen.append(p)
            return bdist(p)

        return replace(mapping, domain=replace(mapping.domain,
                                               boundary_distance=strict))

    def strict_map(name, **params):
        entry = make_map(name, **params)
        return replace(entry, mapping=array_only(entry.mapping))

    monkeypatch.setattr(cli, "make_map", strict_map)
    for name in ("solve", "trace", "limit"):
        text, status, digests = _GOLDEN[name]
        assert "map = affine-halfline" in text
        cfg = _write(tmp_path, f"{name}.cfg", text)
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out)]) == status
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "manifest.txt"}
        assert got == digests
    assert seen


def test_manifest_lists_its_keys_in_order(tmp_path):
    cfg = _write(tmp_path, "m.cfg",
                 "experiment = stability\nmap = rakotch-decay\n"
                 "map.a = 2.0\nM = 1.0\nepsilon = 0.5\ntrials = 2\n"
                 "n = 200\nseed = 3\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    lines = (out / "manifest.txt").read_text().split("\n")
    assert lines[-1] == ""
    fields = [line.partition("=") for line in lines[:-1]]
    assert [k for k, _, _ in fields] == [
        "engine", "experiment", "map", "map_params", "seed", "config",
        "status", "elapsed_seconds"]
    values = {k: v for k, _, v in fields}
    assert values["engine"] == f"fixpoint {__version__}"
    assert values["experiment"] == "stability"
    assert values["map"] == "rakotch-decay"
    assert values["map_params"] == "map.a=2.0"
    assert values["seed"] == "7"
    assert values["status"] == "0"
    assert float(values["elapsed_seconds"]) >= 0.0


# ---------------------------------------------------------------------------
# writing the reports

_SRC = Path(__file__).resolve().parents[1] / "src"


def _run_under_ascii_locale(*args):
    """Run the CLI in a subprocess under the C locale, without UTF-8 mode
    or locale coercion, so its filesystem encoding is ASCII."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": os.pathsep.join(
               filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fixpoint.cli", *args],
                          env=env, capture_output=True, timeout=120)


def test_non_ascii_config_path_is_written_under_an_ascii_locale(tmp_path):
    # under the C locale, without UTF-8 mode, the path's bytes reach
    # Python as surrogate escapes; the manifest writes them back as they
    # were, so its config line holds the path's own bytes
    cfg = _write(tmp_path, os.fsdecode("\u00e9".encode() + b".cfg"), _SOLVE)
    out = tmp_path / "o"
    proc = _run_under_ascii_locale("run", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (b"\nconfig=" + os.fsencode(cfg) + b"\n"
            in (out / "manifest.txt").read_bytes())


def test_non_ascii_config_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # the config is read as UTF-8 whatever the locale, so a non-ASCII
    # comment parses, and the out key names the directory by its bytes
    out = tmp_path / os.fsdecode("é".encode() + b"out")
    cfg = tmp_path / "a.cfg"
    cfg.write_bytes(_SOLVE.encode() + "# café\n".encode()
                    + b"out = " + os.fsencode(out) + b"\n")
    proc = _run_under_ascii_locale("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert (out / "solution.txt").is_file()


def test_importing_the_cli_loads_no_numpy_random_of_its_own():
    # numpy 2 loads numpy.random on first use; a solve or a trace never
    # draws, and loading it at import cost about 2 MiB of peak memory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy; print('numpy.random' in sys.modules); "
            "import fixpoint.cli; print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    before, after = proc.stdout.split()
    assert after == before, proc.stderr


def _must_not_run(*args, **kwargs):
    raise AssertionError("the experiment ran")


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("via_key", [False, True], ids=["flag", "out-key"])
def test_out_at_or_under_a_file_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch, under, via_key):
    taken = _write(tmp_path, "taken", "keep me\n")
    out = taken / "sub" if under else taken
    monkeypatch.setattr(cli, "solve_fixed_point", _must_not_run)
    cfg = _write(tmp_path, "a.cfg", _SOLVE + (f"out = {out}\n" if via_key
                                              else ""))
    flags = [] if via_key else ["--out", str(out)]
    assert main(["run", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fixpoint: output directory {out} cannot be "
                          "made: ")
    assert f"{taken} is not a directory" in err
    assert taken.read_bytes() == b"keep me\n"


def test_a_report_that_cannot_be_written_exits_two_naming_it(tmp_path,
                                                              capsys):
    out = tmp_path / "o"
    (out / "orbit.csv").mkdir(parents=True)
    cfg = _write(tmp_path, "a.cfg", _SOLVE)
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fixpoint: {out / 'orbit.csv'}: cannot write "
                          "report: ")
    assert not any((out / "orbit.csv").iterdir())
    assert not (out / "manifest.txt").exists()


def test_an_outdir_that_cannot_be_examined_is_refused_naming_it(tmp_path,
                                                                capsys):
    # a path component longer than any file name: stat raises OSError
    # (ENAMETOOLONG), which pathlib's exists does not swallow
    outdir = tmp_path / ("x" * 4096) / "o"
    with pytest.raises(ConfigError) as err:
        cli._refuse_outdir(outdir)
    cause = err.value.__cause__
    assert isinstance(cause, OSError)
    assert str(err.value) == f"output directory {outdir}: {cause}"
    cfg = _write(tmp_path, "a.cfg", _SOLVE)
    assert main(["run", str(cfg), "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == f"fixpoint: {err.value}\n"


def _orbit_write_peak(outdir: Path, rows: int) -> int:
    """The traced allocation peak of writing an orbit of `rows` points."""
    rng = np.random.default_rng(rows)
    orbit = Orbit(points=rng.random((rows, 1)), residuals=rng.random(rows - 1),
                  exited_domain_at=None, perturbation_bound=0.0)
    tracemalloc.start()
    try:
        cli._write(outdir, "orbit.csv", orbit_csv(orbit))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_write_holds_one_chunk_whatever_the_length(tmp_path):
    mib = 2.0 ** 20
    # a first write builds the CSV kernel's tables once per process, which
    # is no growth with the length, so it lands in neither peak
    _orbit_write_peak(tmp_path / "first", 10)
    short = _orbit_write_peak(tmp_path / "short", 50_000)
    long = _orbit_write_peak(tmp_path / "long", 200_000)
    assert (tmp_path / "long" / "orbit.csv").read_text().count("\n") \
        == 200_001
    assert abs(long - short) <= 0.25 * mib
    assert long < 2.0 * mib


# ---------------------------------------------------------------------------
# every report but manifest.txt reproduces byte for byte

@st.composite
def _stability_configs(draw):
    name = draw(st.sampled_from([
        n for n in list_maps() if make_map(n).known_fixed_point is not None
        and make_map(n).mapping.declared_modulus.rakotch]))
    M = draw(st.sampled_from([0.5, 1.0, 2.0]))
    epsilon = draw(st.sampled_from([0.25, 0.5])) * M
    k = stability_constants(
        M, epsilon, make_map(name).mapping.declared_modulus).k
    return (f"experiment = stability\nmap = {name}\nM = {M!r}\n"
            f"epsilon = {epsilon!r}\ntrials = {draw(st.integers(1, 12))}\n"
            f"n = {k + draw(st.integers(0, 40))}\n")


_CERTIFY_CONFIGS = st.builds(
    "experiment = certify\nmap = {}\npairs = {}\ngrid-points = {}\n".format,
    st.sampled_from(list_maps()), st.integers(1, 200), st.integers(2, 80))


@given(st.one_of(_stability_configs(), _CERTIFY_CONFIGS),
       st.integers(0, 2 ** 63 - 1))
def test_every_report_reproduces_byte_for_byte(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _write(tmp, "run.cfg", config)
        reports = []
        for out in (tmp / "o1", tmp / "o2"):
            status = main(["run", str(cfg), "--out", str(out),
                           "--seed", str(seed)])
            reports.append((status, {p.name: p.read_bytes()
                                     for p in out.iterdir()
                                     if p.name != "manifest.txt"}))
    assert reports[0] == reports[1]
    assert reports[0][1]
