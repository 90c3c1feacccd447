import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixpoint import __version__
from fixpoint.cli import main, parse_config
from fixpoint.errors import ConfigError
from fixpoint.gallery import list_maps, make_map
from fixpoint.picard import stability_constants


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
    assert "no-such-map" in capsys.readouterr().err


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


def test_list_maps_names_everything(capsys):
    assert main(["list-maps"]) == 0
    out = capsys.readouterr().out
    for name in ("affine-halfline", "rakotch-decay", "constant",
                 "planar-rotation", "damped-rational"):
        assert name in out


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
    "stability": (
        "experiment = stability\nmap = rakotch-decay\nM = 1.0\n"
        "epsilon = 0.5\ntrials = 5\nn = 200\nseed = 11\n", 0,
        {"stability.txt": "2546c3fc714e611304eca34b6c17b520"
                          "c6f09ba48883d320ef54b6a0bad68013"}),
    "trace": (
        "experiment = trace\nmap = affine-halfline\ntarget-t = 0.8\n"
        "q = 0.9\n", 0,
        {"path.csv": "ccd185758c6a565f11e4a9162b7bc35b"
                     "26338a46f0342605b168bc7d1c90dcca"}),
    "trace-rotation": (
        "experiment = trace\nmap = planar-rotation\ntarget-t = 0.8\n"
        "q = 0.9\n", 0,
        {"path.csv": "12df92fe3f0fcea414580ea6559d8ece"
                     "5a9718f172b8a82abb6efda679a23425"}),
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
