"""The benchmark's workloads: the configs each one runs and the checks on
their reports.

Every config goes through ``fixpoint.cli.run_config`` exactly as
``fixpoint run`` would send it.  A config run fails when its exit status
differs from the expected one, when its closed-form oracle rejects the
reports, or when the reports differ byte for byte from the same run's first
pass.  The oracles read only the report files and the gallery's closed
forms, so they hold for any workload seed.  They read the files from disk,
a row at a time, and run in ``run.py`` after the workload process has
ended, so their memory never counts towards the workload's peak.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# The oracle of a config: the directory of its first pass's reports in,
# a list of error messages out (empty when the reports pass).
Oracle = Callable[[Path], list[str]]


def _fields(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key, value)
    return out


def _rows(path: Path) -> Iterator[list[str]]:
    """The data rows of a CSV report, read one at a time."""
    with path.open(newline="") as f:
        rows = csv.reader(f)
        next(rows, None)
        yield from rows


def _need(reports: Path, *names: str) -> list[str]:
    return [f"missing report {n}" for n in names
            if not (reports / n).is_file()]


def stability_oracle(k: int, trials: int) -> Oracle:
    """The certified settling index is k and every trial passes."""
    def check(reports: Path) -> list[str]:
        errs = _need(reports, "stability.txt")
        if errs:
            return errs
        f = _fields(reports / "stability.txt")
        if f.get("k") != str(k):
            errs.append(f"k={f.get('k')}, expected {k}")
        if f.get("pass_count") != str(trials) or f.get("trials") != str(
                trials):
            errs.append(f"pass_count={f.get('pass_count')} of "
                        f"trials={f.get('trials')}, expected {trials}")
        return errs
    return check


def solve_oracle(tol: float) -> Oracle:
    """rakotch-decay from x0 = 1: orbit row i is 1 / (i + 1), and the
    reported residual is within tol."""
    def check(reports: Path) -> list[str]:
        errs = _need(reports, "orbit.csv", "solution.txt")
        if errs:
            return errs
        worst = max((abs(float(r[1]) - 1.0 / (int(r[0]) + 1))
                     for r in _rows(reports / "orbit.csv")),
                    default=float("inf"))
        if not worst <= 1e-12:
            errs.append(f"orbit deviates from 1/(i+1) by {worst!r}")
        res = float(_fields(reports / "solution.txt")["residual"])
        if not res <= tol:
            errs.append(f"residual {res!r} above tol {tol!r}")
        return errs
    return check


def trace_oracle(known_path: Callable, target_t: float) -> Oracle:
    """Every path row is within 1e-8 of the closed-form path, and the path
    ends exactly at the target parameter."""
    def check(reports: Path) -> list[str]:
        errs = _need(reports, "path.csv")
        if errs:
            return errs
        worst, last_t = 0.0, None
        for r in _rows(reports / "path.csv"):
            last_t = r[0]
            exact = known_path(float(r[0]))
            worst = max(worst, max(abs(float(r[1 + j]) - float(exact[j]))
                                   for j in range(len(exact))))
        if not worst <= 1e-8:
            errs.append(f"path deviates from the closed form by {worst!r}")
        if last_t is None or float(last_t) != target_t:
            errs.append(f"last t={last_t}, expected {target_t!r}")
        return errs
    return check


def limit_oracle(point: float) -> Oracle:
    """The t -> 1 limit is the boundary fixed point."""
    def check(reports: Path) -> list[str]:
        errs = _need(reports, "limit.txt", "path.csv")
        if errs:
            return errs
        f = _fields(reports / "limit.txt")
        x = float(f["point"])
        if not abs(x - point) <= 1e-11:
            errs.append(f"limit point {x!r}, expected {point!r}")
        if f.get("on_boundary") != "True":
            errs.append(f"on_boundary={f.get('on_boundary')}, expected True")
        return errs
    return check


def violation_oracle() -> Oracle:
    """The constant map c = 2 on [-1, 1] pins at t = 1/2 with T x = 2 x
    (the windows of acceptance criterion 6)."""
    def check(reports: Path) -> list[str]:
        errs = _need(reports, "error.txt")
        if errs:
            return errs
        f = _fields(reports / "error.txt")
        if f.get("error") != "LsViolationError":
            errs.append(f"error={f.get('error')}, expected LsViolationError")
            return errs
        t, lam = float(f["t"]), float(f["lam"])
        if not 0.49 <= t <= 0.51:
            errs.append(f"t={t!r} outside [0.49, 0.51]")
        if not 1.9 <= lam <= 2.1:
            errs.append(f"lambda={lam!r} outside [1.9, 2.1]")
        return errs
    return check


def certify_oracle(expected: dict[str, str]) -> Oracle:
    """The verdict fields read as expected."""
    def check(reports: Path) -> list[str]:
        errs = _need(reports, "certify.txt")
        if errs:
            return errs
        f = _fields(reports / "certify.txt")
        return [f"{k}={f.get(k)}, expected {v}"
                for k, v in expected.items() if f.get(k) != v]
    return check


@dataclass(frozen=True)
class Config:
    """One experiment config: its file text, the exit status it must give,
    and the oracle its reports must pass."""

    name: str
    text: str
    expected_status: int
    oracle: Oracle


def _cfg(line: str) -> str:
    """Config file text from the one-line ``key=value key=value`` form."""
    return "".join(f"{item}\n" for item in line.split())


def build_workloads(known_path: Callable[[str], Callable]
                    ) -> dict[str, tuple[Config, ...]]:
    """Each workload's configs, in the order a pass runs them.  known_path
    maps a gallery map name to its closed-form path at default parameters.
    Why each workload exists is recorded in BENCHMARK.json."""
    return {
        "stability-batch": (
            Config("rakotch-boundary", _cfg(
                "experiment=stability map=rakotch-decay map.a=1 M=1 "
                "epsilon=0.1 trials=100 n=2000"),
                0, stability_oracle(885, 100)),
            Config("damped-interior", _cfg(
                "experiment=stability map=damped-rational M=1 epsilon=0.01 "
                "trials=100 n=2000"),
                0, stability_oracle(1605, 100)),
        ),
        "solve-sublinear": (
            Config("rakotch-solve", _cfg(
                "experiment=solve map=rakotch-decay x0=1.0 tol=1e-10 "
                "max-iter=200000"),
                0, solve_oracle(1e-10)),
        ),
        "continuation": (
            Config("rotation-trace", _cfg(
                "experiment=trace map=planar-rotation q=0.995 "
                "inner-tol=1e-12 target-t=0.995"),
                0, trace_oracle(known_path("planar-rotation"), 0.995)),
            Config("affine-limit", _cfg(
                "experiment=limit map=affine-halfline final-tol=1e-12 "
                "inner-tol=1e-13"),
                0, limit_oracle(-1.0)),
            Config("constant-violation", _cfg(
                "experiment=trace map=constant map.c=2.0 q=0.9 "
                "target-t=0.9"),
                1, violation_oracle()),
        ),
        "certify": (
            Config("rakotch-certify", _cfg(
                "experiment=certify map=rakotch-decay pairs=20000 "
                "grid-max=10 grid-points=4096"),
                0, certify_oracle({
                    "admissible_on_grid": "True", "pairs": "20000",
                    "pairs_passed": "20000", "contractive_on_pairs": "True",
                    "certified": "True"})),
            Config("rotation-certify", _cfg(
                "experiment=certify map=planar-rotation pairs=20000 "
                "grid-max=10 grid-points=64"),
                1, certify_oracle({
                    "admissible_on_grid": "False", "not_below_one": "63",
                    "pairs": "20000", "certified": "False"})),
        ),
    }
