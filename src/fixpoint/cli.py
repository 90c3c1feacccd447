"""Command-line front end: seeded experiments driven by flat config files.

Config format: one ``key = value`` per line, ``#`` starts a comment.  Keys
are hyphenated (``inner-tol``); map parameters use a ``map.`` prefix
(``map.a = 2.0``).  Vectors are semicolon-separated (``x0 = 1.0;2.0``).
Unknown and duplicate keys are hard errors, with the offending line in the
message.

Five experiment kinds: solve, stability, trace, limit, certify.  Outputs go
to the --out directory as CSV and key=value text files whose floats are
written with repr, so a repeated run with the same config and seed produces
byte-identical reports; the wall-time stamp lives only in manifest.txt.
Exit status: 0 when every asserted invariant passed, 1 when the experiment
ran but an assertion or continuation failed, 2 for config or usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .continuation import (PathConfig, limit_path, path_csv, trace_path)
from .core import check_modulus_admissible, verify_contractive
from .errors import (ConfigError, ConvergenceError, FixpointError,
                     LsViolationError, NonFiniteError, NonselfExitError,
                     StallError)
from .gallery import GalleryEntry, list_maps, make_map, map_summary
from .picard import (_record_text, orbit_csv, orbit_exact,
                     run_stability_experiment, solve_fixed_point,
                     stability_report_text)

_COMMON_KEYS = {"experiment", "map", "seed", "out"}


def parse_config(path: Path) -> dict[str, str]:
    """Read a flat config file into a key -> raw value dict."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    if "experiment" not in values:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    kind = values["experiment"]
    if kind not in _EXPERIMENTS:
        raise ConfigError(f"{path}: unknown experiment {kind!r}; one of "
                          f"{', '.join(_EXPERIMENTS)}")
    if "map" not in values:
        raise ConfigError(f"{path}: missing required key 'map'")
    allowed = _COMMON_KEYS | _EXPERIMENTS[kind][0]
    for key in values:
        if key.startswith("map."):
            continue
        if key not in allowed:
            raise ConfigError(
                f"{path}: key {key!r} is not valid for experiment "
                f"{kind!r}; allowed: {', '.join(sorted(allowed))} "
                "and map.<param>")
    return values


def _as_float(values: dict[str, str], key: str, default: float | None = None,
              positive: bool = False) -> float:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        v = float(values[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: "
                          f"{values[key]!r}") from exc
    if not math.isfinite(v):
        raise ConfigError(f"key {key!r} must be finite, got {values[key]!r}")
    if positive and v <= 0.0:
        raise ConfigError(f"key {key!r} must be > 0, got {v}")
    return v


def _as_int(values: dict[str, str], key: str, default: int | None = None,
            at_least: int | None = None) -> int:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        v = int(values[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: "
                          f"{values[key]!r}") from exc
    if at_least is not None and v < at_least:
        raise ConfigError(f"key {key!r} must be >= {at_least}, got {v}")
    return v


def _as_vector(values: dict[str, str], key: str) -> np.ndarray:
    if key not in values:
        raise ConfigError(f"missing required key {key!r}")
    try:
        v = np.array([float(p) for p in values[key].split(";")])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected semicolon-separated "
                          f"floats, got {values[key]!r}") from exc
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"key {key!r} must be finite, got {values[key]!r}")
    return v


def _build_entry(values: dict[str, str]) -> GalleryEntry:
    params = {}
    for key, raw in values.items():
        if not key.startswith("map."):
            continue
        pname = key[len("map."):]
        try:
            params[pname] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number: "
                              f"{raw!r}") from exc
    return make_map(values["map"], **params)


# the payload attributes error.txt reports, in order, when an error has them
_ERROR_PAYLOAD = ("t", "lam", "step", "residual", "tail_bound", "point",
                  "last_inside")


def _error_text(exc: FixpointError) -> str:
    payload = ((a, getattr(exc, a, None)) for a in _ERROR_PAYLOAD)
    return _record_text([("error", type(exc).__name__), ("message", exc),
                         *((a, v) for a, v in payload if v is not None)])


def _write(outdir: Path, name: str, text: str) -> None:
    """Write one report, creating outdir on the first write, so a run
    refused for its config leaves no directory behind."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)


def _run_solve(entry: GalleryEntry, values: dict[str, str], outdir: Path,
               seed: int) -> int:
    x0 = _as_vector(values, "x0")
    tol = _as_float(values, "tol", 1e-10, positive=True)
    max_iter = _as_int(values, "max-iter", 100_000, at_least=1)
    T = entry.mapping
    res = solve_fixed_point(T, x0, tol, max_iter)
    orbit = orbit_exact(T, x0, max(res.iterations, 1))
    _write(outdir, "orbit.csv", orbit_csv(orbit))
    _write(outdir, "solution.txt", _record_text([
        ("point", res.point), ("iterations", res.iterations),
        ("residual", res.residual)]))
    return 0


def _run_stability(entry: GalleryEntry, values: dict[str, str],
                   outdir: Path, seed: int) -> int:
    T = entry.mapping
    if "xbar" in values:
        xbar = _as_vector(values, "xbar")
    elif entry.known_fixed_point is not None:
        xbar = entry.known_fixed_point
    else:
        raise ConfigError(f"map {entry.name!r} has no known fixed point; "
                          "give one with 'xbar'")
    M = _as_float(values, "M", positive=True)
    epsilon = _as_float(values, "epsilon", positive=True)
    trials = _as_int(values, "trials", 100, at_least=1)
    n = _as_int(values, "n", at_least=1)
    report = run_stability_experiment(T, xbar, M, epsilon, trials, n, seed)
    _write(outdir, "stability.txt", stability_report_text(report))
    return 0 if report.all_passed else 1


def _path_config(values: dict[str, str], target_key: str | None) -> \
        PathConfig:
    q = _as_float(values, "q", 0.9, positive=True)
    inner_tol = _as_float(values, "inner-tol", 1e-10, positive=True)
    max_inner = _as_int(values, "max-inner-iter", 200_000, at_least=1)
    target = _as_float(values, target_key, q) if target_key else q
    return PathConfig(q=q, inner_tol=inner_tol, max_inner_iter=max_inner,
                      target_t=target)


def _run_trace(entry: GalleryEntry, values: dict[str, str], outdir: Path,
               seed: int) -> int:
    path = trace_path(entry.mapping, _path_config(values, "target-t"))
    _write(outdir, "path.csv", path_csv(path))
    return 0


def _run_limit(entry: GalleryEntry, values: dict[str, str], outdir: Path,
               seed: int) -> int:
    cfg = _path_config(values, None)
    final_tol = _as_float(values, "final-tol", 1e-6, positive=True)
    ratio = _as_float(values, "ratio", 0.5, positive=True)
    path = limit_path(entry.mapping, cfg, final_tol, ratio)
    _write(outdir, "path.csv", path_csv(path))
    x1, cert = path.terminal
    _write(outdir, "limit.txt", _record_text([
        ("point", x1), ("on_boundary", cert.on_boundary),
        ("residual", cert.residual), ("tail_bound", cert.tail_bound),
        ("schedule_steps", cert.schedule_steps)]))
    return 0


def _run_certify(entry: GalleryEntry, values: dict[str, str],
                 outdir: Path, seed: int) -> int:
    n_pairs = _as_int(values, "pairs", 64, at_least=1)
    slack = _as_float(values, "slack", 1e-12)
    if slack < 0.0:
        raise ConfigError(f"key 'slack' must be >= 0, got {slack}")
    grid_max = _as_float(values, "grid-max", 10.0, positive=True)
    grid_pts = _as_int(values, "grid-points", 64, at_least=2)
    grid = np.concatenate(
        [[0.0], np.geomspace(1e-6, grid_max, grid_pts - 1)])
    T = entry.mapping
    adm = check_modulus_admissible(T.declared_modulus, grid)
    # rows x_0, y_0, x_1, y_1, ...: the pairs of successive point draws
    pairs = entry.sampler(np.random.default_rng(seed), 2 * n_pairs)
    rep = verify_contractive(
        T, pairs.reshape(n_pairs, 2, T.space.dimension), slack=slack)
    ok = adm.admissible and rep.passed
    _write(outdir, "certify.txt", _record_text([
        ("map", entry.name), ("modulus_kind", T.declared_modulus.kind),
        ("grid_points", len(grid)), ("grid_max", grid_max),
        ("admissible_on_grid", adm.admissible),
        ("monotonicity_violations", len(adm.monotonicity_violations)),
        ("not_below_one", len(adm.not_below_one)),
        ("pairs", rep.n_pairs), ("slack", rep.slack),
        ("pairs_passed", np.count_nonzero(rep.verdicts)),
        ("contractive_on_pairs", rep.passed), ("certified", ok)]))
    return 0 if ok else 1


# experiment kind -> (its config keys, its runner); a runner writes the
# reports of a successful run and returns the exit status
_EXPERIMENTS = {
    "solve": ({"x0", "tol", "max-iter"}, _run_solve),
    "stability": ({"xbar", "M", "epsilon", "trials", "n"}, _run_stability),
    "trace": ({"q", "inner-tol", "max-inner-iter", "target-t"}, _run_trace),
    "limit": ({"inner-tol", "max-inner-iter", "final-tol", "ratio"},
              _run_limit),
    "certify": ({"pairs", "slack", "grid-max", "grid-points"},
                _run_certify),
}

# errors of an experiment that ran but failed: reported in error.txt with
# exit status 1 rather than as usage errors
_RUN_FAILURES = (NonselfExitError, ConvergenceError, LsViolationError,
                 StallError, NonFiniteError)


def run_config(config_path: Path, outdir: Path | None,
               seed_override: int | None) -> int:
    values = parse_config(config_path)
    kind = values["experiment"]
    seed = seed_override if seed_override is not None else \
        _as_int(values, "seed", 0)
    entry = _build_entry(values)
    if outdir is None:
        outdir = Path(values["out"]) if "out" in values else Path("out")
    start = time.perf_counter()
    try:
        status = _EXPERIMENTS[kind][1](entry, values, outdir, seed)
    except _RUN_FAILURES as exc:
        _write(outdir, "error.txt", _error_text(exc))
        if isinstance(exc, NonselfExitError) and exc.orbit is not None:
            _write(outdir, "orbit.csv", orbit_csv(exc.orbit))
        status = 1
    elapsed = time.perf_counter() - start
    # the map.<param> keys as one space-separated record
    map_params = _record_text(sorted(
        (k, v) for k, v in values.items() if k.startswith("map.")),
        sep=" ").rstrip("\n")
    _write(outdir, "manifest.txt", _record_text([
        ("engine", f"fixpoint {__version__}"), ("experiment", kind),
        ("map", values["map"]), ("map_params", map_params), ("seed", seed),
        ("config", config_path), ("status", status),
        ("elapsed_seconds", elapsed)]))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fixpoint",
        description="certified Picard iteration and homotopy continuation")
    parser.add_argument("--version", action="version",
                        version=f"fixpoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config", type=Path, help="path to a key=value "
                      "experiment config")
    runp.add_argument("--out", type=Path, default=None,
                      help="output directory (default: 'out' key in the "
                      "config, else ./out)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    sub.add_parser("list-maps", help="describe the gallery maps")
    args = parser.parse_args(argv)

    if args.command == "list-maps":
        print("\n\n".join(map_summary(name) for name in list_maps()))
        return 0
    try:
        return run_config(args.config, args.out, args.seed)
    except FixpointError as exc:
        print(f"fixpoint: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
