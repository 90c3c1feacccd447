"""Command-line front end: seeded experiments driven by flat config files.

Config format: one ``key = value`` per line, ``#`` starts a comment.  Keys
are hyphenated (``inner-tol``); map parameters use a ``map.`` prefix
(``map.a = 2.0``).  Vectors are semicolon-separated (``x0 = 1.0;2.0``).
Unknown and duplicate keys are hard errors, with the offending line in the
message.  Each kind's keys, with their types, defaults and bounds, are
stated once, in the table _EXPERIMENTS.

Five experiment kinds: solve, stability, trace, limit, certify.  Outputs go
to the --out directory, which must be a directory or not exist yet, as CSV
and key=value text files whose floats are written with repr, so a repeated
run with the same config and seed produces byte-identical reports; the
wall-time stamp lives only in manifest.txt.  Exit status: 0 when every
asserted invariant passed, 1 when the experiment ran but an assertion or
continuation failed, 2 for config or usage errors, an unusable output path
and a report that cannot be written among them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Iterable
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

# marks a key the config must give
_REQUIRED = object()
_SEED = {"seed": (int, 0, ">= 0")}
_COMMON_KEYS = {"experiment", "map", "out", *_SEED}


def parse_config(path: Path) -> dict[str, str]:
    """Read a flat config file into a key -> raw value dict.  The file is
    read as UTF-8 whatever the locale, its undecodable bytes kept as
    surrogate escapes, the way the reports are written."""
    try:
        text = path.read_text(encoding="utf-8", errors="surrogateescape")
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
    allowed = _COMMON_KEYS | _EXPERIMENTS[kind][0].keys()
    for key in values:
        if key.startswith("map."):
            continue
        if key not in allowed:
            raise ConfigError(
                f"{path}: key {key!r} is not valid for experiment "
                f"{kind!r}; allowed: {', '.join(sorted(allowed))} "
                "and map.<param>")
    return values


def _vector(raw: str) -> np.ndarray:
    return np.array([float(p) for p in raw.split(";")])


# what each parser takes, for the message that refuses a raw value
_EXPECTED = {float: "a number", int: "an integer",
             _vector: "semicolon-separated numbers"}


def _read(values: dict[str, str], key: str, spec: tuple):
    """The value of key under spec = (parse, default, bound): the default
    when the key is absent, else the parsed raw value, which must be
    finite and, when bound is given (as "> least" or ">= least"), within
    it.  A default of _REQUIRED makes the key required."""
    parse, default, bound = spec
    if key not in values:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = values[key]
    try:
        v = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not {_EXPECTED[parse]}: "
                          f"{raw!r}") from exc
    # math.isfinite on a scalar: np.isfinite costs a microsecond a call
    if (not np.isfinite(v).all() if parse is _vector
            else parse is float and not math.isfinite(v)):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    if bound is not None:
        op, least = bound.split()
        if v < float(least) or op == ">" and v == float(least):
            raise ConfigError(f"key {key!r} must be {bound}, got {v}")
    return v


def _error_text(exc: FixpointError) -> str:
    """error.txt: the error's class, its message and its payload fields
    that are set, in the order the class lists them."""
    payload = ((a, getattr(exc, a)) for a in exc.payload)
    return _record_text([("error", type(exc).__name__), ("message", exc),
                         *((a, v) for a, v in payload if v is not None)])


def _refuse_outdir(outdir: Path) -> None:
    """Refuse, before anything runs, an output path that is an existing
    non-directory or lies under one: the nearest existing path of outdir
    and its parents must be a directory."""
    try:
        for p in (outdir, *outdir.parents):
            if p.exists():
                if not p.is_dir():
                    raise ConfigError(f"output directory {outdir} cannot "
                                      f"be made: {p} is not a directory")
                return
    except OSError as exc:
        raise ConfigError(f"output directory {outdir}: {exc}") from exc


def _write(outdir: Path, name: str, text: str | Iterable[str]) -> None:
    """Write one report, a str or its pieces one at a time, creating
    outdir on the first write, so a run refused for its config leaves no
    directory behind.  The text is encoded as UTF-8, with a path's
    undecodable bytes written back as they were, so the bytes depend on
    neither the locale nor the platform."""
    path = outdir / name
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", errors="surrogateescape",
                       newline="") as f:
            f.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write report: {exc}") from exc


def _run_solve(entry: GalleryEntry, cfg: dict, outdir: Path) -> int:
    T, x0 = entry.mapping, cfg["x0"]
    res = solve_fixed_point(T, x0, cfg["tol"], cfg["max-iter"])
    orbit = orbit_exact(T, x0, max(res.iterations, 1))
    _write(outdir, "orbit.csv", orbit_csv(orbit))
    _write(outdir, "solution.txt", _record_text([
        ("point", res.point), ("iterations", res.iterations),
        ("residual", res.residual)]))
    return 0


def _run_stability(entry: GalleryEntry, cfg: dict, outdir: Path) -> int:
    xbar = entry.known_fixed_point if cfg["xbar"] is None else cfg["xbar"]
    if xbar is None:
        raise ConfigError(f"map {entry.name!r} has no known fixed point; "
                          "give one with 'xbar'")
    report = run_stability_experiment(
        entry.mapping, xbar, cfg["M"], cfg["epsilon"], cfg["trials"],
        cfg["n"], cfg["seed"])
    _write(outdir, "stability.txt", stability_report_text(report))
    return 0 if report.all_passed else 1


def _run_trace(entry: GalleryEntry, cfg: dict, outdir: Path) -> int:
    q, target = cfg["q"], cfg["target-t"]
    path = trace_path(entry.mapping, PathConfig(
        q=q, inner_tol=cfg["inner-tol"],
        max_inner_iter=cfg["max-inner-iter"],
        target_t=q if target is None else target))
    _write(outdir, "path.csv", path_csv(path))
    return 0


def _run_limit(entry: GalleryEntry, cfg: dict, outdir: Path) -> int:
    path = limit_path(entry.mapping, PathConfig(
        inner_tol=cfg["inner-tol"], max_inner_iter=cfg["max-inner-iter"]),
        cfg["final-tol"], cfg["ratio"])
    _write(outdir, "path.csv", path_csv(path))
    x1, cert = path.terminal
    _write(outdir, "limit.txt", _record_text([
        ("point", x1), ("on_boundary", cert.on_boundary),
        ("residual", cert.residual), ("tail_bound", cert.tail_bound),
        ("schedule_steps", cert.schedule_steps)]))
    return 0


def _run_certify(entry: GalleryEntry, cfg: dict, outdir: Path) -> int:
    n_pairs, grid_max = cfg["pairs"], cfg["grid-max"]
    # the grid's least positive point, which bounds grid-max from below
    grid = np.concatenate(
        [[0.0], np.geomspace(1e-6, grid_max, cfg["grid-points"] - 1)])
    T = entry.mapping
    adm = check_modulus_admissible(T.declared_modulus, grid)
    # rows x_0, y_0, x_1, y_1, ...: the pairs of successive point draws
    pairs = entry.sampler(np.random.default_rng(cfg["seed"]), 2 * n_pairs)
    rep = verify_contractive(
        T, pairs.reshape(n_pairs, 2, T.space.dimension), slack=cfg["slack"])
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


_INNER = {"inner-tol": (float, 1e-10, "> 0"),
          "max-inner-iter": (int, 200_000, ">= 1")}

# experiment kind -> ({its config key: (parse, default, bound)}, its
# runner).  An optional key whose default is None falls back in the
# runner: xbar to the map's known fixed point, target-t to q.  A runner
# takes the read keys, seed included, writes the reports of a successful
# run and returns the exit status
_EXPERIMENTS = {
    "solve": ({"x0": (_vector, _REQUIRED, None),
               "tol": (float, 1e-10, "> 0"),
               "max-iter": (int, 100_000, ">= 1")}, _run_solve),
    "stability": ({"xbar": (_vector, None, None),
                   "M": (float, _REQUIRED, "> 0"),
                   "epsilon": (float, _REQUIRED, "> 0"),
                   "trials": (int, 100, ">= 1"),
                   "n": (int, _REQUIRED, ">= 1")}, _run_stability),
    "trace": ({"q": (float, 0.9, "> 0"), **_INNER,
               "target-t": (float, None, None)}, _run_trace),
    "limit": ({**_INNER, "final-tol": (float, 1e-6, "> 0"),
               "ratio": (float, 0.5, "> 0")}, _run_limit),
    "certify": ({"pairs": (int, 64, ">= 1"),
                 "slack": (float, 1e-12, ">= 0"),
                 "grid-max": (float, 10.0, ">= 1e-6"),
                 "grid-points": (int, 64, ">= 2")}, _run_certify),
}

# errors of an experiment that ran but failed: reported in error.txt with
# exit status 1 rather than as usage errors
_RUN_FAILURES = (NonselfExitError, ConvergenceError, LsViolationError,
                 StallError, NonFiniteError)


def run_config(config_path: Path, outdir: Path | None,
               seed_override: int | None) -> int:
    values = parse_config(config_path)
    kind = values["experiment"]
    keys, runner = _EXPERIMENTS[kind]
    # every key is read before the map is built or anything runs, the seed
    # key even when --seed overrides it, so a config that fails on its own
    # fails under the flag too
    cfg = {key: _read(values, key, spec)
           for key, spec in (*_SEED.items(), *keys.items())}
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed_override}")
        cfg["seed"] = seed_override
    entry = make_map(values["map"], **{
        key[len("map."):]: _read(values, key, (float, None, None))
        for key in values if key.startswith("map.")})
    if outdir is None:
        # the out key names the directory by the bytes the config holds
        outdir = Path(os.fsdecode(values["out"].encode(
            "utf-8", "surrogateescape")) if "out" in values else "out")
    _refuse_outdir(outdir)
    start = time.perf_counter()
    try:
        status = runner(entry, cfg, outdir)
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
        ("map", values["map"]), ("map_params", map_params),
        ("seed", cfg["seed"]), ("config", config_path), ("status", status),
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
