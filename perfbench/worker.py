"""One workload process of the benchmark; ``run.py`` starts it.

The process imports fixpoint, writes the workload's config files, parses
each with ``cli.parse_config`` and builds its map with ``gallery.make_map``
(the set-up), then sends every config through ``cli.run_config`` once per
pass, closed loop, until the measuring time is spent.  Each pass's reports
are checked against the expected exit status and the first pass, byte for
byte; the first pass's reports are kept on disk for the oracles.

With ``--trace 1`` the time is split: untraced passes first, then traced
passes, then micro-timings of the per-call layers.  The process prints one
JSON object with its raw measurements on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from fixpoint import cli, gallery
from fixpoint.errors import FixpointError

import calibration
from micro import micro_timings
from tracer import LAYERS, Tracer
from workloads import Config, build_workloads


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() when the parent started this "
                        "process; set-up time counts from there")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _file_hashes(outdir: Path) -> dict[str, str]:
    """sha256 of every report file but manifest.txt, which holds the wall
    time and so is never compared.  The files are hashed from disk."""
    if not outdir.is_dir():
        return {}
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name != "manifest.txt":
            with path.open("rb") as f:
                out[path.name] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


class Checker:
    """Failure bookkeeping across passes: exit status, and byte equality
    with the first pass's reports.  Only their hashes stay in memory; the
    first pass's files are copied to reference_dir, where ``run.py``
    applies the oracles after this process has ended, so no check adds to
    the peak resident set measured here."""

    def __init__(self, configs: tuple[Config, ...], reference_dir: Path):
        self.configs = configs
        self.reference_dir = reference_dir
        self.hashes: dict[str, dict[str, str]] = {}
        self.runs = {cfg.name: {"attempted": 0, "failed": 0}
                     for cfg in configs}
        self.messages: list[str] = []

    def check(self, cfg: Config, status: int, outdir: Path) -> None:
        errs = []
        if status != cfg.expected_status:
            errs.append(f"exit {status}, expected {cfg.expected_status}")
        hashes = _file_hashes(outdir)
        if cfg.name not in self.hashes:
            self.hashes[cfg.name] = hashes
            if outdir.is_dir():
                shutil.copytree(outdir, self.reference_dir / cfg.name)
        elif hashes != self.hashes[cfg.name]:
            errs.append("reports differ from the first pass")
        runs = self.runs[cfg.name]
        runs["attempted"] += 1
        if errs:
            runs["failed"] += 1
            self.messages += [f"{cfg.name}: {e}" for e in errs]

    def digest(self) -> str:
        h = hashlib.sha256()
        for cfg in self.configs:
            for fname, hexdigest in sorted(self.hashes.get(cfg.name,
                                                           {}).items()):
                h.update(f"{cfg.name}/{fname}:{hexdigest}\n".encode())
        return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    workloads = build_workloads(
        lambda name: gallery.make_map(name).known_path)
    configs = workloads[args.workload]
    cfg_dir = args.out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    cfg_paths, entries = [], []
    for cfg in configs:
        path = cfg_dir / f"{cfg.name}.cfg"
        path.write_text(cfg.text)
        values = cli.parse_config(path)
        params = {k[4:]: float(v) for k, v in values.items()
                  if k.startswith("map.")}
        cfg_paths.append(path)
        entries.append((values, gallery.make_map(values["map"], **params)))
    setup = {"setup_wall_s": time.monotonic() - args.spawned_at,
             "calibration_after_setup": calibration.calibrate()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    checker = Checker(configs, args.out / "reference")
    outdirs = [args.out / "reports" / cfg.name for cfg in configs]
    last_calibration = calibration.calibrate()

    def one_pass() -> dict[str, list[float]]:
        """Run every config once.  Per config: wall seconds of run_config
        and the same in reference seconds."""
        nonlocal last_calibration
        wall, ref = [], []
        for cfg, path, outdir in zip(configs, cfg_paths, outdirs):
            shutil.rmtree(outdir, ignore_errors=True)
            start = time.perf_counter()
            try:
                status = cli.run_config(path, outdir, args.seed)
            except FixpointError as exc:
                print(f"{cfg.name}: {exc}", file=sys.stderr)
                status = 2
            elapsed = time.perf_counter() - start
            now = calibration.calibrate()
            wall.append(elapsed)
            ref.append(elapsed * calibration.scale(last_calibration, now))
            last_calibration = now
            checker.check(cfg, status, outdir)
        return {"wall": wall, "ref": ref}

    def passes(seconds: float, tracer: Tracer | None = None) -> list[dict]:
        """Closed loop: passes until `seconds` have gone, at least one."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            out.append(one_pass())
            if tracer is not None:
                done = out[-1]
                done["layers"] = layer_metrics(
                    tracer, sum(done["ref"]) / sum(done["wall"]))
        return out

    result: dict = {**setup, "configs": [cfg.name for cfg in configs]}
    if not args.trace:
        result["passes"] = passes(args.seconds)
    else:
        result["passes"] = passes(args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_passes"] = passes(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        result["micro"] = micro_timings(entries)
        trace_file = args.out / "trace.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "spans": tracer.span_records()}))
        result["trace_file"] = str(trace_file)

    result.update(
        runs=checker.runs, failures=checker.messages[:20],
        digest=checker.digest(), reference_dir=str(checker.reference_dir),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    print(json.dumps(result))
    return 0


def layer_metrics(tr: Tracer, scale: float) -> dict[str, float]:
    """The per-layer numbers of one traced pass; times are multiplied by
    scale, the pass's factor to reference seconds."""
    s = tr.pass_summary()
    applies = tr.calls("gallery.apply")
    steps = tr.calls("gallery.apply", "picard.orbit_inexact")
    solves = s.get("continuation.solve_at_t_calls", 0)
    inner = tr.calls("gallery.apply", "continuation.solve_at_t")
    out = {f"{layer}.self_s": s[f"{layer}.self_s"] for layer in LAYERS}
    for name in ("cli.run_config", "gallery.sampler",
                 "core.verify_contractive", "core.check_modulus_admissible",
                 "picard.run_stability_experiment", "picard.orbit_inexact",
                 "picard.stability_report_text", "picard.solve_fixed_point",
                 "picard.orbit_exact", "picard.orbit_csv",
                 "continuation.trace_path", "continuation.limit_path",
                 "continuation.solve_at_t", "continuation.path_csv"):
        out[f"{name}_s"] = s.get(f"{name}_s", 0.0)
    out = {name: v * scale for name, v in out.items()}
    out.update({
        "gallery.apply_calls": applies,
        "gallery.sampler_calls": tr.calls("gallery.sampler"),
        "core.contains_calls": tr.calls("core.contains"),
        "core.project_calls": tr.calls("core.project"),
        "core.boundary_distance_calls": tr.calls("core.boundary_distance"),
        "core.distance_calls": (tr.calls("core.distance")
                                + tr.calls("core.norm")
                                + tr.calls("core.rowwise_distance")),
        "picard.perturbed_steps": steps,
        "picard.us_per_step": (1e6 * out["picard.orbit_inexact_s"] / steps
                               if steps else 0.0),
        "picard.projection_ratio": (
            tr.calls("core.project", "picard.orbit_inexact") / steps
            if steps else 0.0),
        "picard.solve_iterations": tr.solve_iterations,
        "picard.useful_apply_ratio": (tr.solve_iterations / applies
                                      if applies else 0.0),
        "continuation.solve_at_t_calls": solves,
        "continuation.inner_iterations": inner,
        "continuation.inner_per_solve": inner / solves if solves else 0.0,
        "continuation.audit_calls": s.get(
            "continuation.check_leray_schauder_calls", 0),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
