"""Benchmark of the fixpoint CLI path, one workload per invocation.

    python3 perfbench/run.py --workload stability-batch [--seed 2026]
                             [--seconds 20] [--trace 0|1]

The library is imported from the ``src/`` next to this directory.  Each
workload runs in a fresh single-threaded process (BLAS pinned to one
thread), closed loop with one caller: every config of the workload goes
through ``fixpoint.cli.run_config`` in turn, one pass after another, for
``--seconds``.  The seed reaches the library only as ``run_config``'s seed
override.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
time (median over several fresh processes), pass time (median over the
passes) and peak resident memory.  Times are in reference seconds (see
calibration.py); the unscaled wall-clock medians are printed beside them.
``--trace 1`` reports the per-layer metrics from a traced run; what each
one should move is recorded in README.md.  Either way every config run is
checked (exit status and byte equality with the first pass in the workload
process, closed-form oracle here once it has ended); human-readable lines
come first and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# With --trace 0, set-up is measured in this many extra fresh processes,
# plus the workload process itself; the median is reported.
SETUP_PROBES = 8
# Everything, set-up probes included, ends within this many seconds.
DEADLINE_S = 170.0

def _unit(name: str) -> str:
    if name.endswith(("_us", ".us_per_step")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_solve")):
        return "ratio"
    return "count"


def _parse_args(argv: list[str] | None,
                workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="Benchmark the fixpoint CLI on one workload.")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=2026,
                   help="workload seed, >= 0 (default 2026)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0.0 <= args.seconds <= 60.0:
        p.error("--seconds must lie in [0, 60]")
    return args


def _worker(args: argparse.Namespace, out: Path, env: dict,
            deadline: float, setup_only: bool) -> dict:
    """Start one workload process, wait for it, return its JSON result
    with its set-up time in reference seconds added as ``setup_s``."""
    before = calibration.calibrate()
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--spawned-at", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_wall_s"] * calibration.scale(
        before, res["calibration_after_setup"])
    return res


def _apply_oracles(workload: str, res: dict) -> None:
    """Apply each config's closed-form oracle to the first pass's reports,
    which the workload process left in its reference directory.  Every
    later pass matched them byte for byte or already failed, so a config
    whose reports the oracle rejects failed in every pass."""
    sys.path.insert(0, str(ROOT / "src"))
    from fixpoint import gallery
    from workloads import build_workloads

    configs = build_workloads(
        lambda name: gallery.make_map(name).known_path)[workload]
    for cfg in configs:
        errs = cfg.oracle(Path(res["reference_dir"]) / cfg.name)
        if errs:
            runs = res["runs"][cfg.name]
            runs["failed"] = runs["attempted"]
            res["failures"] += [f"{cfg.name}: {e}" for e in errs]


def _pinned_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _pass_s(passes: list[dict], key: str = "ref") -> float:
    return statistics.median(sum(p[key]) for p in passes)


def _layer_values(res: dict) -> dict[str, tuple[float, int, bool]]:
    """Per-layer metric -> (value, samples, repeats exactly).  Times are
    medians over the traced passes; counts must repeat exactly."""
    out = {}
    passes = [p["layers"] for p in res["traced_passes"]]
    for name in passes[0]:
        vals = [p[name] for p in passes]
        if _unit(name) in ("s", "us"):
            out[name] = (statistics.median(vals), len(vals), True)
        else:
            out[name] = (vals[0], len(vals), len(set(vals)) == 1)
    for name, subjects in res["micro"].items():
        out[name] = (statistics.mean(subjects.values()), len(subjects),
                     True)
    out["trace.overhead_ratio"] = (
        _pass_s(res["traced_passes"]) / _pass_s(res["passes"]),
        len(res["passes"]), True)
    return out


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "fixpoint" / "__init__.py").is_file():
        print(f"run.py: no fixpoint sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, [w["name"] for w in spec["workloads"]])
    deadline = time.monotonic() + DEADLINE_S
    env = _pinned_env()
    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [_worker(args, out, env, deadline, True)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        res = _worker(args, out, env, deadline, False)
        _apply_oracles(args.workload, res)
        if args.trace:
            trace_file = HERE / "out" / (f"trace-{args.workload}-"
                                         f"seed{args.seed}.json")
            shutil.move(res["trace_file"], trace_file)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    setups.append(res)
    attempted = sum(r["attempted"] for r in res["runs"].values())
    failed = sum(r["failed"] for r in res["runs"].values())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds!r} configs={','.join(res['configs'])}")
    print(f"  checks: {attempted - failed} of {attempted} config runs "
          f"passed; reports digest sha256:{res['digest']}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")
    for i, name in enumerate(res["configs"]):
        ref = statistics.median(p["ref"][i] for p in res["passes"])
        wall = statistics.median(p["wall"][i] for p in res["passes"])
        print(f"  config {name}: median {ref:.6f} s at reference speed, "
              f"{wall:.6f} s wall (n={len(res['passes'])})")

    counts_repeat = True
    if not args.trace:
        values = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups),
                        len(setups)),
            "pass_s": (_pass_s(res["passes"]), len(res["passes"])),
            "peak_rss_mb": (res["peak_rss_mb"], 1),
        }
        for m in spec["end_to_end"]:
            v, n = values[m["name"]]
            print(f"  {m['name']:<12} {v:.6f} {m['unit']}  (n={n})")
        print(f"  {'setup wall':<12} "
              f"{statistics.median(s['setup_wall_s'] for s in setups):.6f}"
              f" s, pass wall {_pass_s(res['passes'], 'wall'):.6f} s "
              "(medians, unscaled)")
        print(f"  {'fail_ratio':<12} {failed / attempted:.6f} ratio  "
              f"({failed} of {attempted} config runs)")
        metrics = {m["name"]: {"value": values[m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        layers = _layer_values(res)
        print(f"  trace: {len(res['traced_passes'])} traced and "
              f"{len(res['passes'])} untraced passes; spans in "
              f"{trace_file.relative_to(ROOT)}")
        for name, (v, n, exact) in layers.items():
            note = "" if exact else "  COUNT DIFFERS BETWEEN PASSES"
            print(f"  {name:<36} {v:.6g} {_unit(name)}  (n={n}){note}")
        for name, subjects in res["micro"].items():
            for subject, us in subjects.items():
                print(f"    {name}[{subject}] {us:.4f} us")
        counts_repeat = all(exact for _, _, exact in layers.values())
        metrics = {m["name"]: {"value": layers[m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    print(json.dumps({"correct": failed == 0 and counts_repeat,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
