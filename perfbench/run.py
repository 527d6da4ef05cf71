"""qhcover benchmark: run one workload, check its answers, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced

Each sample runs in a fresh interpreter (``worker.py``), one at a time,
with OPENBLAS/OMP/MKL threads pinned to 1 and qhcover imported from ``src/``
of this checkout.

``--trace 0`` (end-to-end): full samples (set-up + solve) repeat until their
solve wall times add up to ``--seconds``, at least one; set-up-only samples
are added until there are ``MIN_SETUPS`` set-ups.  Reported: the median
set-up (wall time), solve and peak RSS, and the p50/p90 latency of all items
solved.  Solve and item times are scaled to a reference machine speed by
``probe.py``.

``--trace 1`` (per layer): one untraced and one traced full sample.  The
traced one gives the per-layer metrics; ``trace.overhead_frac`` compares the
two solves; their answers must be identical.

A human-readable report goes first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
environment and all samples are also written to ``perfbench/out/``.
Exit code 0 when every sample ran (a wrong answer gives ``correct: false``),
2 when qhcover's sources are missing, 1 when a sample crashed or timed out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("schur33_domdim", "oracle_sweep", "cover_qq")
MIN_SETUPS = 3
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s.  No sample starts unless one more sample as
# long as the previous one still ends before SOFT_DEADLINE_S; a sample still
# running at HARD_DEADLINE_S is killed and the run fails.
SOFT_DEADLINE_S = 150.0
HARD_DEADLINE_S = 175.0


class SampleError(RuntimeError):
    pass


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so computed counts repeat
    return env


def sample(workload: str, seed: int, t0: float, *, trace=False, setup_only=False, smoke=False) -> dict:
    """One worker process; ``t0`` is when the run started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    timeout = max(1.0, t0 + HARD_DEADLINE_S - start)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise SampleError(f"{workload}: sample still running at the {HARD_DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise SampleError(f"{workload}: worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - start
    return out


def _fits(t0: float, last: dict) -> bool:
    return time.perf_counter() - t0 + last["wall_s"] < SOFT_DEADLINE_S


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # the checkout need not be a git repository
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qhcover").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "thread_pin": THREAD_PIN,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _answers(s: dict) -> list:
    return [(label, answer) for label, _, answer, *_ in s["items"]]


def run_end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, list[dict]]:
    t0 = time.perf_counter()
    full = [sample(workload, seed, t0, smoke=smoke)]
    while sum(s["solve_wall_s"] for s in full) < seconds and _fits(t0, full[-1]):
        full.append(sample(workload, seed, t0, smoke=smoke))
    setups = [s["setup_s"] for s in full]
    last = full[-1]
    while len(setups) < MIN_SETUPS and _fits(t0, last):
        last = sample(workload, seed, t0, setup_only=True, smoke=smoke)
        setups.append(last["setup_s"])
    latencies = [item[4] for s in full for item in s["items"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(s["solve_s"] for s in full),
        "item_p50_ms": 1000 * percentile(latencies, 0.5),
        "item_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in full),
    }
    return metrics, full


def run_traced(workload: str, seed: int, smoke: bool) -> tuple[dict, list[dict]]:
    t0 = time.perf_counter()
    plain = sample(workload, seed, t0, smoke=smoke)
    traced = sample(workload, seed, t0, trace=True, smoke=smoke)
    if not traced["restored"]:
        raise SampleError(f"{workload}: a wrapped attribute was not restored")
    if _answers(plain) != _answers(traced):
        # identical inputs must give identical answers; flag every item
        for item in traced["items"]:
            item[1] = False
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = traced["solve_s"] / plain["solve_s"] - 1.0
    return metrics, [plain, traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if trace:
        metrics, samples = run_traced(workload, seed, smoke)
        units = {m.name: m.unit for m in METRICS}
    else:
        metrics, samples = run_end_to_end(workload, seed, seconds, smoke)
        units = END_TO_END
    items = [item for s in samples for item in s["items"]]
    failed = sum(1 for item in items if not item[1])
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "env": dict(environment(seed), **samples[0]["env"]),
        "samples": samples,
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"== {result['workload']}  ({len(result['samples'])} samples)")
    computed = {m.name for m in METRICS if m.computed}
    for name, m in result["metrics"].items():
        tag = "  (computed)" if name in computed else ""
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}{tag}")
    solved = [s for s in result["samples"] if "solve_wall_s" in s]
    walls = ", ".join(f"{s['solve_wall_s']:.3f}" for s in solved)
    scales = ", ".join(f"{s['speed_scale']:.3f}" for s in solved)
    print(f"  {'(unscaled solve wall times)':<36} {walls} s; speed scale {scales}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<36} {frac:>16.6g} frac  ({result['failed']} of {result['attempted']} items)")
    for s in result["samples"]:
        for label, ok, answer, *_ in s["items"]:
            if not ok:
                print(f"  FAILED {label}: {answer}")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qhcover benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "qhcover" / "__init__.py").is_file():
        print(f"run.py: qhcover sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            report(result)
            OUT.mkdir(exist_ok=True)
            tag = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
            (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
            results.append(result)
    except SampleError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
