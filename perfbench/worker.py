"""One workload in a fresh interpreter: set up, solve, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only] [--smoke]

``run.py`` starts this with qhcover's ``src`` on PYTHONPATH and the BLAS and
OpenMP thread counts pinned.  Set-up time covers ``import qhcover`` and the
input build; the solve is timed item by item.  With
``--trace`` the wrappers of ``tracer.py`` are installed after the import, the
per-layer metrics are added to the output and the spans are written to
``--spans``.  A wrong answer or an exception fails its item and the run goes
on; the traceback goes to stderr.

Each item record is [label, ok, answer, wall latency, scaled latency]: scaled
times leave out the speed probe's own time and are converted to the
reference machine speed (``probe.py``).  ``setup_s`` and ``solve_s`` are
scaled; ``setup_wall_s`` and ``solve_wall_s`` are plain wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", type=Path, help="where --trace writes the spans (.npz)")
    args = ap.parse_args(argv)

    from probe import SpeedProbe

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import workloads  # imports qhcover and numpy

        t_import = time.perf_counter()

        import numpy
        import qhcover
        import qhcover.linalg

        src = Path(__file__).resolve().parent.parent / "src"
        if src not in Path(qhcover.__file__).resolve().parents:
            print(f"worker: imported qhcover from {qhcover.__file__}, not from {src}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        span = tracer.span if tracer else lambda name: contextlib.nullcontext(-1)

        t1 = time.perf_counter()
        with span("bench.setup"):
            items = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        t2 = time.perf_counter()
        out = {
            "setup_s": probe.scaled(t0, t_import) + probe.scaled(t1, t2),
            "setup_wall_s": t_import - t0 + t2 - t1,
            "env": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "gfp_backend": qhcover.linalg.GFP_BACKEND,
            },
        }
        if not args.setup_only:
            records = []
            t3 = time.perf_counter()
            with span("bench.solve") as solve_idx:
                for item in items:
                    t = time.perf_counter()
                    with span("bench.item"):
                        try:
                            ok, answer = item.run()
                        except Exception as exc:  # a failed item is counted, not fatal
                            traceback.print_exc()
                            ok, answer = False, f"error: {type(exc).__name__}: {exc}"
                    records.append([item.label, bool(ok), answer, t, time.perf_counter()])
            t4 = time.perf_counter()
            scale = probe.scale(t3, t4)
            for record in records:
                t, t_end = record[3:]
                record[3:] = [t_end - t, (t_end - t - probe.busy(t, t_end)) * scale]
            out["solve_s"] = probe.scaled(t3, t4)
            out["solve_wall_s"] = t4 - t3
            out["speed_scale"] = scale
            out["items"] = records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        out["restored"] = tracer.restored()
        out["patched"] = tracer.patched_count
        out["spans"] = len(tracer.name)
        if not args.setup_only:
            out["layers"] = tracer.metrics(solve_idx)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
