"""Names, units and kinds of the benchmark's metrics.

Kept apart from ``tracer.py`` so that ``run.py`` can read them without
importing qhcover or numpy.
"""

from __future__ import annotations

from typing import NamedTuple

LAYERS = ("linalg", "algebra", "gallery", "modules", "homology", "reldim", "qh", "covers")

# End-to-end metrics of an untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    computed: bool  # from shapes and data (exactly repeatable), not a clock


def _m(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, unit != "s" and not name.startswith("trace."))


METRICS: list[Metric] = [
    _m("linalg.rref.calls", "count"),
    _m("linalg.rref.self_s", "s"),
    _m("linalg.rref.cells", "count"),
    _m("linalg.rref.calls_ge400", "count"),
    _m("linalg.matmul.calls", "count"),
    _m("linalg.matmul.self_s", "s"),
    _m("linalg.matmul.ops", "count"),
    _m("linalg.qq.self_s", "s"),
    _m("algebra.products.calls", "count"),
    _m("algebra.products.self_s", "s"),
    _m("algebra.products.bytes", "B"),
    _m("algebra.mult.density", "frac"),
    _m("algebra.radical.self_s", "s"),
    _m("algebra.idempotents.self_s", "s"),
    _m("algebra.centralizer.self_s", "s"),
    _m("gallery.build.self_s", "s"),
    _m("modules.hom_space.calls", "count"),
    _m("modules.hom_space.self_s", "s"),
    _m("modules.presentation.calls", "count"),
    _m("modules.presentation.self_s", "s"),
    _m("modules.presentation.repeat_frac", "frac", "higher"),
    _m("modules.end_algebra.self_s", "s"),
    _m("modules.tensor.self_s", "s"),
    _m("modules.decompose.self_s", "s"),
    _m("homology.resolution.calls", "count"),
    _m("homology.resolution.self_s", "s"),
    _m("homology.resolution.steps", "count"),
    _m("homology.tor.calls", "count"),
    _m("homology.tor.self_s", "s"),
    _m("homology.ext.self_s", "s"),
    _m("reldim.ladder.calls", "count"),
    _m("reldim.ladder.self_s", "s"),
    _m("reldim.chain.calls", "count"),
    _m("reldim.chain.self_s", "s"),
    _m("reldim.classical.self_s", "s"),
    _m("reldim.capped_frac", "frac"),
    _m("qh.verify.self_s", "s"),
    _m("qh.tilting.self_s", "s"),
    _m("qh.ringel_dual.self_s", "s"),
    _m("covers.ringel_cover.calls", "count"),
    _m("covers.ringel_cover.self_s", "s"),
    _m("covers.hn.self_s", "s"),
    _m("covers.cover_check.self_s", "s"),
    *[_m(f"{layer}.self_s", "s") for layer in LAYERS],
    _m("trace.attributed_frac", "frac", "higher"),
    _m("trace.overhead_frac", "frac"),
]
