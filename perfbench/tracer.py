"""Per-layer spans and computed counts, installed on qhcover from outside.

``Tracer.install`` replaces the public functions of each layer module (and a
few listed methods) with wrappers that record a span: name, start, end and
parent.  A name imported into another module (``from .modules import
hom_space``) is replaced in every ``qhcover.*`` namespace that holds the same
object, and methods are replaced on their class.  ``uninstall`` puts every
original back.  The untraced run never creates a ``Tracer``.

Spans stay in memory until ``save``.  A span's self time is its duration
minus the durations of its child spans.  Counts marked ``computed`` in
``metrics.METRICS`` come from shapes and data, never from a clock, so they repeat
exactly between runs with the same seed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array
from typing import Callable, NamedTuple, Optional

import numpy as np

from qhcover.fields import PrimeField, RationalField

from metrics import LAYERS, METRICS

# Span group of each listed target.  Every other public function defined in a
# layer module is wrapped too, in group "other", and counts towards the
# layer's total only.  Methods are wrapped only when listed: cheap accessors
# such as Mat.transpose run hundreds of thousands of times and would cost more
# to trace than they take.
GROUPS: dict[str, dict[str, str]] = {
    "linalg": {
        "Mat.rref": "rref",
        "Mat.__matmul__": "matmul",
        "Mat.kernel": "kernel",
        "Mat.solve": "solve",
        "Mat.inv": "solve",
        "Subspace.__init__": "subspace",
        "Subspace.reduce": "subspace",
        "Subspace.contains": "subspace",
        "Subspace.coords": "subspace",
        "Subspace.quotient_coords": "subspace",
    },
    "algebra": {
        "Algebra.left_mult_matrix": "products",
        "Algebra.right_mult_matrix": "products",
        "Algebra.multiply_batches": "products",
        "Algebra.radical_subspace": "radical",
        "Algebra.primitive_idempotents": "idempotents",
        "central_primitive_idempotents": "idempotents",
        "centralizer_algebra": "centralizer",
    },
    "gallery": {
        "build_am": "build",
        "build_hecke": "build",
        "build_tensor_space": "build",
        "build_schur": "build",
    },
    "modules": {
        "hom_space": "hom_space",
        "projective_cover_data": "presentation",
        "endomorphism_algebra": "end_algebra",
        "end_algebra_with_bimodule": "end_algebra",
        "tensor_over": "tensor",
        "counit_analysis": "tensor",
        "indecomposable_summands": "decompose",
        "is_isomorphic": "decompose",
    },
    "homology": {
        "minimal_projective_resolution": "resolution",
        "tor_dim": "tor",
        "ext_space": "ext",
        "ext_dim": "ext",
    },
    "reldim": {
        "relative_codomdim": "ladder",
        "codomdim_chain": "chain",
        "classical_domdim": "classical",
        "classical_domdim_of_module": "classical",
        "classical_codomdim_of_module": "classical",
        "find_projective_injectives": "classical",
    },
    "qh": {
        "verify_split_qh": "verify",
        "QHStructure.tiltings": "tilting",
        "QHStructure.tilting_sequences": "tilting",
        "ringel_dual": "ringel_dual",
    },
    "covers": {
        "verify_ringel_cover_theorem": "ringel_cover",
        "hn_dimension": "hn",
        "cover_check": "cover_check",
    },
}


class _SpanName(NamedTuple):
    group: str  # "linalg.rref", "modules.other", "bench.item", ...
    layer: str
    qq: bool  # a linalg call on QQ matrices


def _field_of(args) -> Optional[object]:
    """The field of a linalg call: of ``self``/the first matrix, else the
    ``field`` argument of ``Subspace.__init__``."""
    if not args:
        return None
    field = getattr(args[0], "field", None)
    if field is None and len(args) > 1:
        field = args[1]
    return field


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[_SpanName] = []
        self._name_ids: dict[_SpanName, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {
            "linalg.rref.cells": 0,
            "linalg.rref.calls_ge400": 0,
            "linalg.matmul.ops": 0,
            "algebra.products.bytes": 0,
            "algebra.mult.nonzeros": 0,
            "algebra.mult.cells": 0,
            "modules.presentation.repeats": 0,
            "homology.resolution.steps": 0,
            "reldim.capped": 0,
            "reldim.answers": 0,
        }
        self._presented = weakref.WeakSet()
        self._nonzeros = weakref.WeakKeyDictionary()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------
    def name_id(self, group: str, layer: str, qq: bool = False) -> int:
        key = _SpanName(group, layer, qq)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.span_names)
            self.span_names.append(key)
        return self._name_ids[key]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, group: str):
        idx = self.open(self.name_id(group, "bench"))
        try:
            yield idx
        finally:
            self.close(idx)

    # -- computed counts ------------------------------------------------------------
    def _count_rref(self, args, result, before) -> None:
        m = args[0]
        self.counts["linalg.rref.cells"] += m.rows * m.cols
        self.counts["linalg.rref.calls_ge400"] += m.rows >= 400 or m.cols >= 400

    def _count_matmul(self, args, result, before) -> None:
        a, b = args[0], args[1]
        self.counts["linalg.matmul.ops"] += a.rows * a.cols * b.cols

    def _count_products(self, args, result, before) -> None:
        alg = args[0]
        cube = alg.dim**3
        if alg not in self._nonzeros:
            if isinstance(alg.field, PrimeField):
                self._nonzeros[alg] = int(np.count_nonzero(alg.mult))
            else:
                self._nonzeros[alg] = sum(1 for plane in alg.mult for row in plane for c in row if c)
        if isinstance(alg.field, PrimeField):
            self.counts["algebra.products.bytes"] += 8 * cube  # one pass over the dense int64 tensor
        self.counts["algebra.mult.nonzeros"] += self._nonzeros[alg]
        self.counts["algebra.mult.cells"] += cube

    def _count_presentation(self, args, result, before) -> None:
        m = args[0]
        if m in self._presented:
            self.counts["modules.presentation.repeats"] += 1
        else:
            self._presented.add(m)

    @staticmethod
    def _steps_before(args) -> int:
        res = getattr(args[0], "_resolution", None)
        return len(res.steps) if res is not None else 0

    def _count_resolution(self, args, result, before) -> None:
        self.counts["homology.resolution.steps"] += len(result.steps) - before

    def _count_answer(self, value) -> None:
        self.counts["reldim.answers"] += 1
        self.counts["reldim.capped"] += value.kind == "at_least"

    # -- wrapping -------------------------------------------------------------------
    def _hooks(self, layer: str, group: str) -> tuple[Optional[Callable], Optional[Callable]]:
        """(before, after) count hooks of a span group."""
        return {
            ("linalg", "rref"): (None, self._count_rref),
            ("linalg", "matmul"): (None, self._count_matmul),
            ("algebra", "products"): (None, self._count_products),
            ("modules", "presentation"): (None, self._count_presentation),
            ("homology", "resolution"): (self._steps_before, self._count_resolution),
            ("reldim", "ladder"): (None, lambda args, r, b: self._count_answer(r.value)),
            ("reldim", "chain"): (None, lambda args, r, b: self._count_answer(r[0])),
        }.get((layer, group), (None, None))

    def _wrap(self, fn: Callable, layer: str, group: str) -> Callable:
        nid = self.name_id(f"{layer}.{group}", layer)
        qq_nid = self.name_id(f"{layer}.{group}", layer, qq=True) if layer == "linalg" else None
        before, after = self._hooks(layer, group)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span = qq_nid if qq_nid is not None and isinstance(_field_of(args), RationalField) else nid
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(args, result, state)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, original, layer, group) for everything wrapped."""
        for layer in LAYERS:
            mod = importlib.import_module(f"qhcover.{layer}")
            listed = GROUPS[layer]
            for dotted, group in listed.items():
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(mod, cls_name)
                    yield owner, attr, vars(owner)[attr], layer, group
                else:
                    yield mod, dotted, getattr(mod, dotted), layer, group
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and attr not in listed
                ):
                    yield mod, attr, obj, layer, "other"

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items()) if name == "qhcover" or name.startswith("qhcover.")]
        for owner, attr, original, layer, group in list(self._targets()):
            wrapper = self._wrap(original, layer, group)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Every replaced attribute is the original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patched)

    @property
    def patched_count(self) -> int:
        return len(self._patched)

    # -- results --------------------------------------------------------------------
    def _arrays(self):
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def metrics(self, solve_idx: int) -> dict[str, float]:
        """Every per-layer metric of METRICS except trace.overhead_frac."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k)

        out: dict[str, float] = {}
        for nid, sn in enumerate(self.span_names):
            for key, value in (
                (f"{sn.group}.calls", calls[nid]),
                (f"{sn.group}.self_s", self_s[nid]),
                (f"{sn.layer}.self_s", self_s[nid]),
                ("linalg.qq.self_s", self_s[nid] if sn.qq else 0.0),
            ):
                out[key] = out.get(key, 0) + value
        c = self.counts
        for key in ("linalg.rref.cells", "linalg.rref.calls_ge400", "linalg.matmul.ops",
                    "algebra.products.bytes", "homology.resolution.steps"):
            out[key] = c[key]
        out["algebra.mult.density"] = c["algebra.mult.nonzeros"] / c["algebra.mult.cells"] if c["algebra.mult.cells"] else 0.0
        presentations = out.get("modules.presentation.calls", 0)
        out["modules.presentation.repeat_frac"] = c["modules.presentation.repeats"] / presentations if presentations else 0.0
        out["reldim.capped_frac"] = c["reldim.capped"] / c["reldim.answers"] if c["reldim.answers"] else 0.0

        # Share of the solve covered by spans below the entry calls (the
        # library calls an item makes directly): the entry calls' own self
        # time and the benchmark's code are what the trace leaves unexplained.
        is_bench = np.array([sn.layer == "bench" for sn in self.span_names])[name]
        items = np.flatnonzero((parent == solve_idx) & is_bench)
        entry = np.isin(parent, items) & ~is_bench
        below = (dur[entry] - self_t[entry]).sum()
        out["trace.attributed_frac"] = below / dur[solve_idx]

        wanted = [m.name for m in METRICS if m.name != "trace.overhead_frac"]
        return {key: float(out.get(key, 0.0)) for key in wanted}

    def save(self, path) -> None:
        """Write every span: group, layer, QQ flag, start, end, parent index."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(
            path,
            groups=np.array([sn.group for sn in self.span_names]),
            layers=np.array([sn.layer for sn in self.span_names]),
            qq=np.array([sn.qq for sn in self.span_names]),
            name=name,
            parent=parent,
            start=start,
            end=end,
        )
