"""JSON formats for algebras, quivers, modules, posets and reports.

Coefficients are decimal strings ("2", "-1/3") so both field kinds share
one schema.  Module files may embed their algebra inline or point at a
separate file with {"file": "path"}.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .algebra import Algebra, from_structure_constants
from .fields import Field, field_from_json, field_to_json
from .linalg import Mat, Triples
from .modules import Module
from .qh import WeightPoset
from .quiver import Arrow, QuiverPresentation


class SerializeError(ValueError):
    pass


def _coeff_str(field: Field, x) -> str:
    return field.to_str(x)


def _get(obj, key: str, kind: str, want: type | None = None):
    """obj[key], or a SerializeError naming the key if it is missing or not of type ``want``."""
    if not isinstance(obj, dict) or key not in obj:
        raise SerializeError(f"{kind} JSON is missing the key {key!r}")
    if want is not None and type(obj[key]) is not want:
        raise SerializeError(f"{kind} JSON key {key!r} must be of type {want.__name__}, not {obj[key]!r}")
    return obj[key]


def algebra_to_json(a: Algebra) -> dict:
    triplets = [[i, j, k, _coeff_str(a.field, c)] for i, j, k, c in a.triples.entries(a.field)]
    return {
        "field": field_to_json(a.field),
        "dim": a.dim,
        "mult": triplets,
        "one": [_coeff_str(a.field, a.one[i, 0]) for i in range(a.dim)],
    }


def algebra_from_json(obj: dict) -> Algebra:
    field = field_from_json(_get(obj, "field", "algebra", dict))
    dim = _get(obj, "dim", "algebra", int)
    entries = {}
    for t in _get(obj, "mult", "algebra", list):
        if not (isinstance(t, list) and len(t) == 4):
            raise SerializeError(f"structure constant {t!r} is not [i, j, k, coefficient]")
        i, j, k, c = t
        if not all(type(x) is int and 0 <= x < dim for x in (i, j, k)):
            raise SerializeError(f"structure constant index ({i}, {j}, {k}) out of range for dim {dim}")
        if (i * dim + j, k) in entries:
            raise SerializeError(f"structure constant index ({i}, {j}, {k}) is given twice")
        entries[i * dim + j, k] = field.parse(str(c))
    one = [field.parse(str(c)) for c in _get(obj, "one", "algebra", list)]
    return from_structure_constants(field, dim, Triples.from_entries(field, dim, entries), one)


def quiver_from_json(obj: dict) -> QuiverPresentation:
    n = _get(obj, "vertices", "quiver", int)
    if n < 1:
        raise SerializeError(f"quiver JSON needs at least one vertex, not {n}")
    obj = {"arrows": [], "relations": [], **obj}  # both optional
    arrows = []
    for a in _get(obj, "arrows", "quiver", list):
        name = _get(a, "name", "arrow", str)
        if any(b.name == name for b in arrows):
            raise SerializeError(f"arrow name {name!r} is given twice")
        ends = [_get(a, end, "arrow", int) for end in ("from", "to")]
        if not all(1 <= v <= n for v in ends):
            raise SerializeError(f"arrow {name!r} has an endpoint outside the vertices 1..{n}")
        arrows.append(Arrow(name, ends[0] - 1, ends[1] - 1))
    pres = QuiverPresentation(n, arrows, [])
    names = {a.name for a in arrows}
    relations = []
    for rel in _get(obj, "relations", "quiver", list):
        if not isinstance(rel, list):
            raise SerializeError(f"relation {rel!r} is not a list of terms")
        terms = []
        for term in rel:
            path = _get(term, "path", "relation term", list)
            if not all(type(nm) is str and nm in names for nm in path):
                raise SerializeError(f"relation path {path!r} names an unknown arrow")
            coeff = _get({"coeff": "1", **term}, "coeff", "relation term", str)
            terms.append((coeff, tuple(pres.arrow_index(nm) for nm in path)))
        relations.append(terms)
    pres.relations = relations
    return pres


def module_to_json(m: Module, algebra_ref: str | None = None) -> dict:
    field, flat, d = m.algebra.field, m.flat_action(), m.dim
    # row b of the flat action is rho(b_b) read row-major
    action = [[[_coeff_str(field, flat[b, i * d + j]) for j in range(d)] for i in range(d)] for b in range(flat.rows)]
    out = {"dim": m.dim, "action": action}
    if algebra_ref is not None:
        out["algebra"] = {"file": algebra_ref}
    else:
        out["algebra"] = algebra_to_json(m.algebra)
    return out


def module_from_json(obj: dict, algebra: Algebra | None = None, base_dir: Path | None = None) -> Module:
    if algebra is None:
        ref = obj.get("algebra")
        if ref is None:
            raise SerializeError("module JSON needs an algebra (inline or file reference)")
        if "file" in ref:
            path = Path(ref["file"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            algebra = algebra_from_json(json.loads(path.read_text()))
        else:
            algebra = algebra_from_json(ref)
    field = algebra.field
    dim = _get(obj, "dim", "module", int)
    action = []
    for g in _get(obj, "action", "module", list):
        if isinstance(g, list) and g and not isinstance(g[0], list):  # flat row-major
            if len(g) != dim * dim:
                raise SerializeError(f"flat action matrix has {len(g)} entries, need dim^2 = {dim * dim}")
            g = [g[i * dim : (i + 1) * dim] for i in range(dim)]
        if not (isinstance(g, list) and len(g) == dim and all(isinstance(row, list) and len(row) == dim for row in g)):
            raise SerializeError(f"action matrix {g!r} is not {dim} rows of {dim} entries")
        action.append(Mat(field, [[field.parse(str(x)) for x in row] for row in g], cols=dim))
    mod = Module.from_matrices(algebra, action)
    mod.validate()
    return mod


def poset_from_json(obj: dict, algebra: Algebra) -> WeightPoset:
    labels = [str(x) for x in _get(obj, "labels", "poset", list)]
    prim = algebra.primitive_idempotents().idempotents
    simple_of = _get(obj, "simple_of", "poset", list)
    for k in simple_of:
        if not (type(k) is int and 0 <= k < len(prim)):
            raise SerializeError(f"simple_of index {k!r} out of range for {len(prim)} primitive idempotents")
    pairs = []
    for p in _get(obj, "less_than", "poset", list):
        if not (isinstance(p, list) and len(p) == 2 and all(type(i) is int and 0 <= i < len(labels) for i in p)):
            raise SerializeError(f"less_than entry {p!r} is not a pair of label indices below {len(labels)}")
        pairs.append(tuple(p))
    return WeightPoset(labels, pairs, [prim[k] for k in simple_of])


def content_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
