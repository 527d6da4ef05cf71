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
from .linalg import Mat
from .modules import Module
from .qh import WeightPoset
from .quiver import Arrow, QuiverPresentation


class SerializeError(ValueError):
    pass


def _coeff_str(field: Field, x) -> str:
    return field.to_str(x)


def algebra_to_json(a: Algebra) -> dict:
    triplets = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.structure[i * a.dim + j, k]
                if c != 0:
                    triplets.append([i, j, k, _coeff_str(a.field, c)])
    return {
        "field": field_to_json(a.field),
        "dim": a.dim,
        "mult": triplets,
        "one": [_coeff_str(a.field, a.one[i, 0]) for i in range(a.dim)],
    }


def algebra_from_json(obj: dict) -> Algebra:
    field = field_from_json(obj["field"])
    dim = int(obj["dim"])
    entries = {}
    for i, j, k, c in obj["mult"]:
        if not all(isinstance(x, int) and 0 <= x < dim for x in (i, j, k)):
            raise SerializeError(f"structure constant index ({i}, {j}, {k}) out of range for dim {dim}")
        entries[i * dim + j, k] = field.parse(str(c))
    one = [field.parse(str(c)) for c in obj["one"]]
    return from_structure_constants(field, dim, Mat.from_entries(field, dim * dim, dim, entries), one)


def quiver_from_json(obj: dict) -> QuiverPresentation:
    n = int(obj["vertices"])
    arrows = [Arrow(str(a["name"]), int(a["from"]) - 1, int(a["to"]) - 1) for a in obj.get("arrows", [])]
    pres = QuiverPresentation(n, arrows, [])
    relations = []
    for rel in obj.get("relations", []):
        terms = []
        for term in rel:
            path = tuple(pres.arrow_index(nm) for nm in term["path"])
            terms.append((term.get("coeff", "1"), path))
        relations.append(terms)
    pres.relations = relations
    return pres


def module_to_json(m: Module, algebra_ref: str | None = None) -> dict:
    field = m.algebra.field
    action = []
    for g in m.action:
        action.append([[_coeff_str(field, g[i, j]) for j in range(g.cols)] for i in range(g.rows)])
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
    dim = int(obj["dim"])
    action = []
    for g in obj["action"]:
        if g and not isinstance(g[0], list):  # flat row-major
            rows = [[field.parse(str(g[i * dim + j])) for j in range(dim)] for i in range(dim)]
        else:
            rows = [[field.parse(str(x)) for x in row] for row in g]
        action.append(Mat(field, rows, cols=dim))
    mod = Module(algebra, action)
    mod.validate()
    return mod


def poset_from_json(obj: dict, algebra: Algebra) -> WeightPoset:
    prim = algebra.primitive_idempotents()
    idems = [prim.idempotents[int(k)] for k in obj["simple_of"]]
    pairs = [tuple(p) for p in obj["less_than"]]
    return WeightPoset([str(x) for x in obj["labels"]], pairs, idems)


def content_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
