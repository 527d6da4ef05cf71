"""The benchmark's workloads: how each builds its inputs and what it solves.

A workload is a ``setup(seed, smoke)`` function that builds the inputs and
returns the items made from them.  An item is a piece of work against
qhcover whose answers are checked against expected values; it returns
``(ok, answer)``.  Items
reach the library through module attributes (``reldim.classical_domdim``,
not a name imported here), so the traced run sees every call.

``smoke`` swaps in inputs small enough for the self-test: a few A_2 pairs
and a small Schur algebra in place of S(3,3).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from qhcover import covers, gallery, modules, qh, reldim
from qhcover.fields import GF, QQ
from qhcover.linalg import Mat, Subspace


class Item(NamedTuple):
    label: str
    run: Callable[[], tuple[bool, str]]


# -- schur33_domdim ------------------------------------------------------------


def setup_schur33_domdim(seed: int, smoke: bool) -> list[Item]:
    """The README headline: domdim of the 165-dimensional S_GF3(3,3) is 4."""
    if smoke:
        s, expected = gallery.build_schur(2, 2, 1, GF(2)), "Exact(2)"
    else:
        s, expected = gallery.build_schur(3, 3, 1, GF(3)), "Exact(4)"

    def run() -> tuple[bool, str]:
        value = str(reldim.classical_domdim(s.algebra, 10)[0].value)
        return value == expected, value

    return [Item(f"domdim S({s.n},{s.d}) GF({s.field.p})", run)]


# -- oracle_sweep -----------------------------------------------------------------


def _named_modules(g) -> dict:
    """P, I, Delta, Nabla, T (and S for A_m, V^d for Schur algebras)."""
    if isinstance(g, gallery.AmGallery):
        return g.named_modules()
    h = g.qh()
    out = {}
    for i, lab in enumerate(h.poset.labels):
        out[f"P({lab})"] = h.projectives[i]
        out[f"I({lab})"] = h.injective(i)
        out[f"Delta({lab})"] = h.standards[i]
        out[f"Nabla({lab})"] = h.costandard(i)
        out[f"T({lab})"] = h.tiltings()[i]
    out["V^d"] = g.tensor_module
    return out


def _random_sub_or_quotient(mods: list, rng: np.random.Generator):
    """A random submodule or quotient of a random module from ``mods``.

    The span of random vectors is closed under the algebra generators, as in
    acceptance criterion 7, so with seed 777 the pairs are exactly that
    criterion's pairs.
    """
    base = mods[int(rng.integers(0, len(mods)))]
    a = base.algebra
    field = a.field
    if base.dim == 0:
        return base
    k = int(rng.integers(1, base.dim + 1))
    vecs = rng.integers(0, field.p, size=(k, base.dim))
    span = Subspace(field, base.dim, Mat(field, vecs))
    gens = a.generator_elements()
    while True:
        cols = span.basis.transpose()
        imgs = [base.act(g) @ cols for g in gens]
        newspan = Subspace(field, base.dim, Mat.vstack([span.basis] + [m.transpose() for m in imgs]))
        if newspan.dim == span.dim:
            break
        span = newspan
    if rng.integers(0, 2):
        return modules.submodule(base, span)[0]
    return modules.quotient_module(base, span)[0]


def _pair_item(label: str, q, m, cap: int) -> Item:
    def run() -> tuple[bool, str]:
        ladder = str(reldim.relative_codomdim(q, m, cap).value)
        chain = str(reldim.codomdim_chain(q, m, cap)[0])
        return ladder == chain, f"{ladder}/{chain}"

    return Item(label, run)


def _ringel_item(label: str, structure, q, random_checks: int) -> Item:
    """The Ringel-dual cover theorem on (structure, q) at cap 6 holds, with n >= 2."""

    def run() -> tuple[bool, str]:
        verdict = covers.verify_ringel_cover_theorem(structure, q, cap=6, random_checks=random_checks)
        ok = verdict.holds and verdict.n.at_least_value() >= 2
        return ok, f"holds={verdict.holds} n={verdict.n}"

    return Item(label, run)


def setup_oracle_sweep(seed: int, smoke: bool) -> list[Item]:
    """The two relative-codomdim oracles on named and random (Q, M) pairs.

    1110 pairs at full size (710 named, 100 random per algebra), then the
    Ringel-dual cover theorem on S_GF3(2,3) with V^3.
    """
    cap = 6
    f2, f3 = GF(2), GF(3)
    if smoke:
        suites = [("A_2", gallery.build_am(2, f3))]
        named_limit, random_count = 3, 4
    else:
        suites = [
            ("A_2", gallery.build_am(2, f3)),
            ("A_3", gallery.build_am(3, f3)),
            ("S_GF2(2,2)", gallery.build_schur(2, 2, 1, f2)),
            ("S_GF3(2,3)", gallery.build_schur(2, 3, 1, f3)),
        ]
        named_limit, random_count = None, 100
    items: list[Item] = []
    for tag, g in suites:
        named = _named_modules(g)
        names = sorted(named)[:named_limit] if named_limit else list(named)
        for qname in names:
            for mname in names:
                items.append(_pair_item(f"{tag} {qname} {mname}", named[qname], named[mname], cap))
        rng = np.random.default_rng(seed)
        mods = list(named.values())
        qs = [named[k] for k in sorted(named)]
        for trial in range(random_count):
            m = _random_sub_or_quotient(mods, rng)
            items.append(_pair_item(f"{tag} random {trial}", qs[trial % len(qs)], m, cap))
    if smoke:
        a2 = suites[0][1]
        items.append(_ringel_item("ringel A_2 T", a2.qh, a2.qh.characteristic_tilting(), 2))
    else:
        s23 = suites[3][1]
        items.append(_ringel_item("ringel S_GF3(2,3) V^3", s23.qh(), s23.tensor_module, 20))
    return items


# -- cover_qq --------------------------------------------------------------------

# Expected answers over QQ: domdim A_m = 2(m-1); tilting summand dimensions;
# A_m is Ringel self-dual, so R(A_m) has dim A_m and verifies.
TILTING_DIMS = {2: [3, 1], 3: [4, 3, 1], 4: [4, 4, 3, 1]}


def setup_cover_qq(seed: int, smoke: bool) -> list[Item]:
    """Zigzag algebras A_m over QQ, one item per algebra.

    Each item checks domdim A_m, the tilting dimensions and the Ringel dual,
    and for m <= 3 the Ringel-dual cover theorem on every partial tilting
    module (3 + 7 of them).  Whole algebras, not single calls, are the items:
    the calls differ in cost by 100x, so percentiles over them would jump
    between neighbouring calls from one run to the next.
    """
    gs = {m: gallery.build_am(m, QQ) for m in ((2,) if smoke else (2, 3, 4))}

    def run(m: int) -> tuple[bool, str]:
        g = gs[m]
        checks = []
        domdim = str(reldim.classical_domdim(g.algebra, 12)[0].value)
        checks.append((domdim == f"Exact({2 * (m - 1)})", f"domdim={domdim}"))
        dims = [t.dim for t in g.qh.tiltings()]
        checks.append((dims == TILTING_DIMS[m], f"tiltings={dims}"))
        rd = qh.ringel_dual(g.qh)
        checks.append((rd.report.passed and rd.algebra.dim == g.algebra.dim, f"ringel_dual={rd.algebra.dim}"))
        if m <= 3:
            for combo, q in g.qh.partial_tilting_combinations():
                verdict = covers.verify_ringel_cover_theorem(g.qh, q, cap=6)
                checks.append((verdict.holds, f"cover{combo}={verdict.n}"))
        return all(ok for ok, _ in checks), " ".join(answer for _, answer in checks)

    return [Item(f"A_{m} over QQ", lambda m=m: run(m)) for m in gs]


WORKLOADS: dict[str, Callable[[int, bool], list[Item]]] = {
    "schur33_domdim": setup_schur33_domdim,
    "oracle_sweep": setup_oracle_sweep,
    "cover_qq": setup_cover_qq,
}
