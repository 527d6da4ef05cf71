"""Command-line front end.

Subcommands: domdim, reldomdim, relcodomdim, qh-verify, tilting,
ringel-dual, cover, gallery.  Inputs come either from JSON files or from
the built-in gallery (--gallery am|hecke|schur with --m/--n/--d/--p/--u).

Exit codes: 0 success, 2 input error, 3 internal cross-check failure,
4 inconclusive: cap-limited under --strict, or an engine limit (the
deterministic, incomplete search for a zero divisor in a simple block found
none on an input it could not rule out).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .algebra import SplitSearchError
from .fields import GF, QQ
from .homology import DimValue
from .modules import Module, regular_module
from .reldim import (
    classical_domdim,
    codomdim_chain,
    domdim_chain,
    relative_codomdim,
    relative_domdim,
)
from .serialize import (
    SerializeError,
    algebra_from_json,
    algebra_to_json,
    content_hash,
    dump_json,
    load_json,
    module_from_json,
    module_to_json,
    poset_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_INCONCLUSIVE = 4


class CliError(Exception):
    pass


def _gallery_context(args):
    from . import gallery as G

    field = QQ if args.p is None else GF(args.p)
    u = "1" if args.u is None else args.u
    kind = args.gallery
    if kind == "am":
        if args.m is None:
            raise CliError("--gallery am needs --m")
        return G.build_am(args.m, field)
    if kind == "hecke":
        if args.d is None:
            raise CliError("--gallery hecke needs --d")
        return G.build_hecke(args.d, u, field)
    if kind == "schur":
        if args.n is None or args.d is None:
            raise CliError("--gallery schur needs --n and --d")
        return G.build_schur(args.n, args.d, u, field)
    raise CliError(f"unknown gallery {kind!r}")


# the size and field flags each input reads
_READS = {"am": "mp", "hecke": "dpu", "schur": "ndpu", None: ""}


def _algebra_from_args(args):
    if args.gallery and args.algebra:
        raise CliError("--algebra and --gallery exclude each other")
    if not (args.gallery or args.algebra):
        raise CliError("need --gallery or --algebra")
    source = f"--gallery {args.gallery}" if args.gallery else "--algebra"
    for flag in "mndpu":
        if flag not in _READS[args.gallery] and getattr(args, flag) is not None:
            raise CliError(f"{source} does not read --{flag}")
    if args.gallery:
        ctx = _gallery_context(args)
        return ctx.algebra, ctx
    return algebra_from_json(load_json(args.algebra)), None


def _named_module(ctx, name: str) -> Module:
    from .gallery import AmGallery, SchurGallery

    if isinstance(ctx, SchurGallery):
        if name == "tensor-space":
            return ctx.tensor_module
        if name == "regular":
            return regular_module(ctx.algebra)
        if name == "tilting":
            return ctx.qh().characteristic_tilting()
        qh = ctx.qh()
        for i, lab in enumerate(qh.poset.labels):
            if name == f"P({lab})":
                return qh.projectives[i]
            if name == f"Delta({lab})":
                return qh.standards[i]
            if name == f"T({lab})":
                return qh.tiltings()[i]
    if isinstance(ctx, AmGallery):
        named = ctx.named_modules()
        if name in named:
            return named[name]
        if name == "regular":
            return regular_module(ctx.algebra)
        if name == "tilting":
            return ctx.qh.characteristic_tilting()
    raise CliError(f"unknown module name {name!r} for this gallery")


def _module_from_args(args, flag: str, algebra, ctx):
    path_or_name = getattr(args, flag.replace("-", "_"))
    if path_or_name is None:
        raise CliError(f"missing --{flag}")
    p = Path(path_or_name)
    if p.suffix == ".json" or p.exists():
        # share one Algebra object across all file-loaded modules
        return module_from_json(load_json(p), algebra=algebra if ctx is None else None, base_dir=p.parent)
    if ctx is None:
        raise CliError(f"--{flag} names a gallery module but no --gallery was given")
    return _named_module(ctx, path_or_name)


def _emit(report: dict, args) -> None:
    report["version"] = __version__
    report["seed"] = args.seed
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.json:
        print(text)
    else:
        for key in ("command", "value", "verdict", "detail"):
            if key in report:
                print(f"{key}: {report[key]}")


def _value_exit(value: DimValue, args) -> int:
    if args.strict and value.kind == "at_least":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_domdim(args) -> int:
    a, ctx = _algebra_from_args(args)
    report_obj, proj_inj_dim = classical_domdim(a, args.cap)
    report = {
        "command": "domdim",
        "value": str(report_obj.value),
        "value_json": report_obj.value.to_json(),
        "proj_inj_dim": proj_inj_dim,
        "B_dim": report_obj.b_dim,
        "input_hash": content_hash(algebra_to_json(a)),
    }
    _emit(report, args)
    return _value_exit(report_obj.value, args)


def _run_relative(args, dom: bool) -> int:
    a, ctx = _algebra_from_args(args)
    q = _module_from_args(args, "wrt", a, ctx)
    m = _module_from_args(args, "module", a, ctx) if args.module else regular_module(a)
    if q.algebra is not a and ctx is None:
        raise CliError("wrt-module was built over a different algebra")
    methods = [args.method] if args.method != "both" else ["mueller", "chain"]
    values = {}
    report = {
        "command": "reldomdim" if dom else "relcodomdim",
        "input_hash": content_hash(algebra_to_json(a)),
    }
    for method in methods:
        if method == "mueller":
            r = relative_domdim(q, m, args.cap) if dom else relative_codomdim(q, m, args.cap)
            values["mueller"] = r.value
            report["mueller"] = r.to_json()
        else:
            v, chain = domdim_chain(q, m, args.cap) if dom else codomdim_chain(q, m, args.cap)
            values["chain"] = v
            report["chain"] = {"value": v.to_json(), "witness": chain.to_json()}
    if len(values) == 2 and str(values["mueller"]) != str(values["chain"]):
        report["verdict"] = "METHOD MISMATCH"
        _emit(report, args)
        return EXIT_MISMATCH
    value = values.get("mueller", values.get("chain"))
    report["value"] = str(value)
    _emit(report, args)
    return _value_exit(value, args)


def cmd_reldomdim(args) -> int:
    return _run_relative(args, dom=True)


def cmd_relcodomdim(args) -> int:
    return _run_relative(args, dom=False)


def _qh_from_args(args):
    from .gallery import AmGallery, SchurGallery
    from .qh import verify_split_qh

    a, ctx = _algebra_from_args(args)
    if isinstance(ctx, (SchurGallery, AmGallery)) and args.poset:
        raise CliError(f"--gallery {args.gallery} has its own weight poset: drop --poset")
    if isinstance(ctx, SchurGallery):
        return ctx.qh().verification, ctx.qh(), a, ctx
    if isinstance(ctx, AmGallery):
        return ctx.qh.verification, ctx.qh, a, ctx
    if not args.poset:
        raise CliError("raw algebras need --poset")
    poset = poset_from_json(load_json(args.poset), a)
    report, qh = verify_split_qh(a, poset)
    return report, qh, a, ctx


def cmd_qh_verify(args) -> int:
    report, qh, a, ctx = _qh_from_args(args)
    out = {
        "command": "qh-verify",
        "verdict": "pass" if report.passed else "fail",
        "detail": report.first_failure() or "",
        "report": report.to_json(),
        "labels": qh.poset.labels,
        "delta_dims": [d.dim for d in qh.standards],
        "nabla_dims": [qh.costandard(l).dim for l in range(qh.label_count())] if report.passed else [],
        "projective_dims": [p.dim for p in qh.projectives],
        "injective_dims": [qh.injective(l).dim for l in range(qh.label_count())] if report.passed else [],
        "delta_multiplicities_of_projectives": (
            [qh.delta_multiplicities(p) for p in qh.projectives] if report.passed else []
        ),
        "input_hash": content_hash(algebra_to_json(a)),
    }
    _emit(out, args)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_tilting(args) -> int:
    report, qh, a, ctx = _qh_from_args(args)
    if not report.passed:
        raise CliError(f"structure is not split quasi-hereditary: {report.first_failure()}")
    tilts = qh.tiltings()
    out = {
        "command": "tilting",
        "value": [t.dim for t in tilts],
        "labels": qh.poset.labels,
        "input_hash": content_hash(algebra_to_json(a)),
    }
    _emit(out, args)
    return EXIT_OK


def cmd_ringel_dual(args) -> int:
    from .qh import ringel_dual

    report, qh, a, ctx = _qh_from_args(args)
    if not report.passed:
        raise CliError(f"structure is not split quasi-hereditary: {report.first_failure()}")
    rd = ringel_dual(qh)
    out = {
        "command": "ringel-dual",
        "value": rd.algebra.dim,
        "verdict": "pass" if rd.report.passed else "fail",
        "standard_dims": [s.dim for s in rd.structure.standards],
        "standard_dims_via_hom": rd.standard_dims_via_hom,
        "input_hash": content_hash(algebra_to_json(a)),
    }
    _emit(out, args)
    return EXIT_OK if rd.report.passed else EXIT_MISMATCH


def cmd_cover(args) -> int:
    from .covers import hn_dimension, verify_ringel_cover_theorem

    report, qh, a, ctx = _qh_from_args(args)
    if not report.passed:
        raise CliError(f"structure is not split quasi-hereditary: {report.first_failure()}")
    if args.ringel:
        q = _module_from_args(args, "wrt", a, ctx)
        verdict = verify_ringel_cover_theorem(qh, q, cap=args.cap, random_checks=args.random_checks, seed=args.seed)
        out = {
            "command": "cover",
            "value": f"n = {verdict.n}, hn = {verdict.cover_report.hn_str()}",
            "verdict": "verified" if verdict.holds else "FAILED",
            "detail": verdict.detail,
            "report": verdict.to_json(),
            "input_hash": content_hash(algebra_to_json(a)),
        }
        _emit(out, args)
        return EXIT_OK if verdict.holds else EXIT_MISMATCH
    p = _module_from_args(args, "wrt", a, ctx)
    rep = hn_dimension(qh, p, cap=args.cap, random_checks=args.random_checks, seed=args.seed)
    out = {
        "command": "cover",
        "value": f"hn = {rep.hn_str()}",
        "report": rep.to_json(),
        "input_hash": content_hash(algebra_to_json(a)),
    }
    _emit(out, args)
    return EXIT_OK


def cmd_gallery(args) -> int:
    a, ctx = _algebra_from_args(args)
    if ctx is None:
        raise CliError("gallery command needs --gallery")
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    algebra_file = outdir / "algebra.json"
    dump_json(algebra_to_json(a), algebra_file)
    manifest = {"algebra": algebra_file.name, "modules": {}}
    modules: dict[str, Module] = {}
    from .gallery import AmGallery, SchurGallery

    if isinstance(ctx, AmGallery):
        modules = ctx.named_modules()
    elif isinstance(ctx, SchurGallery):
        modules["V^d"] = ctx.tensor_module
        qh = ctx.qh()
        for i, lab in enumerate(qh.poset.labels):
            modules[f"P({lab})"] = qh.projectives[i]
            modules[f"Delta({lab})"] = qh.standards[i]
            modules[f"T({lab})"] = qh.tiltings()[i]
        for lam in ctx.weights:
            manifest.setdefault("idempotents", {})[f"xi{lam}"] = [
                ctx.field.to_str(ctx.weight_idempotent(lam)[i, 0]) for i in range(a.dim)
            ]
        if ctx.n > 1:
            from .gallery import truncation_idempotent

            f_idem = truncation_idempotent(ctx, ctx.n - 1)
            manifest.setdefault("idempotents", {})["f"] = [
                ctx.field.to_str(f_idem[i, 0]) for i in range(a.dim)
            ]
    for name, mod in modules.items():
        fname = "".join(c if c.isalnum() else "_" for c in name) + ".json"
        dump_json(module_to_json(mod, algebra_ref=algebra_file.name), outdir / fname)
        manifest["modules"][name] = fname
    dump_json(manifest, outdir / "manifest.json")
    print(f"wrote {len(modules)} modules to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qhcover", description="Exact relative dominant dimension and quasi-hereditary cover computations")
    sub = ap.add_subparsers(dest="command", required=True)

    relative = ("reldomdim", "relcodomdim")
    for name, fn in [
        ("domdim", cmd_domdim),
        ("reldomdim", cmd_reldomdim),
        ("relcodomdim", cmd_relcodomdim),
        ("qh-verify", cmd_qh_verify),
        ("tilting", cmd_tilting),
        ("ringel-dual", cmd_ringel_dual),
        ("cover", cmd_cover),
        ("gallery", cmd_gallery),
    ]:
        # each command takes the options it reads, so a stray one is an error
        p = sub.add_parser(name)
        p.add_argument("--gallery", choices=["am", "hecke", "schur"])
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--p", type=int, help="prime (omit for rationals)")
        p.add_argument("--u", help="Hecke parameter (default 1)")
        p.add_argument("--algebra", help="algebra JSON file")
        p.add_argument("--out", help="output directory" if name == "gallery" else "write the JSON report here")
        if name != "gallery":  # _emit writes the seed into every report
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--json", action="store_true", help="print the full JSON report")
        if name in ("domdim", *relative, "cover"):
            p.add_argument("--cap", type=int, default=20)
        if name in ("domdim", *relative):
            p.add_argument("--strict", action="store_true")
        if name in ("qh-verify", "tilting", "ringel-dual", "cover"):
            p.add_argument("--poset", help="weight poset JSON file")
        if name in (*relative, "cover"):
            p.add_argument("--wrt", help="module file or gallery module name")
        if name in relative:
            p.add_argument("--module", help="module file or gallery module name")
            p.add_argument("--method", choices=["mueller", "chain", "both"], default="mueller")
        if name == "cover":
            p.add_argument("--random-checks", type=int, default=20)
            p.add_argument("--ringel", action="store_true", help="verify the Ringel-dual cover theorem")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SerializeError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SplitSearchError as exc:
        print(f"engine limit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
