"""CLI and JSON serialization round trips."""

import json
from pathlib import Path

import pytest

from qhcover.cli import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am
from qhcover.serialize import (
    algebra_from_json,
    algebra_to_json,
    module_from_json,
    module_to_json,
    poset_from_json,
    quiver_from_json,
)

from conftest import broken_truncated_polynomial_module

F3 = GF(3)


def test_algebra_roundtrip():
    g = build_am(2, F3)
    blob = algebra_to_json(g.algebra)
    back = algebra_from_json(blob)
    assert back.dim == 5
    assert algebra_to_json(back) == blob


def test_algebra_roundtrip_qq():
    g = build_am(2, QQ)
    blob = algebra_to_json(g.algebra)
    back = algebra_from_json(blob)
    assert algebra_to_json(back) == blob


def test_module_roundtrip():
    g = build_am(2, F3)
    p2 = g.qh.projectives[1]
    blob = module_to_json(p2)
    back = module_from_json(blob)
    assert back.dim == 3


def test_quiver_json():
    pres = quiver_from_json(
        {
            "vertices": 2,
            "arrows": [{"name": "a1", "from": 1, "to": 2}, {"name": "b1", "from": 2, "to": 1}],
            "relations": [[{"path": ["b1", "a1"], "coeff": "1"}]],
        }
    )
    from qhcover.quiver import from_quiver

    alg = from_quiver(pres, F3)
    assert alg.dim == 5


def test_cli_domdim_am(capsys):
    rc = main(["domdim", "--gallery", "am", "--m", "3", "--p", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "Exact(4)" in out


def test_cli_domdim_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc = main(["domdim", "--gallery", "am", "--m", "2", "--p", "3", "--out", str(out_file), "--json"])
    assert rc == EXIT_OK
    report = json.loads(out_file.read_text())
    assert report["value"] == "Exact(2)"
    assert "version" in report and "input_hash" in report and "seed" in report


def test_cli_reports_deterministic(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        rc = main(["relcodomdim", "--gallery", "am", "--m", "2", "--p", "3", "--wrt", "T(1)", "--module", "regular", "--method", "both", "--seed", "7", "--out", str(f)])
        assert rc == EXIT_OK
    assert f1.read_text() == f2.read_text()


def test_cli_method_both_agreement(capsys):
    rc = main(["relcodomdim", "--gallery", "am", "--m", "2", "--p", "3", "--wrt", "tilting", "--module", "tilting", "--method", "both"])
    assert rc == EXIT_OK
    assert "Infinite" in capsys.readouterr().out


def test_cli_method_mismatch_exit_code(monkeypatch, capsys):
    import qhcover.cli as climod
    from qhcover.homology import DimValue
    from qhcover.reldim import ApproximationChain

    def fake_chain(q, m, cap):
        return DimValue.exact(99), ApproximationChain(base=m)

    monkeypatch.setattr(climod, "codomdim_chain", fake_chain)
    rc = main(["relcodomdim", "--gallery", "am", "--m", "2", "--p", "3", "--wrt", "tilting", "--module", "tilting", "--method", "both"])
    assert rc == EXIT_MISMATCH


def test_cli_input_error():
    rc = main(["domdim", "--algebra", "/nonexistent/file.json"])
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("index", [[0, 2, 0], [0, 0, -1]])
def test_cli_rejects_out_of_range_structure_constant(tmp_path, capsys, index):
    bad = {"field": {"kind": "prime", "p": 3}, "dim": 2, "mult": [[0, 0, 0, "1"], index + ["1"]], "one": ["1", "0"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["domdim", "--algebra", str(path)]) == EXIT_INPUT
    assert "out of range" in capsys.readouterr().err


def _am2_input_files(tmp_path, algebra=None, module=None, poset=None):
    """A_2 over GF(3) as algebra, module (P(2)) and poset files, each optionally edited."""
    g = build_am(2, F3)
    blobs = {
        "algebra.json": algebra_to_json(g.algebra),
        "module.json": module_to_json(g.qh.projectives[1], algebra_ref="algebra.json"),
        "poset.json": {"labels": ["1", "2"], "less_than": [[1, 0]], "simple_of": [0, 1]},
    }
    for name, edit in (("algebra.json", algebra), ("module.json", module), ("poset.json", poset)):
        if edit is not None:
            edit(blobs[name])
        (tmp_path / name).write_text(json.dumps(blobs[name]))
    return {name.split(".")[0]: str(tmp_path / name) for name in blobs}


def _qh_verify_argv(files):
    return ["qh-verify", "--algebra", files["algebra"], "--poset", files["poset"]]


def _relcodomdim_argv(files):
    return ["relcodomdim", "--algebra", files["algebra"], "--wrt", files["module"], "--module", files["module"], "--method", "mueller"]


@pytest.mark.parametrize(
    "simple_of, less_than",
    [([0, 5], [[1, 0]]), ([0, -1], [[1, 0]]), ([0, 1], [[0, 7]])],
    ids=["simple_of-too-large", "simple_of-negative", "less_than-too-large"],
)
def test_cli_rejects_out_of_range_poset_index(tmp_path, capsys, simple_of, less_than):
    files = _am2_input_files(tmp_path, poset=lambda p: p.update(simple_of=simple_of, less_than=less_than))
    assert main(_qh_verify_argv(files)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "out of range" in err or "not a pair of label indices" in err


def _domdim_argv(files):
    return ["domdim", "--algebra", files["algebra"]]


def _shorten_flat_action(blob):
    blob["action"] = [sum(rows, [])[:-1] for rows in blob["action"]]


def _first_coefficient(value, field=None):
    """Edit: the first structure constant's coefficient becomes ``value`` (over ``field`` if given)."""

    def edit(blob):
        blob["mult"][0][3] = value
        if field is not None:
            blob["field"] = field

    return edit


@pytest.mark.parametrize(
    "argv, edit, message",
    [
        (_qh_verify_argv, {"algebra": lambda a: a.pop("field")}, "'field'"),
        (_qh_verify_argv, {"algebra": lambda a: a.pop("one")}, "'one'"),
        (_qh_verify_argv, {"algebra": lambda a: a["field"].pop("p")}, "'p'"),
        (_qh_verify_argv, {"poset": lambda p: p.pop("less_than")}, "'less_than'"),
        (_relcodomdim_argv, {"module": lambda m: m.pop("dim")}, "'dim'"),
        (_relcodomdim_argv, {"module": lambda m: m.pop("action")}, "'action'"),
        (_relcodomdim_argv, {"module": _shorten_flat_action}, "entries, need dim^2"),
        (_domdim_argv, {"algebra": _first_coefficient("1/3")}, "'1/3'"),
        (_domdim_argv, {"algebra": _first_coefficient("1/0", field={"kind": "rationals"})}, "'1/0'"),
        (_domdim_argv, {"algebra": lambda a: a.update(mult=5)}, "'mult'"),
        (_domdim_argv, {"algebra": lambda a: a.update(one=5)}, "'one'"),
        (_domdim_argv, {"algebra": lambda a: a.update(field="GF3")}, "'GF3'"),
        (_domdim_argv, {"algebra": lambda a: a.update(dim=1.5)}, "1.5"),
        (_relcodomdim_argv, {"module": lambda m: m.update(action=5)}, "'action'"),
        (_relcodomdim_argv, {"module": lambda m: m.update(action=[5])}, "action matrix 5"),
        (_relcodomdim_argv, {"module": lambda m: m.update(dim=1.5)}, "1.5"),
        (_domdim_argv, {"algebra": _first_coefficient("1/2/3")}, "'1/2/3'"),
    ],
    ids=[
        "algebra-field", "algebra-one", "field-p", "poset-less_than", "module-dim", "module-action", "module-short-flat-action",
        "coefficient-denominator-p", "coefficient-denominator-0-QQ", "algebra-mult-not-list", "algebra-one-not-list",
        "algebra-field-not-object", "algebra-dim-float", "module-action-not-list", "module-action-entry-not-list", "module-dim-float",
        "coefficient-two-slashes",
    ],
)
def test_cli_malformed_json_is_input_error(tmp_path, capsys, argv, edit, message):
    files = _am2_input_files(tmp_path, **edit)
    assert main(argv(files)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_cli_rejects_module_not_multiplicative(tmp_path, capsys):
    a, bad = broken_truncated_polynomial_module()
    (tmp_path / "algebra.json").write_text(json.dumps(algebra_to_json(a)))
    (tmp_path / "module.json").write_text(json.dumps(module_to_json(bad, algebra_ref="algebra.json")))
    files = {"algebra": str(tmp_path / "algebra.json"), "module": str(tmp_path / "module.json")}
    assert main(_relcodomdim_argv(files)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "not multiplicative" in err and err.count("\n") == 1


def test_cli_gallery_manifest_and_file_inputs(tmp_path, capsys):
    rc = main(["gallery", "--gallery", "am", "--m", "2", "--p", "3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "P(1)" in manifest["modules"]
    qfile = tmp_path / manifest["modules"]["T(1)"]
    mfile = tmp_path / manifest["modules"]["P(2)"]
    rc = main(["relcodomdim", "--wrt", str(qfile), "--module", str(mfile), "--algebra", str(tmp_path / "algebra.json"), "--method", "mueller"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "Infinite" in out  # P(2) = T(1) lies in add(T(1))


def test_cli_qh_verify_schur(capsys):
    rc = main(["qh-verify", "--gallery", "schur", "--n", "2", "--d", "3", "--p", "3"])
    assert rc == EXIT_OK
    assert "pass" in capsys.readouterr().out


def test_cli_strict_inconclusive(capsys):
    # codomdim of Nabla(1) wrt P(2) reaches the cap 2: AtLeast(2), which only
    # --strict turns into a nonzero exit
    argv = ["relcodomdim", "--gallery", "am", "--m", "2", "--p", "3", "--wrt", "P(2)", "--module", "Nabla(1)", "--cap", "2"]
    assert main(argv + ["--strict"]) == EXIT_INCONCLUSIVE
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert "AtLeast(2)" in capsys.readouterr().out


def test_poset_json_roundtrip():
    g = build_am(2, F3)
    prim = g.algebra.primitive_idempotents()
    blob = {"labels": ["1", "2"], "less_than": [[1, 0]], "simple_of": [0, 1]}
    poset = poset_from_json(blob, g.algebra)
    assert poset.lt(1, 0)
