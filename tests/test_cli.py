"""CLI and JSON serialization round trips."""

import contextlib
import functools
import hashlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qhcover.cli import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am
from qhcover.serialize import (
    algebra_from_json,
    algebra_to_json,
    content_hash,
    module_from_json,
    module_to_json,
    poset_from_json,
    quiver_from_json,
    SerializeError,
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


_A2_QUIVER = {
    "vertices": 2,
    "arrows": [{"name": "a1", "from": 1, "to": 2}, {"name": "b1", "from": 2, "to": 1}],
    "relations": [[{"path": ["b1", "a1"], "coeff": "1"}]],
}


def test_quiver_json():
    pres = quiver_from_json(_A2_QUIVER)
    from qhcover.quiver import from_quiver

    alg = from_quiver(pres, F3)
    assert alg.dim == 5


def _a3_quiver(coeff):
    """The zigzag A_3 with the commutativity relation b2 a2 + coeff a1 b1 = 0."""
    arrows = [("a1", 1, 2), ("a2", 2, 3), ("b1", 2, 1), ("b2", 3, 2)]
    zero = [[{"path": path}] for path in (["a2", "a1"], ["b1", "b2"], ["b1", "a1"])]
    return {
        "vertices": 3,
        "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows],
        "relations": zero + [[{"path": ["b2", "a2"], "coeff": "1"}, {"path": ["a1", "b1"], "coeff": coeff}]],
    }


def test_quiver_json_fractional_coefficients():
    from qhcover.quiver import from_quiver

    # 1/2 is 2 in GF(3)
    assert algebra_to_json(from_quiver(quiver_from_json(_a3_quiver("1/2")), F3)) == algebra_to_json(from_quiver(quiver_from_json(_a3_quiver("2")), F3))
    with pytest.raises(ValueError, match="denominator divisible by 3"):
        from_quiver(quiver_from_json(_a3_quiver("1/3")), F3)


def test_quiver_json_repeated_terms_add_up():
    # b2 a2 - b2 a2 + a1 b1 = 0 is a1 b1 = 0; a2 b2 = 0 keeps both finite
    repeated, single = _a3_quiver("1"), _a3_quiver("1")
    repeated["relations"][-1] = [{"path": ["b2", "a2"], "coeff": "1"}, {"path": ["b2", "a2"], "coeff": "-1"}, {"path": ["a1", "b1"], "coeff": "1"}]
    single["relations"][-1] = [{"path": ["a1", "b1"], "coeff": "1"}]
    for blob in (repeated, single):
        blob["relations"].append([{"path": ["a2", "b2"]}])
    from qhcover.quiver import from_quiver

    for field in (F3, QQ):
        assert algebra_to_json(from_quiver(quiver_from_json(repeated), field)) == algebra_to_json(from_quiver(quiver_from_json(single), field))


@pytest.mark.parametrize(
    "blob",
    [
        {"vertices": 2, "arrows": [{"name": "a"}]},
        {"vertices": None},
        {"vertices": 2, "arrows": [{"name": "a", "from": 1, "to": 9}]},
        {"vertices": 2, "arrows": [{"name": "a", "from": 1, "to": 2}, {"name": "a", "from": 2, "to": 1}]},
    ],
)
def test_quiver_json_rejects_malformed_input(blob):
    with pytest.raises(SerializeError):
        quiver_from_json(blob)


# (key path, JSON type, required) of every key of the A_2 quiver; "arrows",
# "relations" and "coeff" are optional, so they are never dropped
_QUIVER_KEYS = [
    (("vertices",), int, True),
    (("arrows",), list, False),
    (("relations",), list, False),
    *[(("arrows", i, key), want, True) for i in (0, 1) for key, want in [("name", str), ("from", int), ("to", int)]],
    (("relations", 0, 0, "path"), list, True),
    (("relations", 0, 0, "coeff"), str, False),
]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_quiver_json_mutations_are_serialize_errors(data):
    blob = json.loads(json.dumps(_A2_QUIVER))
    kind = data.draw(st.sampled_from(["drop", "wrong type", "bad index", "unknown arrow"]))
    if kind == "bad index":
        # vertices are numbered 1..2, and JSON true is not 1
        arrow = data.draw(st.sampled_from(blob["arrows"]))
        arrow[data.draw(st.sampled_from(["from", "to"]))] = data.draw(st.sampled_from([0, 3, -1, True, "1", 1.0, None]))
    elif kind == "unknown arrow":
        steps = blob["relations"][0][0]["path"]
        steps[data.draw(st.integers(0, len(steps) - 1))] = data.draw(st.sampled_from(["c1", "", 0, None, ["a1"]]))
    elif kind == "drop":
        path, _, _ = data.draw(st.sampled_from([k for k in _QUIVER_KEYS if k[2]]))
        del _parent(blob, path)[path[-1]]
    else:
        path, want, _ = data.draw(st.sampled_from(_QUIVER_KEYS))
        _parent(blob, path)[path[-1]] = data.draw(st.sampled_from(_VALUES).filter(lambda v: type(v) is not want))
    with pytest.raises(SerializeError):
        quiver_from_json(blob)


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


_PINNED_ALGEBRAS = {
    "A3_GF3": ["--gallery", "am", "--m", "3", "--p", "3"],
    "A3_QQ": ["--gallery", "am", "--m", "3"],
    "S_GF3(2,3)": ["--gallery", "schur", "--n", "2", "--d", "3", "--p", "3"],
}
_BOTH = ["--wrt", "tilting", "--module", "regular", "--method", "both"]

# (algebra, command, exit code, first 16 hex digits of the sha256 of the
# --json stdout), recorded before Ext was computed by the dimension shift
_PINNED_REPORTS = [
    ("A3_GF3", ["domdim"], 0, "da4a7b6470443aa8"),
    ("A3_GF3", ["tilting"], 0, "81a154bd3c5ba268"),
    ("A3_GF3", ["ringel-dual"], 0, "73fc11f9d6da04d2"),
    ("A3_GF3", ["qh-verify"], 0, "51a664cef2bf7d4a"),
    ("A3_GF3", ["relcodomdim", *_BOTH], 0, "a7b68f043f3e072c"),
    ("A3_GF3", ["reldomdim", *_BOTH], 0, "c82c4490d85c25a9"),
    ("A3_GF3", ["cover", "--wrt", "P(2)"], 0, "c83fe1562fadd779"),
    ("A3_GF3", ["cover", "--ringel", "--wrt", "tilting"], 0, "594bcfe5539adf15"),
    ("A3_QQ", ["domdim"], 0, "2cce9a1ec54577e4"),
    ("A3_QQ", ["tilting"], 0, "3944679e247f94de"),
    ("A3_QQ", ["ringel-dual"], 0, "faffc077cf1a57ed"),
    ("A3_QQ", ["qh-verify"], 0, "22effd466891da3d"),
    ("A3_QQ", ["relcodomdim", *_BOTH], 0, "57c2c5d569637214"),
    ("A3_QQ", ["reldomdim", *_BOTH], 0, "749264b21f68a39e"),
    ("A3_QQ", ["cover", "--wrt", "P(2)"], 0, "26ba1d35d2ce5b8f"),
    ("A3_QQ", ["cover", "--ringel", "--wrt", "tilting"], 0, "58216e231dd7acfa"),
    ("S_GF3(2,3)", ["domdim"], 0, "0f1dd351436b872e"),
    ("S_GF3(2,3)", ["tilting"], 0, "6dd049e66893f91f"),
    ("S_GF3(2,3)", ["ringel-dual"], 0, "0e6fa303caf16dce"),
    ("S_GF3(2,3)", ["qh-verify"], 0, "3b6774e97d4340e6"),
    ("S_GF3(2,3)", ["relcodomdim", *_BOTH], 0, "156ae0e240299f18"),
    ("S_GF3(2,3)", ["reldomdim", *_BOTH], 0, "6e417d47c411752a"),
    ("S_GF3(2,3)", ["cover", "--wrt", "P((2, 1))"], 0, "07a43b4985facdd0"),
    ("S_GF3(2,3)", ["cover", "--ringel", "--wrt", "tensor-space"], 0, "c141c6dcbbd5f8e0"),
]


def test_reports_match_pinned_digests():
    # reports are byte-identical across refactors: a change to any of these
    # is a change of behaviour, to be made on purpose
    for tag, command, code, digest in _PINNED_REPORTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main([command[0], *_PINNED_ALGEBRAS[tag], *command[1:], "--json"])
        assert (rc, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]) == (code, digest), (tag, command)


# the domdim --json reports of the parent of the reduction to the basic algebra
@pytest.mark.parametrize(
    "n, d, p, b_dim, proj_inj_dim, input_hash, value",
    [
        (3, 3, 3, 6, 27, "51e5492e302d8ec3", 4),
        (3, 3, 2, 3, 19, "bc58a575551df464", 2),
        (2, 2, 2, 2, 4, "486664048d4d360e", 2),
    ],
)
def test_cli_domdim_schur_reports_are_pinned(capsys, n, d, p, b_dim, proj_inj_dim, input_hash, value):
    rc = main(["domdim", "--gallery", "schur", "--n", str(n), "--d", str(d), "--p", str(p), "--json"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "B_dim": b_dim,
        "command": "domdim",
        "input_hash": input_hash,
        "proj_inj_dim": proj_inj_dim,
        "seed": 0,
        "value": f"Exact({value})",
        "value_json": {"kind": "Exact", "n": value},
        "version": "0.1.0",
    }


# the input_hash of the algebra that gallery --out writes, the simple_of
# indices of its poset into the primitive idempotents, and their block_of:
# the order of the central idempotents, which another basis of the centre
# would change, fixes both lists, and a poset JSON refers to simple_of
@pytest.mark.parametrize(
    "p, input_hash, simple_of, block_of",
    [
        (3, "51e5492e302d8ec3", [0, 3, 10], [0, 0, 0] + [1] * 7 + [2]),
        (2, "bc58a575551df464", [0, 9, 17], [0] * 9 + [1] * 8 + [2]),
    ],
)
def test_cli_gallery_schur33_simple_of_is_pinned(monkeypatch, tmp_path, p, input_hash, simple_of, block_of):
    from qhcover import gallery

    built = []
    build_schur = gallery.build_schur
    monkeypatch.setattr(gallery, "build_schur", lambda *args: built.append(build_schur(*args)) or built[-1])
    assert main(["gallery", "--gallery", "schur", "--n", "3", "--d", "3", "--p", str(p), "--out", str(tmp_path)]) == EXIT_OK
    assert content_hash(json.loads((tmp_path / "algebra.json").read_text())) == input_hash
    (schur,) = built
    prim = schur.algebra.primitive_idempotents()
    assert [prim.idempotents.index(e) for e in schur.poset().idempotents] == simple_of
    assert prim.block_of == block_of


def test_cli_engine_limit_is_inconclusive_not_an_input_error(tmp_path, capsys):
    # Hamilton's quaternions over QQ: a division algebra, in which the
    # search for a zero divisor finds none
    units = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1)}  # ij = k, jk = i, ki = j
    mult = [[0, x, x, "1"] for x in range(4)] + [[x, 0, x, "1"] for x in range(1, 4)] + [[x, x, 0, "-1"] for x in range(1, 4)]
    mult += [t for (x, y), (z, c) in units.items() for t in ([x, y, z, str(c)], [y, x, z, str(-c)])]
    path = tmp_path / "quaternions.json"
    path.write_text(json.dumps({"field": {"kind": "rationals"}, "dim": 4, "mult": mult, "one": ["1", "0", "0", "0"]}))
    rc = main(["domdim", "--algebra", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_INCONCLUSIVE
    assert err.count("\n") == 1 and err.startswith("engine limit: found no zero divisor"), err
    assert "Traceback" not in err


def test_cli_splits_hecke_at_u3(capsys):
    # H(3) over QQ at u = 3 is split semisimple, so its blocks split
    rc = main(["domdim", "--gallery", "hecke", "--d", "3", "--u", "3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert (report["value"], report["B_dim"], report["proj_inj_dim"]) == ("Infinite", 3, 4)


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


@pytest.mark.parametrize(
    "option, message",
    [(["--cap", "-5"], "cap must be nonnegative, not -5"), (["--random-checks", "-4"], "random checks must be nonnegative, not -4")],
    ids=["cap", "random-checks"],
)
@pytest.mark.parametrize("ringel", [False, True], ids=["hn", "ringel"])
def test_cli_cover_rejects_negative_counts(capsys, option, message, ringel):
    argv = ["cover", "--gallery", "schur", "--n", "2", "--d", "3", "--p", "3"]
    argv += ["--ringel", "--wrt", "tensor-space"] if ringel else ["--wrt", "P((2, 1))"]
    assert main(argv + option) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("seed", [0, 7])
def test_cli_cover_ringel_draws_its_random_checks_from_the_seed(capsys, monkeypatch, seed):
    from qhcover import covers

    seeds = []
    hn_dimension = covers.hn_dimension

    def spy(*args, seed, **kwargs):
        seeds.append(seed)
        return hn_dimension(*args, seed=seed, **kwargs)

    monkeypatch.setattr(covers, "hn_dimension", spy)
    argv = ["cover", "--gallery", "am", "--m", "2", "--p", "3", "--ringel", "--wrt", "tilting", "--seed", str(seed), "--json"]
    assert main(argv) == EXIT_OK
    assert seeds == [seed] and json.loads(capsys.readouterr().out)["seed"] == seed


@pytest.mark.parametrize(
    "command, option",
    [
        ("domdim", ["--method", "chain"]),
        ("cover", ["--module", "regular"]),
        ("qh-verify", ["--strict"]),
        ("tilting", ["--random-checks", "3"]),
        ("domdim", ["--poset", "poset.json"]),
        ("gallery", ["--seed", "7"]),
    ],
    ids=["domdim-method", "cover-module", "qh-verify-strict", "tilting-random-checks", "domdim-poset", "gallery-seed"],
)
def test_cli_rejects_options_the_command_does_not_read(capsys, command, option):
    # argparse exits with 2 before the command runs
    with pytest.raises(SystemExit) as exc:
        main([command, "--gallery", "am", "--m", "2", "--p", "3", *option])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes, message",
    [
        (["schur", "--n", "-1", "--d", "2"], "n must be at least 1"),
        (["schur", "--n", "2", "--d", "-1"], "d must be at least 1"),
        (["hecke", "--d", "-2"], "d must be at least 1"),
        (["am", "--m", "0"], "m must be at least 1"),
        (["schur", "--n", "0", "--d", "2"], "n must be at least 1"),
        (["schur", "--n", "2", "--d", "0"], "d must be at least 1"),
        (["hecke", "--d", "0"], "d must be at least 1"),
    ],
    ids=["schur-n-1", "schur-d-1", "hecke-d-2", "am-m0", "schur-n0", "schur-d0", "hecke-d0"],
)
def test_cli_rejects_gallery_sizes_below_one(capsys, sizes, message):
    # a given zero is out of range, not a missing flag
    assert main(["domdim", "--gallery", *sizes, "--p", "3"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qh-verify", "--gallery", "am", "--m", "2", "--p", "3", "--poset", "bad.json"], "--gallery am has its own weight poset: drop --poset"),
        (["tilting", "--gallery", "schur", "--n", "2", "--d", "2", "--p", "3", "--poset", "bad.json"], "--gallery schur has its own weight poset: drop --poset"),
        (["domdim", "--gallery", "am", "--m", "3", "--p", "3", "--algebra", "bad.json"], "--algebra and --gallery exclude each other"),
        (["qh-verify", "--gallery", "am", "--m", "2", "--p", "3", "--algebra", "bad.json"], "--algebra and --gallery exclude each other"),
    ],
    ids=["qh-verify-poset", "tilting-poset", "domdim-algebra", "qh-verify-algebra"],
)
def test_cli_rejects_file_inputs_beside_a_gallery(capsys, argv, message):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_cli_rejects_p_zero(capsys):
    # --p 0 names no prime; it does not mean "no --p", which is QQ
    assert main(["domdim", "--gallery", "am", "--m", "2", "--p", "0"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: 0 is not prime\n"


@pytest.mark.parametrize(
    "gallery, message",
    [
        (["hecke", "--d", "7"], "Hecke algebra dimension 7! exceeds the guard 720"),
        (["schur", "--n", "2", "--d", "7"], "Hecke algebra dimension 7! exceeds the guard 720"),
        (["schur", "--n", "4", "--d", "6"], "Schur dimension 54264 exceeds the guard 4000"),
        (["schur", "--n", "3", "--d", "5"], "Schur product table size 121447755 exceeds the guard 33554432"),
        (["schur", "--n", "4", "--d", "4"], "Schur product table size 1993953936 exceeds the guard 33554432"),
        (["schur", "--n", "8", "--d", "2"], "Schur product table size 260116480 exceeds the guard 33554432"),
    ],
    ids=["hecke-7", "schur-2-7", "schur-4-6", "schur-3-5", "schur-4-4", "schur-8-2"],
)
def test_cli_size_guards_act_before_the_build(capsys, monkeypatch, gallery, message):
    # H(7) takes hours and S(4, 6) a system over 4096^2 unknowns (at u = 1,
    # an orbit label for each of its 4096^2 pairs of words); S(3, 5) took
    # 18.7 s and 3.0 GiB to build, S(8, 2) 6.9 s and 4.1 GiB, and S(4, 4)
    # was killed for memory; the guards reject each before a permutation,
    # an orbit or a tensor is formed
    from qhcover import gallery as G

    def no_build(*args):
        raise AssertionError("built before the guard")

    monkeypatch.setattr(G, "permutations_of", no_build)
    monkeypatch.setattr(G, "centralizer_algebra", no_build)
    monkeypatch.setattr(G, "_orbit_labels", no_build)
    start = time.perf_counter()
    assert main(["domdim", "--gallery", *gallery]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "inputs, flag, source",
    [
        (["--gallery", "am", "--m", "2"], ["--n", "5"], "--gallery am"),
        (["--gallery", "am", "--m", "2"], ["--d", "7"], "--gallery am"),
        (["--gallery", "am", "--m", "2"], ["--u", "1"], "--gallery am"),
        (["--gallery", "hecke", "--d", "2"], ["--m", "9"], "--gallery hecke"),
        (["--gallery", "hecke", "--d", "2"], ["--n", "3"], "--gallery hecke"),
        (["--gallery", "schur", "--n", "2", "--d", "2"], ["--m", "9"], "--gallery schur"),
        (["--algebra", "bad.json"], ["--m", "2"], "--algebra"),
        (["--algebra", "bad.json"], ["--n", "2"], "--algebra"),
        (["--algebra", "bad.json"], ["--d", "2"], "--algebra"),
        (["--algebra", "bad.json"], ["--p", "3"], "--algebra"),
        (["--algebra", "bad.json"], ["--u", "2"], "--algebra"),
    ],
    ids=["am-n", "am-d", "am-u", "hecke-m", "hecke-n", "schur-m", "algebra-m", "algebra-n", "algebra-d", "algebra-p", "algebra-u"],
)
def test_cli_rejects_flags_the_input_does_not_read(capsys, inputs, flag, source):
    # a flag the chosen gallery or algebra file never reads is an error, not
    # silently dropped; --u 1, the default, counts as given
    assert main(["domdim", *inputs, *flag]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {source} does not read {flag[0]}\n"


@pytest.mark.parametrize("index", [[0, 2, 0], [0, 0, -1]])
def test_cli_rejects_out_of_range_structure_constant(tmp_path, capsys, index):
    bad = {"field": {"kind": "prime", "p": 3}, "dim": 2, "mult": [[0, 0, 0, "1"], index + ["1"]], "one": ["1", "0"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["domdim", "--algebra", str(path)]) == EXIT_INPUT
    assert "out of range" in capsys.readouterr().err


def test_cli_rejects_repeated_structure_constant(tmp_path, capsys):
    # two entries for c_000: neither may silently win
    bad = {"field": {"kind": "prime", "p": 3}, "dim": 1, "mult": [[0, 0, 0, "5"], [0, 0, 0, "1"]], "one": ["1"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SerializeError, match=r"\(0, 0, 0\) is given twice"):
        algebra_from_json(bad)
    assert main(["domdim", "--algebra", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: structure constant index (0, 0, 0) is given twice\n"


@pytest.mark.parametrize("command", ["reldomdim", "relcodomdim"])
@pytest.mark.parametrize("method", ["mueller", "chain", "both"])
def test_cli_relative_methods_reject_the_same_caps(capsys, command, method):
    argv = [command, "--gallery", "am", "--m", "2", "--p", "3", "--wrt", "tilting", "--module", "regular", "--method", method]
    assert main(argv + ["--cap", "-2"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: relative dimension cap must be at least 2\n"
    assert main(argv + ["--cap", "2"]) == EXIT_OK


@functools.lru_cache(maxsize=None)
def _am2_json() -> str:
    g = build_am(2, F3)
    return json.dumps(
        {
            "algebra": algebra_to_json(g.algebra),
            "module": module_to_json(g.qh.projectives[1], algebra_ref="algebra.json"),
            "poset": {"labels": ["1", "2"], "less_than": [[1, 0]], "simple_of": [0, 1]},
        }
    )


def _write_inputs(tmp_path, blobs):
    for name, blob in blobs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
    return {name: str(tmp_path / f"{name}.json") for name in blobs}


def _am2_input_files(tmp_path, algebra=None, module=None, poset=None):
    """A_2 over GF(3) as algebra, module (P(2)) and poset files, each optionally edited."""
    blobs = json.loads(_am2_json())
    for name, edit in (("algebra", algebra), ("module", module), ("poset", poset)):
        if edit is not None:
            edit(blobs[name])
    return _write_inputs(tmp_path, blobs)


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


# -- fuzzed inputs: each mutation makes the A_2 files invalid -----------------------

# (file, key path) of every required key, with the JSON type it must have
_TYPED_KEYS = [
    ("algebra", ("field",), dict),
    ("algebra", ("field", "kind"), str),
    ("algebra", ("field", "p"), int),
    ("algebra", ("dim",), int),
    ("algebra", ("mult",), list),
    ("algebra", ("one",), list),
    ("module", ("dim",), int),
    ("module", ("action",), list),
    ("poset", ("labels",), list),
    ("poset", ("less_than",), list),
    ("poset", ("simple_of",), list),
]
_VALUES = [None, True, 0, 7, -1, 1.5, "x", "3", [], [1], {}, {"kind": "prime"}]
_BAD_COEFFICIENTS = ["1/0", "a/b", "", "1/", "/2", "x", "1.5", "1/3", "2/1/1", "0x1", "None"]
_ARGV = {"algebra": _domdim_argv, "module": _relcodomdim_argv, "poset": _qh_verify_argv}


def _parent(blob, path):
    for key in path[:-1]:
        blob = blob[key]
    return blob


def _drop_key(blobs, draw):
    name, path, _ = draw(st.sampled_from(_TYPED_KEYS))
    del _parent(blobs[name], path)[path[-1]]
    return name


def _wrong_type(blobs, draw):
    name, path, want = draw(st.sampled_from(_TYPED_KEYS))
    # the field kind is valid only as "prime" or "rationals", so any other string is wrong too
    wrong = st.sampled_from(_VALUES).filter(lambda v: type(v) is not want or path[-1] == "kind")
    _parent(blobs[name], path)[path[-1]] = draw(wrong)
    return name


def _bad_index(blobs, draw):
    """An index entry out of range or not an int (JSON true is not 1)."""
    not_int = [True, False, "0", 1.0, None]
    where = draw(st.sampled_from(["mult", "simple_of", "less_than"]))
    if where == "mult":
        dim = blobs["algebra"]["dim"]
        triplet = draw(st.sampled_from(blobs["algebra"]["mult"]))
        triplet[draw(st.integers(0, 2))] = draw(st.sampled_from([-1, dim] + not_int))
        return "algebra"
    entries = blobs["poset"][where]
    if where == "less_than":
        entries = draw(st.sampled_from(entries))
    # two labels and two primitive idempotents: 2 is out of range for both
    entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from([-1, 2] + not_int))
    return "poset"


def _misshapen(blobs, draw):
    """A ragged or short action matrix, a short unit or a short structure constant."""
    kind = draw(st.sampled_from(["ragged", "short", "flat", "fewer matrices", "short one", "short triplet"]))
    if kind == "short one":
        blobs["algebra"]["one"].pop()
        return "algebra"
    if kind == "short triplet":
        draw(st.sampled_from(blobs["algebra"]["mult"])).pop()
        return "algebra"
    action = blobs["module"]["action"]
    g = action[draw(st.integers(0, len(action) - 1))]
    if kind == "ragged":
        g[draw(st.integers(0, len(g) - 1))].pop()
    elif kind == "short":
        g.pop()
    elif kind == "flat":
        action[0] = sum(g, [])[1:]
    else:
        action.pop()
    return "module"


def _bad_fraction(blobs, draw):
    coefficient = draw(st.sampled_from(_BAD_COEFFICIENTS))
    where = draw(st.sampled_from(["mult", "one", "action"]))
    if where == "mult":
        draw(st.sampled_from(blobs["algebra"]["mult"]))[3] = coefficient
    elif where == "one":
        one = blobs["algebra"]["one"]
        one[draw(st.integers(0, len(one) - 1))] = coefficient
    else:
        g = draw(st.sampled_from(blobs["module"]["action"]))
        draw(st.sampled_from(g))[draw(st.integers(0, len(g) - 1))] = coefficient
    return "module" if where == "action" else "algebra"


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzzed_inputs_are_input_errors(tmp_path, data):
    blobs = json.loads(_am2_json())
    mutate = data.draw(st.sampled_from([_drop_key, _wrong_type, _bad_index, _misshapen, _bad_fraction]))
    name = mutate(blobs, data.draw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(_ARGV[name](_write_inputs(tmp_path, blobs)))
    assert code == EXIT_INPUT, (name, blobs[name], err.getvalue())
    assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("input error: "), err.getvalue()


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
