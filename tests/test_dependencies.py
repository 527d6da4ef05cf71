"""The package depends on numpy alone, and a run imports nothing else."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhcover

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(qhcover.__file__).parent


def test_package_imports_only_numpy_beyond_the_standard_library():
    third_party = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party.update(n.partition(".")[0] for n in names)
    third_party -= set(sys.stdlib_module_names) | {"qhcover"}
    assert third_party == {"numpy"}


def test_package_imports_no_unused_names():
    # every name an import binds is read in its module or listed in __all__
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(PACKAGE)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_package_has_no_dead_private_functions():
    # every module-level function or method named _x is named again
    # somewhere in the package: called, passed, imported or overridden
    defined, named = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in (n for body in bodies for n in body):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__"):
                defined.append((node.name, f"{path.relative_to(PACKAGE)}:{node.lineno}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [f"{where} {name}" for name, where in defined if name not in named] == []


def _unnamed_functions(defining, naming):
    """Every function and method defined in the files ``defining`` that no
    file in ``naming`` names, as "file:line name".  A function is named by
    a name, an attribute, an import or a part of a string such as the
    tracer's "Class.method"; a method (a def in a class body) only by an
    attribute or a "Class.method" string, so a dead method cannot hide
    behind a local function of the same name."""
    functions, methods = [], []
    for path in defining:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_class = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
                where = f"{path}:{node.lineno}"
                if id(node) in in_class:
                    methods.append((in_class[id(node)], node.name, where))
                else:
                    functions.append((node.name, where))
    names, attributes, dotted = set(), set(), set()
    for path in naming:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                names.update(parts)
                dotted.update(zip(parts, parts[1:]))
    unnamed = [f"{where} {name}" for name, where in functions if name not in names | attributes]
    return unnamed + [f"{where} {cls}.{name}" for cls, name, where in methods if name not in attributes and (cls, name) not in dotted]


def test_every_function_is_named_somewhere():
    # every function or method in the package is named again in the
    # package, the tests or the benchmark harness: called, passed, imported,
    # overridden or listed in a string such as the tracer's "Class.method"
    folders = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
    naming = sorted(p for folder in folders for p in folder.rglob("*.py"))
    assert _unnamed_functions(sorted(PACKAGE.rglob("*.py")), naming) == []


def test_dead_method_does_not_hide_behind_a_local_function(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(
        "class Map:\n"
        "    def compose(self, other):\n"
        "        return self\n"
        "\n"
        "\n"
        "def build():\n"
        "    def compose(p, r):\n"
        "        return p\n"
        "\n"
        "    return compose(1, 2)\n"
        "\n"
        "\n"
        "build()\n"
    )
    assert _unnamed_functions([path], [path]) == [f"{path}:2 Map.compose"]


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]] == ["numpy"]


def test_splitting_runs_never_import_sympy():
    # domdim over QQ and a qh structure over GF(3) both split semisimple
    # quotients into blocks, and so does H(3) over QQ at u = 3, whose zero
    # divisors come from minimal polynomials of the e b_i e alone; the chain
    # oracle and the Ringel cover check match summands up to isomorphism;
    # none of them draws a random number, so numpy.random (about 12 ms to
    # import) stays unloaded
    script = (
        "import sys\n"
        "from qhcover import covers, gallery, reldim\n"
        "from qhcover.fields import GF, QQ\n"
        "assert str(reldim.classical_domdim(gallery.build_am(3, QQ).algebra, 12)[0].value) == 'Exact(4)'\n"
        "gallery.build_schur(2, 3, 1, GF(3)).qh()\n"
        "assert len(gallery.build_hecke(3, 3, QQ).algebra.primitive_idempotents()) == 4\n"
        "named = list(gallery.build_am(3, GF(3)).named_modules().values())\n"
        "for q in named:\n"
        "    for m in named:\n"
        "        reldim.codomdim_chain(q, m, 6)\n"
        "qh = gallery.build_am(3, QQ).qh\n"
        "for _, q in qh.partial_tilting_combinations():\n"
        "    covers.verify_ringel_cover_theorem(qh, q, cap=5)\n"
        "print('sympy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    # the child imports the package under test, wherever it was imported from
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False False"
