"""The import graph, read statically with ast.

Core claims:
    - the exact scalars (laurent.py) and sparse vectors (vectors.py) sit at the
      bottom of the graph: they import nothing from the package
    - no module under src/ or tests/ imports a _private name from another
      package module
    - no assert statement guards an invariant under src/: python -O would
      strip it, so invariants raise named errors
    - nor does a bare `raise AssertionError`: it names no invariant
    - nothing under src/ uses functools.lru_cache or functools.cache: stored
      state lives only in the tables of an index or its window, where it dies
      with its quiver
    - only the Tables base in quiver.py names a `tables` attribute, so every
      memo goes through Tables.stored
    - only forms.py spells the keys of the per-pair tables, ("residual", pair)
      and ("phi", pair): every other module reads them through forms
    - relations.py names enumerate_l_dominant only in its import and in the
      helper that keeps each weight's list on the index, so every verifier
      enumerates a weight once per index
    - importing the command line loads neither dataclasses, typing nor inspect,
      whose import costs more than the rest of the package, nor argparse,
      json, fractions, decimal, re, enum, collections, functools, shutil or
      locale; nor does a command that prints JSON, whose writer imports only
      the C string encoder _json; importing the package loads no fractions
    - the command line gives the same bytes under Python 3.10, 3.12 and 3.13
      as under the interpreter running the tests, where those are installed,
      JSON escapes of non-ASCII names included
    - the command line reaches the relation verifiers only through
      relations.verify and verify_all, so the dispatch lives in one place
    - the Hom oracle stays independent: reflections.py and serre.py do not
      import each other, directly or through another module, so matrix_rank
      stays a separate reference for bareiss_rank; relations.py does not
      reach serre.py, since same-n needs no rank; and reflections.py never
      names the stored Euler pairing behind the closed Hom formula it checks
    - relations.py never names kostant_partitions, so same-n's N shares no
      code path with the Kostant sum the tests check it against
    - the brute-force searches stay independent of the lifts they check:
      enumerate_l_dominant_bruteforce, solve_w_tilde_bruteforce and the
      search they share name neither iota, the Kostant multisets, the stored
      lifts, the Cartan vectors nor the triangular decomposition
    - every function and method under src/, dunders aside, is named by code
      outside its own body in src/ (not counting the re-exports of
      __init__.py), demos/ or bench/, or sits on a short keep-list that gives
      its reason; so code that only its own tests call does not come back.  A
      method is named only as an attribute or a string, so a local variable
      of the same name does not keep it
"""

import ast
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cyclotome"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def package_imports(path: Path):
    """(module, name) for every `from <package module> import name` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "cyclotome" or module.startswith("cyclotome."):
                for alias in node.names:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cyclotome":
                    yield alias.name, None


@pytest.mark.parametrize("name", ["laurent.py", "vectors.py"])
def test_bottom_modules_import_nothing_from_the_package(name):
    assert list(package_imports(PACKAGE / name)) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_names_cross_modules(path):
    private = [
        (module, name)
        for module, name in package_imports(path)
        if name is not None and name.startswith("_") and not name.startswith("__")
    ]
    assert private == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements_in_src(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_raise_assertion_error_in_src(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    assert lines == []


FUNCTOOLS_CACHES = {"lru_cache", "cache"}


def functools_caches(tree) -> list[int]:
    """Lines that import or name functools.lru_cache or functools.cache."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "functools"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in FUNCTOOLS_CACHES for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,lines", [
    ("from functools import lru_cache", [1]),
    ("import functools as ft\n@ft.cache\ndef f(): pass", [2]),
    ("import functools\nf = functools.lru_cache(maxsize=None)(len)", [2]),
    ("from functools import reduce\ncache = {}\nx = self.cache", []),
])
def test_functools_cache_detector(source, lines):
    assert functools_caches(ast.parse(source)) == lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_caches_in_src(path):
    assert functools_caches(ast.parse(path.read_text(encoding="utf-8"))) == []


def tables_outside_base(tree) -> list[int]:
    """Lines that name a `tables` attribute outside the body of class Tables."""
    inside = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Tables"
        for node in ast.walk(cls)
    }
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "tables" and id(node) not in inside
    ]


@pytest.mark.parametrize("source,lines", [
    ("class Tables:\n    def f(self):\n        return self.tables", []),
    ("x = index.tables.get(1)", [1]),
    ("class CycIndex:\n    def f(self):\n        self.tables = {}", [3]),
    ("tables = {}\nx = ar.stored('kostant', dict)", []),
])
def test_tables_detector(source, lines):
    assert tables_outside_base(ast.parse(source)) == lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_tables_base_names_tables(path):
    assert tables_outside_base(ast.parse(path.read_text(encoding="utf-8"))) == []


PAIR_TABLES = {"residual", "phi"}


def pair_table_keys(tree) -> list[int]:
    """Lines that spell a per-pair table key: a tuple headed by "residual" or
    "phi", or either string passed to stored() as the key itself."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and node.elts:
            head = node.elts[0]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "stored" and node.args):
            head = node.args[0]
        else:
            continue
        if isinstance(head, ast.Constant) and head.value in PAIR_TABLES:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,lines", [
    ("x = index.stored(('residual', m), residual, index, m)", [1]),
    ("key = ('phi', pair)", [1]),
    ("x = index.stored('phi', build)", [1]),
    ("x = index.stored(('v_f', i), build)\ny = phi(index, w)\nz = 'residual'", []),
])
def test_pair_table_key_detector(source, lines):
    assert pair_table_keys(ast.parse(source)) == lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_forms_spells_the_pair_table_keys(path):
    lines = pair_table_keys(ast.parse(path.read_text(encoding="utf-8")))
    assert bool(lines) == (path.name == "forms.py"), lines


def named_outside(tree, name, keeper) -> list[int]:
    """Lines that name `name` (a name, an attribute, a string or an import
    under another name) outside the body of the function `keeper`."""
    inside = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == keeper
        for node in ast.walk(fn)
    }
    return [
        node.lineno for node in ast.walk(tree)
        if id(node) not in inside and (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Constant) and node.value == name
            or isinstance(node, ast.alias) and node.name == name and node.asname
        )
    ]


@pytest.mark.parametrize("source,lines", [
    ("from .dominance import enum\ndef keep(index, w):\n    return index.stored(k, enum, w)", []),
    ("def verify_kk(index, w):\n    return enum(index, w)", [2]),
    ("from . import dominance\nx = dominance.enum(index, w)", [2]),
    ("from .dominance import enum as e", [1]),
    ("f = getattr(dominance, 'enum')", [1]),
])
def test_named_outside_detector(source, lines):
    assert named_outside(ast.parse(source), "enum", "keep") == lines


def test_relations_enumerates_only_through_the_stored_helper():
    tree = ast.parse((PACKAGE / "relations.py").read_text(encoding="utf-8"))
    helper = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_dominant_vs"]
    assert len(helper) == 1 and "enumerate_l_dominant" in named(helper[0])
    assert named_outside(tree, "enumerate_l_dominant", "_dominant_vs") == []


def test_cli_imports_no_single_verifier():
    names = {
        name for module, name in package_imports(PACKAGE / "cli.py")
        if module.endswith("relations")
    }
    assert "verify" in names
    assert {n for n in names if n.startswith("verify_")} <= {"verify_all"}


HEAVY_MODULES = (
    "dataclasses", "typing", "inspect", "argparse", "json", "fractions", "decimal", "re",
    "enum", "collections", "functools", "shutil", "locale",
)


def loaded_after(statements: str, candidates) -> list[str]:
    """The candidates that a fresh ``python -S`` has loaded after running the
    statements, which may print to stdout; the list comes back on stderr."""
    code = (
        f"import sys\nsys.path.insert(0, sys.argv[1])\n{statements}\n"
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules), file=sys.stderr)"
    )
    return subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), *candidates],
        capture_output=True, text=True, check=True,
    ).stderr.split()


def test_cli_import_loads_no_heavy_stdlib_modules():
    assert loaded_after("import cyclotome.cli", HEAVY_MODULES) == []


@pytest.mark.parametrize("argv", [
    ["verify", "ef", "--type", "A2", "--json"],
    ["describe", "--type", "D4", "--json"],
], ids=["verify-ef-json", "describe-d4-json"])
def test_json_output_loads_no_heavy_stdlib_modules(argv):
    # a command that fails exits the child nonzero, which check=True reports
    run = f"from cyclotome.cli import main\nif main({argv!r}):\n    sys.exit(3)"
    assert loaded_after(run, HEAVY_MODULES) == []


def test_package_import_loads_no_fractions():
    assert loaded_after("import cyclotome", ["fractions"]) == []


def interpreter(version: str):
    """A python<version> that runs, from pyenv's versions or from PATH; else None."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = sorted(pyenv.glob(f"versions/{version}.*/bin/python{version}"))
    for exe in [str(p) for p in found] + [shutil.which(f"python{version}")]:
        if exe and subprocess.run([exe, "-S", "-c", "pass"], capture_output=True).returncode == 0:
            return exe
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
@pytest.mark.parametrize("argv", [
    ["describe", "--type", "A3"],
    ["verify", "ef", "--type", "A2", "--json"],
    ["describe", "--type", "D4", "--json"],
    ["verify", "all", "--type", "A3", "--orientation", "alternating", "--json"],
], ids=["describe", "verify-ef-json", "describe-d4-json", "verify-all-a3-json"])
def test_cli_runs_alike_on_other_interpreters(version, argv):
    exe = interpreter(version)
    if exe is None:
        pytest.skip(f"python{version} is not installed")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [
        subprocess.run([python, "-S", "-m", "cyclotome.cli", *argv],
                       capture_output=True, text=True, env=env, timeout=120)
        for python in (exe, sys.executable)
    ]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout


def reachable_modules(name: str) -> set[str]:
    """The package modules a module imports, directly or through others."""
    seen, frontier = set(), [name]
    while frontier:
        for module, alias in package_imports(PACKAGE / f"{frontier.pop()}.py"):
            # `from .x import y` names module x; `from . import x` names x
            for dep in (module.split(".")[-1], alias if module in ("", "cyclotome") else None):
                if dep and dep not in seen and (PACKAGE / f"{dep}.py").exists():
                    seen.add(dep)
                    frontier.append(dep)
    return seen


def test_rank_references_do_not_reach_each_other():
    assert "serre" not in reachable_modules("reflections")
    assert "reflections" not in reachable_modules("serre")
    assert "serre" not in reachable_modules("relations")


def test_same_n_counts_n_without_the_kostant_oracle():
    # the tests check N against a sum of kostant_partitions, so the count
    # under test must not reach that function itself
    assert "kostant_partitions" not in (PACKAGE / "relations.py").read_text(encoding="utf-8")


def mentions(tree, names=True):
    """Each name, attribute and string constant in a tree, once per occurrence;
    with names=False, the attributes and string constants only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if names:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def named(tree) -> set[str]:
    """Every name, attribute, imported alias and string constant in a tree."""
    aliases = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    return set(mentions(tree)) | aliases


def test_hom_oracle_never_names_the_stored_pairing():
    tree = ast.parse((PACKAGE / "reflections.py").read_text(encoding="utf-8"))
    assert "euler_pairing" not in named(tree)


LIFT_NAMES = {
    "iota", "iota_additive", "kostant_multisets", "_module_lift_vs", "v_f", "v_sigma_f",
    "decompose", "_lift_row", "_cartan_terms", "_dense_order",
}


@pytest.mark.parametrize("oracle", [
    "enumerate_l_dominant_bruteforce", "solve_w_tilde_bruteforce", "_capped_search",
])
def test_enumeration_oracles_never_name_the_lifts(oracle):
    tree = ast.parse((PACKAGE / "dominance.py").read_text(encoding="utf-8"))
    bodies = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == oracle]
    assert len(bodies) == 1
    assert named(bodies[0]) & LIFT_NAMES == set()


def unreached(defining, using) -> list[str]:
    """The functions and methods defined in the `defining` trees, dunders
    aside, that no code outside their own bodies names in the `using` trees,
    which hold the defining ones.  A function counts as named by a Name, an
    Attribute or a string constant equal to it, since bench/tracer.py wraps
    functions by name; a method only by an Attribute or a string constant,
    since a bare Name is a local or global variable, never a method."""
    methods = {
        id(node)
        for tree in defining for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    total = {names: Counter(name for tree in using for name in mentions(tree, names))
             for names in (True, False)}
    found = []
    for tree in defining:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                names = id(node) not in methods
                if total[names][node.name] == Counter(mentions(node, names))[node.name]:
                    found.append(node.name)
    return sorted(found)


@pytest.mark.parametrize("source,names", [
    ("def f(): pass\ndef g(): return f()", ["g"]),
    ("def f(n): return f(n - 1)", ["f"]),
    ("class A:\n    def m(self): pass\n    def __eq__(self, o): return self.m()", []),
    ("def f(): pass\nTARGETS = [('mod', 'f')]", []),
    ("class A:\n    def pi(self): pass\ndef f():\n    pi = 1\n    return pi", ["f", "pi"]),
])
def test_unreached_detector(source, names):
    tree = ast.parse(source)
    assert unreached([tree], [tree]) == names


#: Functions kept although nothing but the tests calls them, with the reason.
KEEP = {
    "solve_w_tilde_bruteforce": "the oracle that solve_w_tilde is checked against",
    "sigma_shift": "the shift functor; the acceptance gate checks tau^h against it",
    "pi": "the covering map; the tests check the section and tau against it",
    "bar": "the bar involution that README promises",
    "quantum_int": "the quantum integers that README promises",
    "all_orientations": "the orientation sweeps the tests run over",
    "some_orientations": "the orientation samples the tests run over",
}


def test_only_the_keep_list_is_unreached():
    def trees(paths):
        return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]

    # __init__.py holds only re-exports, which reach nothing
    src = trees(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    others = trees(sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))
    found = unreached(src, src + others)
    extra = [name for name in found if name not in KEEP]
    assert extra == [], f"only the tests reach {extra}"
    # an entry that something now reaches, or that is gone, leaves the list
    assert [name for name in found if name in KEEP] == sorted(KEEP)
