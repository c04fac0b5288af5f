"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import builtins
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "fungrasp").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# every file that may use a package module's names, and those of them
# that are the program rather than its tests
READERS = sorted(p for d in ("src/fungrasp", "tests", "perfbench", "scripts") for p in (ROOT / d).glob("*.py"))
PROGRAM = [p for p in READERS if p.parent.name != "tests"]
# the program that runs: the package and the bench, not the asset script
RUNTIME = [p for p in PROGRAM if p.parent.name != "scripts"]
# the names a file may bind to the package itself
PACKAGE_NAMES = {"fg", "fungrasp"}


@cache
def parsed(path: Path) -> ast.Module:
    """The file's syntax tree, parsed once per session."""
    return ast.parse(path.read_text())


def unused_imports(tree) -> list[str]:
    """Names a module imports but never reads; a name listed in
    __all__ counts as read, and so does `from __future__`."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def stale_exports(tree) -> list[str]:
    """Names a module lists in __all__ but neither defines nor imports
    at its top level."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return sorted(name for name in exported if name not in defined)


def test_unused_import_scan_catches_one():
    assert unused_imports(ast.parse("import os\nimport json\nfrom a import b, c as d\nprint(json, d)\n")) == [
        "b (line 3)", "os (line 1)",
    ]
    assert unused_imports(ast.parse("from __future__ import annotations\nfrom x import y\n__all__ = ['y']\n")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(parsed(path)) == []


def test_stale_export_scan_catches_one():
    source = "from a import b\nX = 1\ndef f(): pass\nclass C: pass\n__all__ = ['b', 'X', 'f', 'C', 'gone']\n"
    assert stale_exports(ast.parse(source)) == ["gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_stale_exports(path):
    assert stale_exports(parsed(path)) == []


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _is_package(node) -> bool:
    """Whether node is the package: `fg`, `fungrasp` or a chain ending in one, as `self.fg`."""
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in PACKAGE_NAMES


@cache
def names_used_by(tree) -> dict[str, set[str]]:
    """The names a file takes from each package module, by module name:
    imported from it, or read as an attribute of a name the file binds to
    it (by an import or as in `a = fg.module`) or of the module read off
    the package (`fg.module.name`, `self.fg.module.name`). A chain whose
    base is not the package, as `self.assets.spec`, reads nothing."""
    aliases, used = defaultdict(set), defaultdict(set)
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            used[(node.module or "").split(".")[-1]] |= {alias.name for alias in node.names}
            for alias in node.names:
                aliases[alias.asname or alias.name].add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in (alias for alias in node.names if alias.asname):
                aliases[alias.asname].add(alias.name.split(".")[-1])
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and _is_package(node.value.value):
            for target in (t for t in node.targets if isinstance(t, ast.Name)):
                aliases[target.id].add(node.value.attr)
    for node in (n for n in nodes if isinstance(n, ast.Attribute)):
        if isinstance(node.value, ast.Name):
            for module in aliases.get(node.value.id, ()):
                used[module].add(node.attr)
        elif isinstance(node.value, ast.Attribute) and _is_package(node.value.value):
            used[node.value.attr].add(node.attr)
    return used


def unread_top_level_names(tree, module: str, others: list) -> list[str]:
    """Top-level functions, classes and assigned names of a module that
    the module never reads, that are not in __all__, and that no other
    file (given as syntax trees) imports or reads as an attribute."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= _exported(tree)
    for other in others:
        used |= names_used_by(other)[module]
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id: node.lineno for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in used)


def test_unread_name_scan_catches_one():
    source = "import logging\nlog = logging.getLogger(__name__)\nTOL = 1e-9\nA = 1\nB = 2\nC = 3\n"
    source += "def f(): return A\ndef g(): pass\n__all__ = ['f']\nD = 4\nE = 5\nF = 6\n"
    others = ["from fungrasp import mod\nprint(mod.B)\n", "from fungrasp.mod import C\n",
              "import numpy as np\nnp.g()\n", "def h(fg):\n    m = fg.mod\n    return m.D, self.fg.mod.E\n",
              # an object attribute that only shares the module's name
              "def k(self):\n    return self.mod.F\n"]
    others = [ast.parse(other) for other in others]
    assert unread_top_level_names(ast.parse(source), "mod", others) == [
        "F (line 12)", "TOL (line 3)", "g (line 8)", "log (line 2)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_top_level_names(path):
    others = [parsed(p) for p in READERS if p != path]
    assert unread_top_level_names(parsed(path), path.stem, others) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_export_is_read_by_the_program(path):
    """Each name in a module's __all__ is read by the module, another file
    of the package or the bench: not by the tests or the asset script
    alone, whose helpers live in the script."""
    tree = parsed(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used = used.union(*(names_used_by(parsed(p))[path.stem] for p in RUNTIME if p != path))
    assert sorted(_exported(tree) - used) == []


# each type whose objects are built in one function alone, as (module,
# function): results and records from the engine's columns, and a hand by
# its loader, which alone lays the segment rows out finger by finger in
# chain order, as forward_kinematics_batch walks them
BUILT_IN_ONE_PLACE = {
    "EpisodeResult": ("training", "_results"),
    "RolloutRecord": ("training", "_results"),
    "HandSpec": ("hand", "load_hand_spec"),
}
# the tests' references and fixtures build results and records of their own
BUILT_BY_TESTS = {"EpisodeResult", "RolloutRecord"}


def calls_outside(tree, names: set[str], allowed: str | None) -> list[str]:
    """Calls of the named callables, by bare name or as an attribute,
    anywhere in a module but inside its top-level function `allowed`."""
    inside = {
        id(n) for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == allowed
        for n in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in names:
                found.append(f"{name} (line {node.lineno})")
    return sorted(found)


def test_outside_call_scan_catches_one():
    source = "def build(c):\n    return A(c), m.B(c)\n\ndef other(c):\n    return m.A(c), build(c)\n\nB(1)\n"
    assert calls_outside(ast.parse(source), {"A", "B"}, "build") == ["A (line 5)", "B (line 7)"]
    assert calls_outside(ast.parse(source), {"A", "B"}, None) == [
        "A (line 2)", "A (line 5)", "B (line 2)", "B (line 7)",
    ]


@pytest.mark.parametrize("path", READERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_results_and_records_are_built_in_one_place(path):
    """Each type of BUILT_IN_ONE_PLACE is called only inside its function,
    in the package, the tests, the bench and the scripts; the tests may
    build results and records."""
    found = []
    for name, (module, function) in BUILT_IN_ONE_PLACE.items():
        if not (path.parent.name == "tests" and name in BUILT_BY_TESTS):
            found += calls_outside(parsed(path), {name}, function if module_key(path) == module else None)
    assert found == []


# by module, the defaulted parameters that no program call passes, each
# kept for a reason
UNPASSED_ALLOWED = {"evaluation": [
    # criterion 6's random-action baseline, a reference the tests take
    "evaluate(mode)",
], "cli": [
    # the tests drive the CLI in-process through it; the console script
    # passes nothing, so argparse reads sys.argv
    "main(argv)",
]}


def defaulted_parameters(tree) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of every parameter with a default
    in any def of a module; the position counts from the first argument
    a call passes (after a method's self or cls), None for keyword-only."""
    found = []
    for node in (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
        args = node.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        found += [(node.name, a.arg, i - bound) for i, a in enumerate(positional[first:], first)]
        found += [(node.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def module_key(path: Path) -> str:
    """A file's module as the call scan names it: a package module by
    its stem, any other file by its path under the root."""
    return path.stem if path.parent.name == "fungrasp" else path.relative_to(ROOT).with_suffix("").as_posix()


def imported_from(tree) -> dict[str, tuple[str, str]]:
    """Each name a file binds by `from <module> import <name> [as
    <alias>]`, as (module, name); a package module by its stem."""
    found = {}
    for node in (n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)):
        module = node.module or ""
        if node.level or module.split(".")[0] == "fungrasp":
            module = module.split(".")[-1]
        found |= {alias.asname or alias.name: (module, alias.name) for alias in node.names}
    return found


def unpassed_parameters(tree, module: str, callers: list) -> list[str]:
    """The defaulted parameters of a module (as `function(parameter)`)
    that no call in the callers ((module, syntax tree) pairs) passes, by
    keyword or by position. A bare-name call matches the def of that
    name in its own file, or in the module its file imports the name
    from; an attribute call matches a def by the called name alone. A
    call with *args or **kwargs passes what it may."""
    keywords, positions = defaultdict(set), defaultdict(int)
    for caller_module, caller in callers:
        imported = imported_from(caller)
        for node in (n for n in ast.walk(caller) if isinstance(n, ast.Call)):
            if isinstance(node.func, ast.Name):
                owner, name = imported.get(node.func.id, (caller_module, node.func.id))
                if owner != module:
                    continue
            else:
                name = getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions[name], float("inf") if starred else len(node.args))
            keywords[name] |= {k.arg for k in node.keywords}     # None for **kwargs
    return sorted(
        f"{name}({arg})" for name, arg, at in defaulted_parameters(tree)
        if not ({arg, None} & keywords[name] or (at is not None and at < positions[name]))
    )


def test_unpassed_parameter_scan_catches_one():
    source = "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\nclass K:\n    def m(self, x=0, y=1):\n        pass\n"
    source += "def g(p=0):\n    pass\ndef h(q=0):\n    pass\ndef k(r=0):\n    pass\n"
    callers = [("mod", "f(0, 1, d=5)\nobj.m(2)\n"), ("other", "from mod import g\ng(*args)\nm.h(**kw)\n"),
               # a same-named function of another module is not a call of mod's
               ("other", "def f(a, b, c, d, e):\n    pass\nf(0, 1, 2, e=3)\ndef k(r):\n    pass\nk(1)\n"),
               ("third", "from .mod import k as run_k\nrun_k(r=2)\n")]
    callers = [(module, ast.parse(text)) for module, text in callers]
    assert unpassed_parameters(ast.parse(source), "mod", callers) == ["f(c)", "f(e)", "m(y)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_default_is_passed_by_the_program(path):
    """Each defaulted parameter of a package function is passed by some
    call of the package, the scripts or the bench: a setting that no
    program sets is a constant. The allowed exceptions must stay
    unpassed."""
    callers = [(module_key(p), parsed(p)) for p in PROGRAM]
    assert unpassed_parameters(parsed(path), path.stem, callers) == UNPASSED_ALLOWED.get(path.stem, [])


def exception_classes(trees) -> list[str]:
    """The classes the modules define that derive from a built-in
    exception, directly or through one another."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = set()

    def is_exception(base) -> bool:
        builtin = getattr(builtins, getattr(base, "id", ""), None)
        return getattr(base, "id", None) in found or isinstance(builtin, type) and issubclass(builtin, BaseException)

    while new := [node.name for node in classes if node.name not in found and any(map(is_exception, node.bases))]:
        found.update(new)
    return sorted(found)


def test_exception_class_scan_catches_one():
    source = "class A(ValueError):\n    pass\nclass B(A):\n    pass\nclass C(B, dict):\n    pass\n"
    source += "class D:\n    pass\nclass E(D, m.F):\n    pass\n"
    assert exception_classes([ast.parse(source)]) == ["A", "B", "C"]


def test_the_package_defines_two_error_types():
    """UserError, for every input the program rejects, and PolicyError
    are the package's only exception classes, and cli.main reports
    UserError and OSError alone as user errors (exit 1): anything else
    is an internal error (exit 2)."""
    assert exception_classes([parsed(p) for p in PACKAGE]) == ["PolicyError", "UserError"]
    cli = parsed(ROOT / "src" / "fungrasp" / "cli.py")
    (user_errors,) = [node.value for node in cli.body if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["USER_ERRORS"]]
    assert ast.unparse(user_errors) == "(UserError, OSError)"
