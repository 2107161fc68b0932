import ast
import importlib
import inspect
import pkgutil
import sys
try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib
from pathlib import Path

import mcgan

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_resolve():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_bench_imports_resolve():
    # the tier-1 suite does not run bench/, so a deleted name would only fail there
    wanted = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mcgan":
                wanted.update((node.module, alias.name) for alias in node.names)
    assert wanted
    missing = [f"{m}.{n}" for m, n in sorted(wanted) if not hasattr(importlib.import_module(m), n)]
    assert not missing


def test_bench_calls_bind_to_signatures():
    # a dropped or renamed parameter would otherwise fail only in a bench run
    checked, unbound = 0, []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mcgan":
                module = importlib.import_module(node.module)
                imported.update((a.asname or a.name, getattr(module, a.name)) for a in node.names)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            f = imported.get(node.func.id)
            if not callable(f):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue  # *args or **kwargs: the bound names are not in the source
            try:
                inspect.signature(f).bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{path.name}:{node.lineno} {node.func.id}: {exc}")
            checked += 1
    assert checked
    assert unbound == []


def test_package_imports_only_numpy_and_the_standard_library():
    # CI installs scipy and mpmath for the tests, so a stray import would pass there
    allowed = {"numpy", "mcgan"} | set(sys.stdlib_module_names)
    found = set()
    for path in sorted((ROOT / "src" / "mcgan").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found
    assert sorted((f, m) for f, m in found if m not in allowed) == []


def test_every_all_name_resolves():
    # a stale export (a deleted function left in __all__) breaks `from ... import *`
    checked = []
    for info in pkgutil.walk_packages(mcgan.__path__, "mcgan."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            checked.append(name)
            assert hasattr(module, name), f"{info.name}.{name}"
    assert checked


# Public names kept without a caller in src/ or bench/, each for a stated reason.
UNCALLED = {
    "mlp_forward": "tape oracle of the array forward pass",
    "LinearGenerator": "conjugate-case oracle of the latent posterior",
    "concat": "tape oracle of the tanh parameter head",
    "w1_empirical_1d": "scores against the reference posteriors",
    "randomized_bound_trials": "the W1 theorem check gets a caller with the theorem script",
    "pushforward_equality_test": "the W1 theorem check gets a caller with the theorem script",
}


def referenced_names(tree, skip=None) -> set[str]:
    """Every Name and Attribute in tree, outside the subtree skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller():
    # the package holds what the pipeline calls: a name only tests use belongs in tests/
    src = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src").rglob("*.py"))}
    refs = {p: referenced_names(tree) for p, tree in src.items()}
    for p in (ROOT / "bench").glob("*.py"):
        refs[p] = referenced_names(ast.parse(p.read_text(encoding="utf-8")))
    uncalled = set()
    for path, tree in src.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            elsewhere = (r for p, r in refs.items() if p != path)
            if not (node.name in referenced_names(tree, node) or any(node.name in r for r in elsewhere)):
                uncalled.add(node.name)
    assert sorted(uncalled - set(UNCALLED)) == []
    # an entry whose name has gained a caller, or is gone, leaves the list
    assert sorted(set(UNCALLED) - uncalled) == []
