import ast
import importlib
try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib
from pathlib import Path

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
