"""Every imported name is read somewhere in the module that imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/selftest.py traces nilcone.rank, so nilcone keeps the import
# although nothing in the module calls it.
ALLOWED = {("src/exocone/nilcone.py", "rank")}


def _unused_imports(path: Path) -> list[str]:
    rel = path.relative_to(ROOT).as_posix()
    imported = {}
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return [
        f"{rel}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in read and (rel, name) not in ALLOWED
    ]


def _checked_files() -> list[Path]:
    # the package __init__ imports names to export them
    src = [p for p in (ROOT / "src" / "exocone").glob("*.py") if p.name != "__init__.py"]
    return sorted(src) + sorted((ROOT / "tests").glob("*.py"))


def test_no_unused_imports():
    files = _checked_files()
    assert len(files) > 10
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
