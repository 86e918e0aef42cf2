"""List every imported name that nothing in its module reads.

    python tools/check_imports.py src tests demos perfbench

Walks the ``.py`` files under each path given and prints ``path:line: name``
for each name bound by an ``import`` or ``from ... import`` that no ``Name``
node in the same module loads (``mod.attr`` loads ``mod``).  Names listed in
the module's ``__all__`` count as read, and ``from __future__`` imports and
star imports bind nothing to check.  Exits 1 when it lists any name, else 0.
Reads the files only; uses the standard library alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def unused_imports(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """(line, name) of each imported name in ``source`` that nothing reads."""
    tree = ast.parse(source, filename)
    imported: list[tuple[int, str]] = []
    read = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend((node.lineno, alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [(line, name) for line, name in imported if name != "*" and name not in read]


def main(paths: list[str]) -> int:
    found = 0
    for root in map(Path, paths):
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path)):
                print(f"{path}:{line}: {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
