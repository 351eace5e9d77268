"""Every top-level name of the library is used somewhere.

A function, class or constant at module level in ``src/msectun`` that
no other code, test, benchmark file, README or ``pyproject.toml``
names is dead: it can only drift from the code around it.  A name
counts as used when it appears as a word anywhere outside its own
definition, so names looked up by string (perfbench's tracer, the
codecs' ``REASON_*`` scan, the console scripts) count too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "msectun").glob("*.py"))
OTHERS = [
    *sorted((ROOT / "perfbench").rglob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    ROOT / "README.md",
    ROOT / "pyproject.toml",
]


def _top_level_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("__")]


def _uses(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def test_no_dead_top_level_names():
    others = "\n".join(p.read_text(encoding="utf-8") for p in OTHERS if p.exists())
    sources = {p: p.read_text(encoding="utf-8") for p in LIBRARY}
    dead = []
    for path, source in sources.items():
        lines = source.splitlines()
        elsewhere = "\n".join([others] + [s for p, s in sources.items() if p != path])
        for name, node in _top_level_names(ast.parse(source)):
            # the module without the lines that define the name: an
            # assignment, or a def or class line and its decorators
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = node.end_lineno if isinstance(node, (ast.Assign, ast.AnnAssign)) else node.lineno
            own = "\n".join(lines[: first - 1] + lines[last:])
            if not _uses(name, own) and not _uses(name, elsewhere):
                dead.append(f"{path.stem}.{name}")
    assert dead == []
