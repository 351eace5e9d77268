"""Every top-level name of the library, and every method and class
attribute of its classes, is used somewhere.

A function, class or constant at module level in ``src/msectun``, or a
method or class attribute of one of its classes, that no other code,
test, benchmark file, README or ``pyproject.toml`` names is dead: it can
only drift from the code around it.  A name counts as used when it
appears as a word anywhere outside its own definition, so names looked
up by string (perfbench's tracer, the codecs' ``REASON_*`` scan, the
console scripts) count too.  A mention in the package root
``msectun/__init__.py`` is a re-export, not a use: it counts only for a
name the root itself defines.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "msectun").glob("*.py"))
PACKAGE_ROOT = ROOT / "src" / "msectun" / "__init__.py"
OTHERS = [
    *sorted((ROOT / "perfbench").rglob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    ROOT / "README.md",
    ROOT / "pyproject.toml",
]


def _definitions(body: list[ast.stmt], owner: str = ""):
    """(qualified name, name, node) for each function, class or assigned
    name in ``body``, and, at module level, for each member of a class."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield owner + name, name, node
        if isinstance(node, ast.ClassDef) and not owner:
            yield from _definitions(node.body, node.name + ".")


def _words(text: str) -> Counter:
    # ``\w+`` splits text at the same boundaries as ``\bname\b``
    return Counter(re.findall(r"\w+", text))


@functools.cache
def _dead() -> list[str]:
    others = _words("\n".join(p.read_text(encoding="utf-8") for p in OTHERS if p.exists()))
    sources = {p: p.read_text(encoding="utf-8") for p in LIBRARY}
    words = {p: _words(s) for p, s in sources.items()}
    everywhere = sum(words.values(), others)
    reexports = words.get(PACKAGE_ROOT, Counter())
    dead = []
    for path, source in sources.items():
        ignored = reexports if path != PACKAGE_ROOT else Counter()
        lines = source.splitlines()
        for qualname, name, node in _definitions(ast.parse(source).body):
            # the lines that define the name: an assignment, or a def or
            # class line and its decorators
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = node.end_lineno if isinstance(node, (ast.Assign, ast.AnnAssign)) else node.lineno
            own = _words("\n".join(lines[first - 1 : last]))
            if everywhere[name] - ignored[name] == own[name]:
                dead.append(f"{path.stem}.{qualname}")
    return dead


def test_no_dead_top_level_names():
    assert [name for name in _dead() if name.count(".") == 1] == []


def test_no_dead_class_members():
    assert [name for name in _dead() if name.count(".") == 2] == []
