"""Every import in `src/` and `tests/` is at the top of its module, and used;
no module under `src/` imports another module's private names; every
function, class and method defined under `src/cook` is referred to somewhere
else.

No linter is installed, so this walks each module's syntax tree with the
standard library's `ast`. An import inside a function body is reported in
every module. A name counts as used when it appears as an identifier
anywhere in the module, quoted annotations included. `__future__` imports
are skipped, and so are the imports of an `__init__.py`, which re-export the
package's names. A private name starts with one underscore and is not a
dunder; tests may import them, `src/` may not. Every function, class and
method defined in `src/cook`, dunders exempt, must be referred to: its name
occurs in the syntax of `src/`, `tests/` or `perfbench/` outside its own
`def` or `class` as a `Name`, an `Attribute` or an imported name. A mention
in a string, a comment or its own body does not count.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree: ast.Module):
    """(line, bound name) of every top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                used |= {q.id for q in ast.walk(quoted) if isinstance(q, ast.Name)}
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for line, name in imported_names(tree)
        if name not in used
    ]


def function_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports inside function bodies, nested ones once."""
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def private_imports(tree: ast.Module) -> list[str]:
    """`line: module.name` of every import of an underscore-prefixed name."""
    return [
        f"{node.lineno}: {'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def definitions(tree: ast.Module):
    """Every function, class and method, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def references(tree: ast.AST) -> Counter:
    """How often each name occurs as a `Name`, an `Attribute` or an imported
    name (each part of a dotted one)."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def unreferenced(defined: dict[str, str], corpus: list[str]) -> list[str]:
    """`file:line: name` of every definition in the `defined` texts (file
    name -> text) whose name the `corpus` texts refer to only inside the
    definition itself."""
    total = sum((references(ast.parse(text)) for text in corpus), Counter())
    found = []
    for path, text in defined.items():
        for node in definitions(ast.parse(text)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and total[node.name] == references(node)[node.name]:
                found.append((node.lineno, f"{path}:{node.lineno}: {node.name}"))
    return [entry for _, entry in sorted(found)]


def modules() -> list[Path]:
    found = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(found) > 20
    return found


def test_no_unused_top_level_imports():
    assert [
        u for p in modules() if p.name != "__init__.py" for u in unused_imports(p)
    ] == []


def test_no_imports_inside_functions():
    assert [
        f"{p.relative_to(ROOT)}:{line}"
        for p in modules()
        for line in function_imports(ast.parse(p.read_text(encoding="utf-8")))
    ] == []


def test_no_private_names_imported_across_modules_in_src():
    assert [
        f"{p.relative_to(ROOT)}:{found}"
        for p in sorted((ROOT / "src").rglob("*.py"))
        for found in private_imports(ast.parse(p.read_text(encoding="utf-8")))
    ] == []


def test_every_definition_in_src_is_named_somewhere_else():
    defined = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "src" / "cook").rglob("*.py"))
    }
    corpus = [
        p.read_text(encoding="utf-8")
        for top in ("src", "tests", "perfbench")
        for p in sorted((ROOT / top).rglob("*.py"))
    ]
    assert len(defined) > 15 and len(corpus) > len(defined)
    assert unreferenced(defined, corpus) == []


def test_an_unused_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Any, Optional\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    used = used_names(tree)
    assert [name for _, name in imported_names(tree) if name not in used] == ["j", "Any"]


def test_an_import_inside_a_function_is_reported():
    tree = ast.parse(
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    def g():\n"
        "        from typing import Any\n"
        "    return json\n"
        "class C:\n"
        "    async def m(self):\n"
        "        import re\n"
    )
    assert function_imports(tree) == [3, 5, 9]


def test_a_private_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .lang.printer import _Printer, pretty\n"
        "from . import __version__\n"
        "from .cfg import reverse_postorder as rpo, _idoms\n"
        "def f():\n"
        "    from .analysis import _set_bits\n"
    )
    assert private_imports(tree) == [
        "2: .lang.printer._Printer",
        "4: .cfg._idoms",
        "6: .analysis._set_bits",
    ]


def test_an_unreferenced_definition_is_reported():
    text = (
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    def orphan(self): pass\n"
        "def helper():\n"
        "    return Used()\n"
        "def spare(): return helper()\n"
        "def recursive(n):\n"
        "    'Calls itself, unlike spare.'\n"
        "    return recursive(n - 1)  # not orphan\n"
    )
    assert unreferenced({"m.py": text}, [text]) == [
        "m.py:3: orphan",
        "m.py:6: spare",
        "m.py:7: recursive",
    ]
    others = "spare(x.orphan)\nfrom m import recursive\n"
    assert unreferenced({"m.py": text}, [text, others]) == []
