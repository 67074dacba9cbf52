"""Every imported name is used by the module that imports it.

A stdlib stand-in for a linter's unused-import rule, over the modules of
``src/ntcg`` (except ``__init__.py``, whose imports are the package's
exports) and of ``tests/``.  A name counts as used when the module reads it
anywhere, as a bare name or as the root of an attribute chain.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ntcg").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(source):
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`.
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % (name, line) for line, name in unused))


def test_the_check_sees_an_unused_import():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import ntcg.solver\n"
        "from ntcg import ObjectiveOracle, run\n"
        "def f():\n"
        "    return np.zeros(1), ntcg.solver, run\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "ObjectiveOracle")]
