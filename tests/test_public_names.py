"""Every public top-level function or class of the package has a user.

A name passes if code in ``src/`` or ``perfbench/`` refers to it (an
``ast.Name`` or ``ast.Attribute`` outside its own definition), if
``perfbench/tracer.py`` traces it, or if ``tests/test_acceptance.py``
imports it. A name that only unit tests reach is dead code. All three
sources are read with ``ast``, so nothing here imports the package or
keeps its own list of exemptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shadowprobe"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(module, name) of each public top-level function or class."""
    return {(path.stem, node.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names():
    """Names that a Name or Attribute node in src/ or perfbench/ refers to,
    leaving out a top-level definition's references to itself."""
    names = set()
    for path in sorted([*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for stmt in parse(path).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def traced_names():
    """(module, name) of each entry of perfbench/tracer.py's TRACED tuple."""
    for node in parse(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {tuple(entry) for entry in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TRACED tuple")


def acceptance_imports():
    """(module, name) of each name tests/test_acceptance.py imports from the package."""
    return {(node.module.rpartition(".")[2], alias.name)
            for node in ast.walk(parse(ROOT / "tests" / "test_acceptance.py"))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith("shadowprobe.")
            for alias in node.names}


def test_every_public_name_has_a_user():
    public = public_definitions()
    traced, accepted = traced_names(), acceptance_imports()
    assert public and traced and accepted
    referenced = referenced_names()
    unused = sorted(f"{module}.{name}" for module, name in public
                    if name not in referenced and (module, name) not in traced
                    and (module, name) not in accepted)
    assert not unused, (f"public names that no code in src/ or perfbench/ uses, that "
                        f"perfbench/tracer.py does not trace and that "
                        f"tests/test_acceptance.py does not import: {unused}")
