"""Every public top-level function or class of the package has a user,
and so does every annotated field and public method of a public class.

A name passes if code in ``src/`` or ``perfbench/`` refers to it (an
``ast.Name`` or ``ast.Attribute`` outside its own definition), if
``perfbench/tracer.py`` traces it, or if ``tests/test_acceptance.py``
imports it. A class member passes if an ``ast.Attribute`` in ``src/``,
``perfbench/`` or ``tests/test_acceptance.py`` names it, or if
``perfbench/tracer.py`` traces it. A name that only unit tests reach is
dead code. All sources are read with ``ast``, so nothing here imports the
package or keeps its own list of exemptions.
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


def public_members():
    """(module, "Class.member") of each annotated field and public method
    of each public top-level class."""
    return {(path.stem, f"{cls.name}.{name}")
            for path in sorted(PACKAGE.glob("*.py"))
            for cls in parse(path).body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for name in member_names(cls)}


def member_names(cls):
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            yield node.name


def attribute_names():
    """Names that an Attribute node in src/, perfbench/ or
    tests/test_acceptance.py refers to."""
    paths = [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    return {node.attr for path in sorted(paths) for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute)}


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


def test_every_public_member_has_a_user():
    members, traced = public_members(), traced_names()
    assert members
    used = attribute_names()
    unused = sorted(f"{module}.{member}" for module, member in members
                    if member.rpartition(".")[2] not in used and (module, member) not in traced)
    assert not unused, (f"public class fields and methods that no attribute access in src/, "
                        f"perfbench/ or tests/test_acceptance.py names and that "
                        f"perfbench/tracer.py does not trace: {unused}")
