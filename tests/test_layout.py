"""Every module-level definition and constant of the package has a caller in
the package itself, and every import of the package is used. Code that only
tests use belongs in `tests/oracles.py`. Only data.py opens files."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kpivae"


def _names(node) -> set[str]:
    """Identifiers a node refers to: names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _defines(stmt) -> list[str]:
    """The module-level names a top-level statement defines: a function, a
    class or the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_definition_has_a_caller_in_src():
    """Private names and constants too; dunders such as `__version__` are
    read from outside the package."""
    defined = []  # (module, name)
    used = []  # (module, names the top-level statement defines, identifiers)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owners = _defines(stmt)
            defined += [(path.stem, name) for name in owners if not name.startswith("__")]
            used.append((path.stem, owners, _names(stmt)))
    assert len(defined) > 100
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if not any(name in ids and not (m == module and name in o) for m, o, ids in used)
    ]
    assert unused == []


def test_every_import_is_used():
    imported, unused = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        names = [
            (alias.asname or alias.name).split(".")[0]
            for n in imports
            if getattr(n, "module", None) != "__future__"
            for alias in n.names
        ]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imported += len(names)
        unused += [f"{path.stem}.{name}" for name in names if name not in read]
    assert imported > 50
    assert unused == []


# the calls that open a file: `open`, and pathlib's `Path.open` and its
# one-shot readers and writers
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_only_data_opens_files():
    """Every artifact's format, the checkpoint's too, stays behind the codec
    in data.py, with the CSVs and the SVG; no other module opens a file
    itself, by a bare `open` or by a method such as `Path.write_text`."""
    openers = set()
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id == "open"
                or isinstance(n.func, ast.Attribute) and n.func.attr in OPENERS
            ):
                openers.add(path.name)
    assert openers == {"data.py"}
