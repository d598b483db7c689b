"""The installed package holds only the program.

Every module-level function and class in src/formaut, and every method of
such a class other than a dunder method, must be used by the program.  A
function or class is used when its name is referenced in src/ outside its
own definition (a re-export in __all__ is not a use), named in bench/
(whose tracer wraps functions by name, as strings), or named in the CI
workflow (which calls some helpers the way a user would).  A method is used
only through an attribute: `.name` in src/ outside its own definition or
in bench/, a dotted string such as "MatGroup.elements" in bench/, or
`.name` in the CI workflow; a local variable or a word that shares its
name does not count.  Checks that only the tests call live in tests/.

Every name a src/ module imports is read in that module, or re-exported
through its __all__.

JSON text lives at the two edges: cli reads the user's files and prints the
output, catalog reads its row files.  Every other module builds its records
from plain dicts and renders them as plain dicts, so only those two import
json.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions exempt from the rule above; none today.
ALLOWED = set()

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DUNDER = re.compile(r"__\w+__")


def _names(tree, skip=None, strings=False):
    """(every name, the attribute names) referenced under tree, outside the subtree skip.

    With strings=True a string constant that is a dotted identifier, such as
    "MatGroup.elements", also names each of its parts, and each part after
    the first is an attribute.
    """
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and IDENTIFIER.fullmatch(node.value):
            first, *rest = node.value.split(".")
            names.add(first)
            attributes.update(rest)
        stack.extend(ast.iter_child_nodes(node))
    return names | attributes, attributes


def unused_definitions(root: Path):
    src = {p: ast.parse(p.read_text()) for p in sorted((root / "src" / "formaut").rglob("*.py"))}
    ci = (root / ".github" / "workflows" / "tests.yml").read_text()
    outside = (set(re.findall(r"\w+", ci)), set(re.findall(r"\.(\w+)", ci)))    # (any use, a method's use)
    for p in sorted((root / "bench").rglob("*.py")):
        for seen, found in zip(outside, _names(ast.parse(p.read_text()), strings=True)):
            seen |= found
    unused = []
    for path, tree in src.items():
        defs = [(node, node.name, False) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(node, "%s.%s" % (cls.name, node.name), True) for cls, _, _ in defs if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef) and not DUNDER.fullmatch(node.name)]
        for node, name, method in defs:
            if node.name in outside[method] or any(node.name in _names(t, skip=node)[method] for t in src.values()):
                continue
            unused.append((path.relative_to(root).as_posix(), name))
    return unused


def test_every_src_definition_has_a_caller_outside_the_tests():
    unused = ["%s:%s" % pair for pair in unused_definitions(ROOT) if pair[1] not in ALLOWED]
    assert not unused, "defined in src/ but called only by the tests: %s" % ", ".join(unused)


def test_only_the_edges_import_json():
    src = ROOT / "src" / "formaut"
    importers = {path.relative_to(src).as_posix() for path in src.rglob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and "json" in [alias.name for alias in node.names]
                 or isinstance(node, ast.ImportFrom) and node.module == "json"}
    assert importers == {"cli.py", "catalog/__init__.py"}


def unused_imports(root: Path):
    unused = []
    for path in sorted((root / "src" / "formaut").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += ["%s:%s" % (path.relative_to(root).as_posix(), bound) for alias in node.names
                           for bound in [alias.asname or alias.name.split(".")[0]] if bound not in read]
    return unused


def test_every_src_import_is_used():
    unused = unused_imports(ROOT)
    assert not unused, "imported in src/ but never read: %s" % ", ".join(unused)
