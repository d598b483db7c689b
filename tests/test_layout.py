"""The installed package holds only the program.

Every module-level function and class in src/formaut must be used by the
program: referenced in src/ outside its own definition (a re-export in
__all__ is not a use), named in bench/ (whose tracer wraps functions by
name, as strings), or named in the CI workflow (which calls some helpers
the way a user would).  Checks that only the tests call live in tests/.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions exempt from the rule above; none today.
ALLOWED = set()

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree, skip=None, strings=False):
    """Identifiers referenced under tree, outside the subtree skip.

    With strings=True a string constant that is a dotted identifier, such as
    "MatGroup.elements", also names each of its parts.
    """
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and IDENTIFIER.fullmatch(node.value):
            out.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_definitions(root: Path):
    src = {p: ast.parse(p.read_text()) for p in sorted((root / "src" / "formaut").rglob("*.py"))}
    outside = set(re.findall(r"\w+", (root / ".github" / "workflows" / "tests.yml").read_text()))
    for p in sorted((root / "bench").rglob("*.py")):
        outside |= _names(ast.parse(p.read_text()), strings=True)
    unused = []
    for path, tree in src.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in outside or any(node.name in _names(t, skip=node) for t in src.values()):
                continue
            unused.append((path.relative_to(root).as_posix(), node.name))
    return unused


def test_every_src_definition_has_a_caller_outside_the_tests():
    unused = ["%s:%s" % pair for pair in unused_definitions(ROOT) if pair[1] not in ALLOWED]
    assert not unused, "defined in src/ but called only by the tests: %s" % ", ".join(unused)
