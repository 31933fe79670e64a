"""The package keeps only what the package runs.

Every module-level function and class of src/strainlim, and every method,
must be referenced by name (a Name or an Attribute node) somewhere in src
outside its own definition.  An API that only tests call belongs in
tests/reference_impl.py, next to the tests that compare against it.
"""

import ast
import pathlib

import strainlim

# RunConfig.serialize writes the resolved config, which a planned run
# manifest will record
ALLOWED = {"RunConfig.serialize"}
DEFS = (ast.FunctionDef, ast.ClassDef)


def _walk(node, inside=frozenset()):
    """Every node below node, with the definitions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield child, inside
        yield from _walk(child, inside | {child} if isinstance(child, DEFS) else inside)


def test_every_definition_is_referenced_in_src():
    src = pathlib.Path(strainlim.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = {}                      # name -> enclosing definitions of each reference
    defs = []
    for fname, tree in trees.items():
        for node, inside in _walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append(inside)
            # module level, or a method of a module-level class
            elif isinstance(node, DEFS) and [type(d) for d in inside] in ([], [ast.ClassDef]):
                defs.append((fname, ".".join([d.name for d in inside] + [node.name]), node))
    unused = [f"{fname}:{qual}" for fname, qual, node in defs
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and qual not in ALLOWED
              and not any(node not in inside for inside in refs.get(node.name, ()))]
    assert not unused, f"defined in src but referenced only by tests or itself: {unused}"
