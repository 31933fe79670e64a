"""The package keeps only what the package runs.

Every module-level function and class of src/strainlim, and every method,
must be referenced by name (a Name or an Attribute node) somewhere in src
outside its own definition.  An API that only tests call belongs in
tests/reference_impl.py, next to the tests that compare against it.
Every defaulted parameter and dataclass field must be passed by some src
call; a test that needs another value patches the module constant.
"""

import ast
import pathlib

import strainlim

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
              and not any(node not in inside for inside in refs.get(node.name, ()))]
    assert not unused, f"defined in src but referenced only by tests or itself: {unused}"


# main(argv) is the entry point that the tests and the benchmark call with
# their own argv; the console script calls it without one
PARAMS_ALLOWED = {"driver.py:main(argv)"}


def _is_dataclass(cls):
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted(fname, node, cls):
    """(label, callee name, position, keyword) of every defaulted parameter
    of a function or method, or field of a dataclass; position is None for
    keyword-only parameters."""
    if isinstance(node, ast.ClassDef):
        fields = [s for s in node.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        return [(f"{fname}:{node.name}.{s.target.id}", node.name, i, s.target.id)
                for i, s in enumerate(fields) if s.value is not None]
    a = node.args
    positional = a.posonlyargs + a.args
    # a method's first parameter is bound; __init__ is called by its class name
    shift = 1 if cls is not None else 0
    callee = cls.name if cls is not None and node.name == "__init__" else node.name
    qual = node.name if cls is None else f"{cls.name}.{node.name}"
    out = [(f"{fname}:{qual}({arg.arg})", callee, i - shift, arg.arg)
           for i, arg in enumerate(positional)
           if i >= len(positional) - len(a.defaults)]
    out += [(f"{fname}:{qual}({arg.arg})", callee, None, arg.arg)
            for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_in_src():
    """A defaulted parameter or dataclass field that no src call ever passes
    is a setting nothing sets: its value belongs in the code as a constant.

    A call passes it by keyword, or by position when it has that many
    positional arguments (a starred argument reaches every position).  A
    call that forwards its function's own ``**kw`` passes every keyword
    that any call of that function passes; ``replace(obj, key=...)`` passes
    the dataclass field key.
    """
    src = pathlib.Path(strainlim.__file__).parent
    params = []
    positions = {}                  # callee name -> most positional arguments
    keywords = {}                   # callee name -> keywords passed
    forwards = []                   # (callee, forwarding function) of **kw calls

    def visit(node, fname, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    params.extend(_defaulted(fname, child, None))
                visit(child, fname, child, func)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params.extend(_defaulted(fname, child, cls))
                visit(child, fname, None, child)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                starred = any(isinstance(x, ast.Starred) for x in child.args)
                positions[name] = max(positions.get(name, 0),
                                      float("inf") if starred else len(child.args))
                kws = keywords.setdefault(name, set())
                for kw in child.keywords:
                    if kw.arg is not None:
                        kws.add(kw.arg)
                    elif (func is not None and func.args.kwarg is not None
                          and isinstance(kw.value, ast.Name)
                          and kw.value.id == func.args.kwarg.arg):
                        forwards.append((name, func.name))
            visit(child, fname, cls, func)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None, None)
    changed = True
    while changed:
        changed = False
        for callee, via in forwards:
            new = keywords.get(via, set()) - keywords[callee]
            if new:
                keywords[callee] |= new
                changed = True

    fields = {label for label, *_ in params if "(" not in label}
    never = [label for label, callee, pos, key in params
             if label not in PARAMS_ALLOWED
             and key not in keywords.get(callee, ())
             and not (pos is not None and positions.get(callee, 0) > pos)
             and not (label in fields and key in keywords.get("replace", ()))]
    assert not never, f"defaulted in src but never passed by a src call: {never}"
