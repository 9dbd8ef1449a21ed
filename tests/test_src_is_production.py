"""`src/` holds what `dp4` runs: one production route per job.

Every top-level function and class under src/dp4jigsaw must be reachable
from `cli.main` through the names that bodies read, resolved by each module's
own definitions and relative imports, and so must every method: through an
attribute of its name, or, for an operator method, its operator.  Every
exception class must be raised or caught by reached code.  A second route
that only the tests run lives in tests/tests_support.py or in the test module
that reads it.  PINNED lists the names that the benchmark harness still wraps
or calls; what they read stays with them.
"""

import ast
import importlib.util
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dp4jigsaw"

PINNED = {
    "dp4jigsaw.geometry._simplex.solve_lp": "ROADMAP item 2: bench/layers.py times it",
    "dp4jigsaw.geometry._simplex.feasible":
        "ROADMAP item 2: the phase-I entry of the simplex module that bench/layers.py times",
    "dp4jigsaw.geometry.polytope._vertices_brute": "ROADMAP item 2: bench/layers.py times it",
    "dp4jigsaw.geometry.polytope.strictly_feasible":
        "ROADMAP item 2: bench/layers.py counts it through its import into jigsaw",
    "dp4jigsaw.jigsaw._FaceCache": "ROADMAP item 2: bench/layers.py probes its caches",
    "dp4jigsaw.jigsaw.face_polytope": "ROADMAP item 2: bench/layers.py counts its calls",
    "dp4jigsaw.jigsaw.pyramid_polytope": "ROADMAP item 2: bench/jobs.py builds it",
    "dp4jigsaw.jigsaw.pyramid_base_polytope": "ROADMAP item 2: bench/jobs.py builds it",
    "dp4jigsaw.torsor.torsor_count": "ROADMAP item 2: bench/layers.py times it",
}


#: The operator that runs each operator method.  Any other dunder runs with
#: its class: construction, printing, truth tests, attribute guards.
OPERATORS = {
    "__add__": ast.Add, "__radd__": ast.Add, "__sub__": ast.Sub, "__rsub__": ast.Sub,
    "__mul__": ast.Mult, "__rmul__": ast.Mult, "__truediv__": ast.Div,
    "__floordiv__": ast.FloorDiv, "__mod__": ast.Mod, "__pow__": ast.Pow,
    "__matmul__": ast.MatMult, "__neg__": ast.USub, "__pos__": ast.UAdd,
    "__invert__": ast.Invert, "__lt__": ast.Lt, "__le__": ast.LtE, "__gt__": ast.Gt,
    "__ge__": ast.GtE, "__contains__": ast.In,
}


class _Code:
    """What one def reads: the defs its names mean, every attribute name, the
    operators it applies, and the defs it raises or catches."""

    def __init__(self):
        self.edges, self.attrs, self.ops, self.raised = set(), set(), set(), set()


def _read_graph():
    """(code, methods, modules): a _Code for every top-level def as
    "module.name", every method as "module.Class.name" and each module's other
    top-level code under the module's name; the methods of each class; and the
    module names."""
    trees, scopes, nodes, methods = {}, {}, {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = ("dp4jigsaw",) + path.relative_to(PACKAGE).with_suffix("").parts
        trees[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    for mod, path in trees.items():
        tree = ast.parse(path.read_text())
        package = mod if path.name == "__init__.py" else mod.rpartition(".")[0]
        scopes[mod] = {}
        for node in ast.walk(tree):  # an import inside a function binds too
            if isinstance(node, ast.ImportFrom) and node.level:
                base = importlib.util.resolve_name("." * node.level + (node.module or ""),
                                                   package)
                for alias in node.names:
                    scopes[mod][alias.asname or alias.name] = f"{base}.{alias.name}"
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes.setdefault(mod, (mod, []))[1].append(node)
                continue
            key = scopes[mod][node.name] = f"{mod}.{node.name}"
            own = nodes.setdefault(key, (mod, []))[1]
            if isinstance(node, ast.FunctionDef):
                own.append(node)
                continue
            own += [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.setdefault(key, []).append(f"{key}.{item.name}")
                    nodes[f"{key}.{item.name}"] = (mod, [item])
                else:
                    own.append(item)

    def resolve(mod, name):
        """The def or module that name means in mod, through re-exports; else None."""
        target = scopes[mod].get(name)
        while target and target not in nodes and target not in trees:
            owner, _, attr = target.rpartition(".")
            target = scopes[owner].get(attr) if owner in trees else None
        return target

    def ref(mod, expr):
        """The def or module that a name or a module's attribute means in mod."""
        if isinstance(expr, ast.Name):
            return resolve(mod, expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = resolve(mod, expr.value.id)
            return resolve(owner, expr.attr) if owner in trees else None
        return None

    code = {}
    for key, (mod, body) in nodes.items():
        c = code[key] = _Code()
        for sub in (sub for node in body for sub in ast.walk(node)):
            c.edges.add(ref(mod, sub))
            if isinstance(sub, ast.Attribute):
                c.attrs.add(sub.attr)
            elif isinstance(sub, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
                c.ops.add(type(sub.op))
            elif isinstance(sub, ast.Compare):
                c.ops.update(map(type, sub.ops))
            elif isinstance(sub, ast.Raise) and sub.exc is not None:
                c.raised.add(ref(mod, getattr(sub.exc, "func", sub.exc)))
            elif isinstance(sub, ast.ExceptHandler) and sub.type is not None:
                c.raised.update(ref(mod, kind) for kind in getattr(sub.type, "elts", [sub.type]))
        c.edges.discard(None)
    return code, methods, set(trees)


def _runs(method, attrs, ops):
    """Can code that reads these attribute names and applies these operators call it?"""
    name = method.rpartition(".")[2]
    if name.startswith("__") and name.endswith("__"):
        return name not in OPERATORS or OPERATORS[name] in ops
    return name in attrs


def _unreached(*roots):
    """What cli.main and roots cannot reach: functions, methods and classes, and
    exception classes that no reached code raises or catches.

    A method is reached when its class is, and reached code reads an attribute
    of the method's name or applies its operator.  Names are matched, not
    types, so any object's attribute of that name, or any use of that
    operator, keeps the method.
    """
    code, methods, modules = _read_graph()
    # the harness wraps a pinned class's methods by name, so it is pinned whole
    seen, todo = set(), ["dp4jigsaw.cli.main", *roots,
                         *(method for root in roots for method in methods.get(root, ()))]
    attrs, ops, raised = set(), set(), set()
    while todo:
        while todo:
            key = todo.pop()
            if key not in seen and key in code:
                seen.add(key)
                c = code[key]
                attrs |= c.attrs
                ops |= c.ops
                raised |= c.raised
                # reading a def runs its module's top-level code on import
                todo += [*c.edges, key.rpartition(".")[0]]
        todo = [method for cls in seen.intersection(methods) for method in methods[cls]
                if method not in seen and _runs(method, attrs, ops)]
    out = set()
    for key in set(code) - modules:
        mod, _, name = key.rpartition(".")
        obj = getattr(importlib.import_module(mod), name) if mod in modules else None
        if isinstance(obj, type) and issubclass(obj, BaseException):
            if key not in raised:
                out.add(key)
        elif key not in seen:
            out.add(key)
    return out


def test_every_name_in_src_is_reached_from_the_command():
    stray = sorted(_unreached(*PINNED))
    assert not stray, (f"{len(stray)} names in src/ that dp4 never runs: {stray}; "
                       "move each beside the tests that read it")


def test_every_pinned_name_is_still_unreached():
    # A pinned name that dp4 now reaches, or that is gone, leaves the list.
    assert sorted(set(PINNED) - _unreached()) == []
