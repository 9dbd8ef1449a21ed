"""`src/` holds what `dp4` runs: one production route per job.

Every top-level function and non-exception class under src/dp4jigsaw must be
reachable from `cli.main` through the names that bodies read, resolved by
each module's own definitions and relative imports.  A second route that
only the tests run lives in tests/tests_support.py or in the test module that
reads it.  PINNED lists the names that the benchmark harness still wraps or
calls; what they read stays with them.
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


def _read_graph():
    """(defs, edges): the top-level defs as "module.name", and for each def, and
    each module's other top-level code under the module's name, the defs it reads."""
    trees, scopes, nodes, edges = {}, {}, {}, {}
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
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = scopes[mod][node.name] = f"{mod}.{node.name}"
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                key = mod
            nodes.setdefault(key, (mod, []))[1].append(node)

    def resolve(mod, name):
        """The def or module that name means in mod, through re-exports; else None."""
        target = scopes[mod].get(name)
        while target and target not in nodes and target not in trees:
            owner, _, attr = target.rpartition(".")
            target = scopes[owner].get(attr) if owner in trees else None
        return target

    for key, (mod, body) in nodes.items():
        edges[key] = set()
        for sub in (sub for node in body for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                edges[key].add(resolve(mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                owner = resolve(mod, sub.value.id)
                edges[key].add(resolve(owner, sub.attr) if owner in trees else None)
        edges[key].discard(None)
    return {key for key in nodes if key not in trees}, edges


def _unreached(*roots):
    """Top-level functions and non-exception classes that cli.main and roots cannot reach."""
    defs, edges = _read_graph()
    seen, todo = set(), ["dp4jigsaw.cli.main", *roots]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            # reading a def runs its module's top-level code on import
            todo += [*edges.get(key, ()), key.rpartition(".")[0]]
    out = set()
    for key in defs - seen:
        mod, _, name = key.rpartition(".")
        obj = getattr(importlib.import_module(mod), name)
        if not (isinstance(obj, type) and issubclass(obj, BaseException)):
            out.add(key)
    return out


def test_every_name_in_src_is_reached_from_the_command():
    stray = sorted(_unreached(*PINNED))
    assert not stray, (f"{len(stray)} names in src/ that dp4 never runs: {stray}; "
                       "move each beside the tests that read it")


def test_every_pinned_name_is_still_unreached():
    # A pinned name that dp4 now reaches, or that is gone, leaves the list.
    assert sorted(set(PINNED) - _unreached()) == []
