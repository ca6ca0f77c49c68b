"""Design check: every public function and class in src/segreml is run by some command.

The walk starts at `cli.main` and follows, through the module-level
definitions of `src/segreml`, every name a definition reads and every
`module.attr` read through a module imported as a name.  A class counts
as reached with all its methods, whose reads are followed too, so methods
are not checked on their own.  Annotations are skipped: every module has
`from __future__ import annotations`, so none of them is evaluated.
"""

from __future__ import annotations

import ast
from pathlib import Path

import segreml

SRC = Path(segreml.__file__).parent

# Definitions no command runs, kept because the benchmark harness reads them.
PERFBENCH_HELD = {
    ("factors", "eval_minor"),  # perfbench/tracing.py wraps it; ROADMAP item 1 removes it
    ("factors", "eval_hyp222"),  # perfbench/tracing.py wraps it; ROADMAP item 1 removes it
    ("groebner", "standard_monomial_count"),  # perfbench/tracing.py wraps it; ROADMAP item 1 removes it
    ("kernels", "kernel_name"),  # perfbench/run.py reads it; ROADMAP item 1 removes it
}


def _package() -> tuple[dict, dict]:
    """{(module, name): node} for every module-level binding, and {module: {name: (module, name or None)}} for relative imports."""
    definitions, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    definitions.update(((module, n.id), node) for n in ast.walk(target) if isinstance(n, ast.Name))
        # a function-local import binds its name module-wide here, which can only reach more
        bound = imports[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    bound[alias.asname or alias.name] = target
    return definitions, imports


def _reads(node):
    """(name, attr or None) for every name `node` reads, and the attribute read off it; annotations skipped."""
    if isinstance(node, ast.Name):
        yield node.id, None
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        yield node.value.id, node.attr
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _reads(child)


def unreached_definitions() -> set[tuple[str, str]]:
    """The public module-level functions and classes of src/segreml that no walk from `cli.main` reaches."""
    definitions, imports = _package()

    def resolve(module, name, attr):
        if name in imports[module]:
            module, name = imports[module][name]
            if name is None:  # a module: only the attribute read off it is a definition
                if attr is None:
                    return None
                name, attr = attr, None
            return resolve(module, name, attr)
        return (module, name) if (module, name) in definitions else None

    seen, stack = set(), [("cli", "main")]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        for name, attr in _reads(definitions[key]):
            found = resolve(key[0], name, attr)
            if found is not None:
                stack.append(found)
    return {
        key
        for key, node in definitions.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not key[1].startswith("_") and key not in seen
    }


def test_every_public_definition_is_reached_from_cli_main():
    unreached = unreached_definitions()
    assert unreached - PERFBENCH_HELD == set(), "no command reaches these; delete them or move them next to their tests"
    assert PERFBENCH_HELD - unreached == set(), "a command reaches these now; drop them from PERFBENCH_HELD"
