"""Design check: every function, class and method in src/segreml is run by some command.

The walk starts at `cli.main` and follows, through the module-level
definitions of `src/segreml`, every name a definition reads and every
`module.attr` read through a module imported as a name.  A class is
reached with its dunder methods.  Any other method `C.m` of a reached
class is reached only when some reached definition reads `m` off a
receiver that can be C: `self.m` or `cls.m` inside C itself, `C.m`, or
`x.f.m` where every class field named f is annotated C.  A read off any
other receiver (`x.m` for an untyped x) reaches `m` in every class.  The
method's reads are then followed too.  Private functions are checked
like public ones.  Annotations are otherwise skipped: every module has
`from __future__ import annotations`, so none of them is evaluated.
"""

from __future__ import annotations

import ast
import copy
import importlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

import segreml
from segreml.errors import DimensionMismatchError, ZeroEntryError
from segreml.euler import MLDegreeReport
from segreml.exact import BinaryForm, RatMatrix
from segreml.factors import FactorId, VanishingPattern
from segreml.oracle import CountResult, DataVector, ScoreSystem
from segreml.strata import Stratum
from segreml.tensor import ScalingTensor

SRC = Path(segreml.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Definitions no command runs, kept because the benchmark harness reads them.
PERFBENCH_HELD = {
    ("factors", "eval_minor"),  # perfbench/tracing.py wraps it; ROADMAP item 1 removes it
    ("factors", "eval_hyp222"),  # perfbench/tracing.py wraps it; ROADMAP item 1 removes it
    ("groebner", "standard_monomial_count"),  # perfbench/tracing.py wraps it; ROADMAP item 1 removes it
    ("kernels", "kernel_name"),  # perfbench/run.py reads it; ROADMAP item 1 removes it
}


def _is_method(node) -> bool:
    """Whether a statement of a class body is a method the walk checks on its own: any def but a dunder."""
    return isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))


def _package(src: Path) -> tuple[dict, dict]:
    """{(module, name): node} for every module-level binding and every method ("Class.method") under `src`,
    and {module: {name: (module, name or None)}} for relative imports."""
    definitions, imports = {}, {}
    for path in sorted(src.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[module, node.name] = node
                if isinstance(node, ast.ClassDef):
                    definitions.update(((module, f"{node.name}.{m.name}"), m) for m in node.body if _is_method(m))
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


def _own_parts(node) -> list:
    """What runs when a definition is reached: a class without the methods the walk checks on their own."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords, *(s for s in node.body if not _is_method(s))]
    return [node]


def _field_annotations(definitions) -> dict:
    """{field: {(module, annotation name or None)}} over the annotated fields of every class body."""
    annotated = {}
    for (module, _), node in definitions.items():
        if isinstance(node, ast.ClassDef):
            for s in node.body:
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name):
                    kind = s.annotation.id if isinstance(s.annotation, ast.Name) else None
                    annotated.setdefault(s.target.id, set()).add((module, kind))
    return annotated


def _reads(node):
    """(name, field, attr) for every name `node` reads: (name, None, attr) for `name.attr`,
    (name, None, None) for a bare name, (None, field, attr) for `x.field.attr`,
    and (None, None, attr) for an attribute read off anything else; annotations skipped."""
    if isinstance(node, ast.Name):
        yield node.id, None, None
    elif isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Name):
            yield value.id, None, node.attr
        else:
            yield None, (value.attr if isinstance(value, ast.Attribute) else None), node.attr
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _reads(child)


def unreached_definitions(src: Path = SRC) -> set[tuple[str, str]]:
    """The module-level functions and classes, and the methods, under `src` that no walk from `cli.main` reaches."""
    definitions, imports = _package(src)
    methods = {key: key[1].split(".") for key in definitions if "." in key[1]}

    def resolve(module, name, attr):
        if name in imports[module]:
            module, name = imports[module][name]
            if name is None:  # a module: only the attribute read off it is a definition
                if attr is None:
                    return None
                name, attr = attr, None
            return resolve(module, name, attr)
        return (module, name) if (module, name) in definitions else None

    def is_class(key) -> bool:
        return isinstance(definitions.get(key), ast.ClassDef)

    fields = {}  # field -> the class key that every class field of that name is annotated with
    for field, kinds in _field_annotations(definitions).items():
        found, *others = {None if kind is None else resolve(module, kind, None) for module, kind in kinds}
        if not others and is_class(found):
            fields[field] = found

    # attributes holds (class key, attr) for a read off a receiver that can only be that class
    # and (None, attr) for any other attribute read
    seen, attributes, stack = set(), set(), [("cli", "main")]
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            own = (key[0], key[1].split(".")[0])
            for part in _own_parts(definitions[key]):
                for name, field, attr in _reads(part):
                    found = None if name is None else resolve(key[0], name, attr)
                    if found is not None:
                        stack.append(found)
                    if attr is None:
                        continue
                    if name in ("self", "cls") and is_class(own):
                        attributes.add((own, attr))
                    elif found is not None and is_class(found):
                        attributes.add((found, attr))
                    elif field in fields:
                        attributes.add((fields[field], attr))
                    else:
                        attributes.add((None, attr))
        if not stack:  # the methods of reached classes read off a receiver that can be their class
            stack = [
                key
                for key, (cls, name) in methods.items()
                if key not in seen
                and (key[0], cls) in seen
                and ((None, name) in attributes or ((key[0], cls), name) in attributes)
            ]
    return {
        key
        for key, node in definitions.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and key not in seen
    }


def test_every_definition_is_reached_from_cli_main():
    unreached = unreached_definitions()
    assert unreached - PERFBENCH_HELD == set(), "no command reaches these; delete them or move them next to their tests"
    assert PERFBENCH_HELD - unreached == set(), "a command reaches these now; drop them from PERFBENCH_HELD"


def test_the_walk_reports_an_unused_method_and_private_function(tmp_path):
    src = tmp_path / "segreml"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    tensor = src / "tensor.py"
    anchor = "    def to_json_dict(self) -> dict:\n"
    text = tensor.read_text()
    assert text.count(anchor) == 1
    unused = "    def unused_method(self) -> int:\n        return self.n\n\n"
    tensor.write_text(text.replace(anchor, unused + anchor) + "\n\ndef _unused_function() -> int:\n    return 0\n")
    assert unreached_definitions(src) - PERFBENCH_HELD == {
        ("tensor", "ScalingTensor.unused_method"),
        ("tensor", "_unused_function"),
    }


def test_the_walk_reports_a_method_read_only_off_another_class(tmp_path):
    # `sort_key` is read only as `FactorId.sort_key`, so those reads do not reach
    # an uncalled DataVector.sort_key
    src = tmp_path / "segreml"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    oracle = src / "oracle.py"
    anchor = "    @classmethod\n    def from_json_dict(cls, data: dict) -> DataVector:\n"
    text = oracle.read_text()
    assert text.count(anchor) == 1
    unused = "    def sort_key(self) -> tuple:\n        return self.u\n\n"
    oracle.write_text(text.replace(anchor, unused + anchor))
    assert unreached_definitions(src) - PERFBENCH_HELD == {("oracle", "DataVector.sort_key")}


def _perfbench_reads() -> tuple[tuple, set]:
    """perfbench/tracing.py's FUNCTIONS, and the names perfbench/run.py imports from segreml.kernels, read with ast."""
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    functions = next(
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets)
    )
    run = ast.parse((PERFBENCH / "run.py").read_text())
    kernels = {
        alias.name
        for node in ast.walk(run)
        if isinstance(node, ast.ImportFrom) and node.module == "segreml.kernels"
        for alias in node.names
    }
    return functions, kernels


def _resolves(owner, dotted: str) -> bool:
    try:
        reduce(getattr, dotted.split("."), owner)
    except AttributeError:
        return False
    return True


def test_perfbench_reads_the_held_names_and_finds_every_traced_one():
    functions, kernels = _perfbench_reads()
    read = {(module.removeprefix("segreml."), attr) for _, module, attr in functions if module is not None}
    read |= {("kernels", name) for name in kernels}
    assert PERFBENCH_HELD - read == set(), "perfbench no longer reads these; drop them from PERFBENCH_HELD"
    shim = importlib.import_module("segreml.kernels")
    missing = [
        (module, attr)
        for _, module, attr in functions
        if not _resolves(shim.kernel if module is None else importlib.import_module(module), attr)
    ]
    missing += [("segreml.kernels", name) for name in kernels if not _resolves(shim, name)]
    assert missing == [], "perfbench traces or imports these, but segreml does not define them"


def test_importing_the_cli_loads_every_module_and_no_dataclasses_inspect_or_typing():
    # -S keeps site's .pth files, which may import typing themselves, out of the child
    code = (
        "import sys, json, segreml.cli; "
        "print(json.dumps([sorted(m for m in sys.modules if m.partition('.')[0] == 'segreml'), "
        "[m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, heavy = json.loads(proc.stdout)
    assert heavy == []
    # cli imports every module at its top, so no command defers one
    modules = ("cli", "errors", "euler", "exact", "factors", "groebner", "oracle", "realize", "strata", "tensor")
    assert loaded == ["segreml", *(f"segreml.{m}" for m in modules)]


_W = (((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))), ((Fraction(5), Fraction(6)), (Fraction(7), Fraction(8))))
_U = (((1, 2), (3, 4)), ((5, 6), (7, 8)))
_FACTOR = FactorId("face_x", (0, 0, 1))
_PATTERN = VanishingPattern(1, (_FACTOR,))

# Per value type: one instance's fields in declaration order, and argument tuples its __init__ refuses, with the error
VALUE_TYPES = [
    (RatMatrix, (((Fraction(1), Fraction(2)),),), [(((),), ValueError), ((((),),), ValueError), ((((1, 2), (3,)),), ValueError)]),
    (BinaryForm, ((1, -2, 1),), [(((),), ValueError), (((1, 2, 3, 4),), ValueError)]),
    (
        ScalingTensor,
        (1, _W),
        [
            ((0, _W), DimensionMismatchError),
            ((1, _W[:1]), DimensionMismatchError),
            ((2, _W), DimensionMismatchError),
            ((1, ((_W[0][0], (Fraction(0), Fraction(1))), _W[1])), ZeroEntryError),
        ],
    ),
    (FactorId, ("face_x", (0, 0, 1)), [(("edge", (0,)), ValueError), (("slice", (0, 1)), ValueError), (("hyp222", (1, 0)), ValueError)]),
    (VanishingPattern, (1, (_FACTOR,)), []),
    (MLDegreeReport, (6, 6, {((0,), ((), ())): 1}), []),
    (Stratum, (_PATTERN, 5, "solve F[0*(0,1)] = 0 for one entry", "single"), [((_PATTERN, 5, "single"), TypeError)]),
    (
        DataVector,
        (_U,),
        [
            ((_U[:1],), DimensionMismatchError),
            (((_U[0], ((5, 6), (7,))),), DimensionMismatchError),
            (((_U[0], ((5, 6), (7, True))),), TypeError),
            (((_U[0], ((5, 6), (7, 0))),), ValueError),
        ],
    ),
    (ScoreSystem, (1, (((1, 0), (-2, 1)),), (((1, 1), 2),)), []),
    (CountResult, (8, True, ((None, 8),)), [((8, True, ((None, 8),), 0), TypeError)]),
]


@pytest.mark.parametrize("cls, fields, refused", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES])
def test_value_types_keep_frozen_dataclass_semantics(cls, fields, refused):
    value, again = cls(*fields), cls(*fields)
    assert value == again and not value != again
    try:
        expected = hash(fields)
    except TypeError:  # a dict field: hashing fails as it does for the field tuple
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again) == expected
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    assert value != twin and twin != value and value != fields
    for name in cls.__annotations__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(again, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == again == copy.deepcopy(value) == pickle.loads(pickle.dumps(value))
    for args, error in refused:
        with pytest.raises(error) as excinfo:
            cls(*args)
        assert type(excinfo.value) is error
