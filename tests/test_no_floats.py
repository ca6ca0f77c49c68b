"""Exactness check: no module under src/segreml spells or makes a float or complex value.

The walk refuses, in every module's syntax tree:
* a float or complex literal;
* a call of `float` or `complex`;
* a `math` name outside EXACT_MATH, read as `math.name` or imported with
  `from math import`; the four kept ones return ints on int arguments;
* `pow` with fewer than three arguments, since pow(a, -1) is a float.

`/` and `**` are not refused by the walk: on Fractions they stay exact, so
only a run that looks at the values can tell a float from them.  The traced
run does: it runs benchmark ops through `cli.main` under `sys.settrace` and,
at every return from a frame of a src/segreml module, looks at the frame's
locals and its return value, and at the items of those that are tuples or
lists, for a float or complex.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import segreml
from segreml import euler
from segreml.cli import main
from segreml.realize import realize

SRC = Path(segreml.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
EXACT_MATH = {"gcd", "isqrt", "lcm", "prod"}


def float_forms(src: Path = SRC) -> list[str]:
    """"module:line form" for every refused form in the modules under `src`."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        math_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "math"
        }
        for node in ast.walk(tree):
            forms = []
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                forms.append(f"literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("float", "complex"):
                    forms.append(f"{node.func.id}()")
                elif node.func.id == "pow" and len(node.args) + len(node.keywords) < 3:
                    forms.append("pow() without a modulus")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in math_names:
                if node.attr not in EXACT_MATH:
                    forms.append(f"math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                forms += [f"math.{alias.name}" for alias in node.names if alias.name not in EXACT_MATH]
            found += [f"{path.stem}:{node.lineno} {form}" for form in forms]
    return found


def test_src_spells_no_float_operation():
    assert float_forms() == []


@pytest.mark.parametrize(
    "planted, form",
    [
        ("half = 0.5", "literal 0.5"),
        ("rotation = 1j", "literal 1j"),
        ("def _f(x):\n    return float(x)", "float()"),
        ("def _f(x):\n    return complex(x)", "complex()"),
        ("import math as m\nroot = m.sqrt(2)", "math.sqrt"),
        ("from math import gcd, log", "math.log"),
        ("inverse = pow(3, -1)", "pow() without a modulus"),
    ],
)
def test_each_planted_float_form_is_refused(tmp_path, planted, form):
    (tmp_path / "planted.py").write_text(f"from math import isqrt, prod\n\nkept = pow(3, -1, 7)\n{planted}\n")
    last_line = 3 + len(planted.splitlines())  # each plant puts its refused form on its last line
    assert float_forms(tmp_path) == [f"planted:{last_line} {form}"]


def _inexact(value) -> bool:
    if isinstance(value, (tuple, list)):
        return any(isinstance(x, (float, complex)) for x in value)
    return isinstance(value, (float, complex))


def traced_floats(argv: list[str]) -> tuple[int, str, list[str]]:
    """(exit code, stdout, "module.function name=value" for each inexact value seen) of `main(argv)`, traced."""
    found, src = [], str(SRC)

    def on_return(frame, event, arg):
        if event == "return":
            for name, value in [*frame.f_locals.items(), ("<return>", arg)]:
                if _inexact(value):
                    found.append(f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name} {name}={value!r}")
        return on_return

    def on_call(frame, event, arg):
        return on_return if os.path.dirname(frame.f_code.co_filename) == src else None

    out = io.StringIO()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    finally:
        sys.settrace(previous)
    return rc, out.getvalue(), found


def benchmark_ops(workloads: tuple[str, ...], seeds: tuple[int, ...], workdir: Path) -> list:
    """The ops of pass 0 of each workload at each seed, their input files written under `workdir`."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, make_pass

    ops = []
    for name in workloads:
        for seed in seeds:
            directory = workdir / f"{name}-{seed}"
            directory.mkdir()
            ops += make_pass(WORKLOADS[name], seed, 0, directory)
    return ops


ALL_WORKLOADS = ("engine-scale", "oracle-verify", "desk-mix")
COMMANDS = {"analyze", "atlas", "matrix-mldeg", "mldeg", "oracle", "realize", "signs"}


def _check_traced(ops) -> None:
    for op in ops:
        rc, out, found = traced_floats(list(op.argv))
        assert op.check(rc, out) is None, op.argv
        assert found == [], (op.argv, found[:5])


def test_one_op_per_command_makes_no_float(tmp_path):
    first = {}
    for op in benchmark_ops(ALL_WORKLOADS, (1,), tmp_path):
        first.setdefault(op.argv[0], op)
    assert first.keys() == COMMANDS
    _check_traced(first.values())


@pytest.mark.skipif(not os.environ.get("SEGREML_EXHAUSTIVE"), reason="every op of six passes, traced; set SEGREML_EXHAUSTIVE=1")
def test_every_benchmark_op_makes_no_float(tmp_path):
    _check_traced(benchmark_ops(ALL_WORKLOADS, (1, 2), tmp_path))


# Compiled as a module of src/segreml, so that the trace follows its frames.
_PLANTED = """
def mldeg_value(W):
    half = W.n / 2
    _pair(W)
    return real(W)


def _pair(W):
    return W.n, W.n / 2
"""


def test_the_trace_sees_a_float_in_a_local_and_in_a_returned_tuple(tmp_path, monkeypatch):
    namespace = {"real": euler.mldeg_value}
    exec(compile(_PLANTED, str(SRC / "planted.py"), "exec"), namespace)
    monkeypatch.setattr(euler, "mldeg_value", namespace["mldeg_value"])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(realize(1, 4, seed=0).to_json_dict()))
    rc, out, found = traced_floats(["mldeg", str(path)])
    assert (rc, out) == (0, "4\n")
    assert found == ["planted._pair <return>=(1, 0.5)", "planted.mldeg_value half=0.5"]
