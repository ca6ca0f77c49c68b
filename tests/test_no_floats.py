"""Exactness check: no module under src/segreml spells a float or complex operation.

The walk refuses, in every module's syntax tree:
* a float or complex literal;
* a call of `float` or `complex`;
* a `math` name outside EXACT_MATH, read as `math.name` or imported with
  `from math import`; the four kept ones return ints on int arguments;
* `pow` with fewer than three arguments, since pow(a, -1) is a float.

`/` and `**` are not refused here: on Fractions they stay exact, so only a
run that looks at the values can tell a float from them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import segreml

SRC = Path(segreml.__file__).parent
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
