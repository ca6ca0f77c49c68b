"""The polynomial reduction kernel that groebner runs."""

from __future__ import annotations

from . import _kernel_py as kernel


def kernel_name() -> str:
    return "pure-python"
