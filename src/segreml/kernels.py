"""The reduction kernel module and its name, as the benchmark harness reads them.

`groebner` imports `_kernel_py` directly; this module only re-exports it.
"""

from __future__ import annotations

from . import _kernel_py as kernel


def kernel_name() -> str:
    return "pure-python"
