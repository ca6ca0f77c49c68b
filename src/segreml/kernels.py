"""The reduction kernel module and its name, as the benchmark harness reads them.

The kernel lives in `groebner`; this module only re-exports that module.
"""

from __future__ import annotations

from . import groebner as kernel


def kernel_name() -> str:
    return "pure-python"
