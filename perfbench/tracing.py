"""Per-layer spans, recorded from outside the program.

``patched(tracer)`` wraps the public functions named in ``FUNCTIONS`` for
as long as it is active.  A function is replaced wherever a segreml module
binds it (``euler.binary_gcd`` as well as ``exact.binary_gcd``), so calls
between modules are seen too.  Each call records a span: name, start, end,
the enclosing span, and the op that caused it.  Spans stay in memory; the
per-layer numbers are derived from them after the pass, and ``write_spans``
saves them when the run ends.

Per-monomial helpers such as ``grevlex_key`` and ``mono_mul`` are not
wrapped: they run hundreds of thousands of times per oracle system and the
wrapper would cost more than they do.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from functools import update_wrapper
from math import gcd
from pathlib import Path
from time import perf_counter

# (layer, module, attribute).  "kernel" is whichever module
# segreml.kernels.kernel selects; the span name is "<layer>.<function>".
FUNCTIONS = (
    ("cli", "segreml.cli", "main"),
    ("cli", "segreml.cli", "canonical_json"),
    ("tensor", "segreml.tensor", "ScalingTensor.from_json_dict"),
    ("exact", "segreml.exact", "parse_rational"),
    ("exact", "segreml.exact", "format_rational"),
    ("exact", "segreml.exact", "rank"),
    ("exact", "segreml.exact", "binary_gcd"),
    ("exact", "segreml.exact", "distinct_root_count"),
    ("euler", "segreml.euler", "mldeg_value"),
    ("euler", "segreml.euler", "mldeg"),
    ("euler", "segreml.euler", "chi_VI"),
    ("euler", "segreml.euler", "chi_VI_XJ"),
    ("euler", "segreml.euler", "mldeg_matrix"),
    ("factors", "segreml.factors", "vanishing_pattern"),
    ("factors", "segreml.factors", "eval_minor"),
    ("factors", "segreml.factors", "eval_hyp222"),
    ("factors", "segreml.factors", "hyp223_vanishes"),
    ("oracle", "segreml.oracle", "oracle_mldeg"),
    ("oracle", "segreml.oracle", "score_system"),
    ("groebner", "segreml.groebner", "groebner_basis"),
    ("groebner", "segreml.groebner", "standard_monomial_count"),
    ("kernel", None, "spair"),
    ("kernel", None, "normal_form"),
    ("kernel", None, "combine"),
    ("realize", "segreml.realize", "realize"),
    ("realize", "segreml.realize", "generic_solution"),
    ("strata", "segreml.strata", "atlas"),
    ("strata", "segreml.strata", "witness_for_stratum"),
    ("strata", "segreml.strata", "sample_sign_patterns"),
)

SPAN_NAMES = tuple(f"{layer}.{attr.rsplit('.', 1)[-1]}" for layer, _, attr in FUNCTIONS)

# Counts read at the same boundaries: (metric, unit, better).
EXTRA_METRICS = (
    ("cli.out_bytes", "bytes", "lower"),
    ("exact.rank.cells", "count", "lower"),
    ("exact.rank.max_bits", "bits", "lower"),
    ("euler.chi_VI_XJ.nonzero_ratio", "ratio", "higher"),
    ("oracle.oracle_mldeg.unstable", "count", "lower"),
    ("groebner.groebner_basis.basis_len_max", "count", "lower"),
    ("groebner.groebner_basis.coeff_bits_max", "bits", "lower"),
    ("kernel.normal_form.zero_ratio", "ratio", "lower"),
    ("kernel.combine.terms", "count", "lower"),
)
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")
SUMS = ("cli.out_bytes", "exact.rank.cells", "oracle.oracle_mldeg.unstable", "kernel.combine.terms")
MAXIMA = ("exact.rank.max_bits", "groebner.groebner_basis.basis_len_max", "groebner.groebner_basis.coeff_bits_max")
RATIOS = {"euler.chi_VI_XJ.nonzero_ratio": "euler.chi_VI_XJ", "kernel.normal_form.zero_ratio": "kernel.normal_form"}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return specs + list(EXTRA_METRICS) + [OVERHEAD_METRIC]


def exact_metric_names() -> list[str]:
    """The per-layer metrics that are counts, which must repeat exactly."""
    return [name for name, unit, _ in metric_specs() if unit != "s" and name != OVERHEAD_METRIC[0]]


def _integer_bits(matrix) -> int:
    """Largest bit length in the matrix after each row is scaled to integers, as rank does."""
    worst = 0
    for row in matrix.entries:
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        for x in row:
            worst = max(worst, abs(x.numerator * (scale // x.denominator)).bit_length())
    return worst


def _count_rank(tracer, args, result):
    matrix = args[0]
    tracer.sums["exact.rank.cells"] += matrix.nrows * matrix.ncols
    tracer.raise_max("exact.rank.max_bits", _integer_bits(matrix))


def _count_chi(tracer, args, result):
    tracer.sums["euler.chi_VI_XJ.nonzero_ratio"] += result != 0


def _count_oracle(tracer, args, result):
    tracer.sums["oracle.oracle_mldeg.unstable"] += not result.stable


def _count_basis(tracer, args, result):
    tracer.raise_max("groebner.groebner_basis.basis_len_max", len(result))
    bits = max((abs(c).bit_length() for poly in result for _, c in poly), default=0)
    tracer.raise_max("groebner.groebner_basis.coeff_bits_max", bits)


def _count_normal_form(tracer, args, result):
    tracer.sums["kernel.normal_form.zero_ratio"] += not result


def _count_combine(tracer, args, result):
    tracer.sums["kernel.combine.terms"] += len(args[0]) + len(args[3])


HOOKS = {
    "exact.rank": _count_rank,
    "euler.chi_VI_XJ": _count_chi,
    "oracle.oracle_mldeg": _count_oracle,
    "groebner.groebner_basis": _count_basis,
    "kernel.normal_form": _count_normal_form,
    "kernel.combine": _count_combine,
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.op_id = -1
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.sums: dict[str, int] = dict.fromkeys(SUMS + tuple(RATIOS), 0)  # a ratio's numerator
        self.maxima: dict[str, int] = dict.fromkeys(MAXIMA, 0)

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        hook = HOOKS.get(name)
        name_id, parent, op, start, end, stack = (
            self.name_id, self.parent, self.op, self.start, self.end, self._stack,
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return update_wrapper(wrapper, fn)

    def summary(self, scales: list[float]) -> tuple[dict[str, float], dict[str, float]]:
        """(counts, self seconds) of this pass, keyed by per-layer metric name.

        Span times of op i are multiplied by scales[i], which puts them at
        reference speed (see speed.py).
        """
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        for i in range(len(start)):
            duration = (end[i] - start[i]) * scales[op[i]]
            calls[name_id[i]] += 1
            self_s[name_id[i]] += duration
            if parent[i] >= 0:
                self_s[name_id[parent[i]]] -= duration
        counts: dict[str, float] = {f"{n}.calls": c for n, c in zip(SPAN_NAMES, calls)}
        counts.update(self.sums)
        counts.update(self.maxima)
        for name, base in RATIOS.items():
            whole = counts[f"{base}.calls"]
            counts[name] = self.sums[name] / whole if whole else 0.0
        return counts, {f"{n}.self_s": s for n, s in zip(SPAN_NAMES, self_s)}


def _segreml_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "segreml" or name.startswith("segreml.")]


@contextmanager
def patched(tracer: Tracer):
    """Route every call of the functions in FUNCTIONS through `tracer` while active."""
    from segreml.kernels import kernel

    undo: list[tuple[object, str, object]] = []
    try:
        for (_, module_name, attr), name in zip(FUNCTIONS, SPAN_NAMES):
            module = kernel if module_name is None else importlib.import_module(module_name)
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                undo.append((cls, meth, raw))
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original)
            for mod in _segreml_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Save every span as one tab-separated line: pass, op, name, parent, start and end in seconds."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("# " + json.dumps({"names": SPAN_NAMES, "columns": ["pass", "op", "name", "parent", "start", "end"]}) + "\n")
        for p, tr in enumerate(tracers):
            origin = tr.start[0] if len(tr.start) else 0.0
            for i in range(len(tr.start)):
                out.write(
                    f"{p}\t{tr.op[i]}\t{SPAN_NAMES[tr.name_id[i]]}\t{tr.parent[i]}\t"
                    f"{tr.start[i] - origin:.7f}\t{tr.end[i] - origin:.7f}\n"
                )
