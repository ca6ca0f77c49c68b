"""Command-line front end.

Subcommands: analyze, mldeg, matrix-mldeg, oracle, realize, atlas, signs.
All file interchange uses canonical JSON (sorted keys, compact separators,
rationals as "p/q" strings); see src/segreml/schemas/formats.schema.json
for the shapes.  Exit codes: 0 success, 2 invalid input, 3 a count that
failed its own check (oracle instability) or an exceeded resource budget.
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
from collections.abc import Callable
from contextlib import contextmanager

from . import euler, strata
from .errors import (
    DimensionMismatchError,
    NotZeroDimensionalError,
    ResourceBudgetExceededError,
    SegremlError,
    UnstableCountError,
)
from .exact import RatMatrix, Record, format_rational, parse_rational
from .factors import all_factors, factor_values, vanishing_pattern
from .oracle import ORACLE_MAX_N, CountResult, DataVector, count_critical_points, oracle_mldeg
from .realize import realize
from .tensor import ScalingTensor

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNSTABLE = 3

# Admission: one row per command.  `grows` names the input size that drives
# the command's work, `cap` is the largest size admitted with entries whose
# longest numerator or denominator has at most SHORT_ENTRY_BITS bits (about 9
# digits), `work(size, bits)` is the command's cost, and `why` opens the line
# that a refusal prints.  Longer entries make every big-integer product dearer,
# so an input is admitted while its work at max(bits, SHORT_ENTRY_BITS) stays
# within its cap's work at SHORT_ENTRY_BITS (`largest_admitted`).  Each work
# function is fitted to one-core timings (taskset -c 0, Python 3.11.7, x86-64),
# and each row's comment gives the command's time at its cap there.  Admission
# reads the raw entries' bits, not those of the integer view the engines run on
# (factors.integer_slices, reduced by the whole torus): a torus image of a
# short-entry tensor runs at short-entry cost, yet its long entries are refused
# at the frontier that generic entries of that length set.
SHORT_ENTRY_BITS = 32


class Admission(Record):
    __slots__ = ("grows", "cap", "work", "why")
    grows: str
    cap: int
    work: Callable[[int, int], int]
    why: str


ADMISSION = {
    # the term table sums 2^(n+1) - 1 slice subsets, each a memo read, four face-class
    # lookups and, only where its prefix gcd is zero or not constant, one gcd step, on
    # values built once per tensor: 0.20-0.24 s at n = 12 with 32-bit entries; at its
    # frontier 0.21 s at n = 12 with 9 digits, 0.052 s at n = 10 with 30, 0.032 s at
    # n = 8 with 100, 0.072 s at n = 6 with 300 and 0.105 s at n = 4 with 600
    "analyze": Admission("n", 12, lambda n, bits: 2 ** (n + 1) * (bits + 110) ** 2,
                         "analyze sums 2^(n+1) - 1 slice subsets (use `segreml mldeg` for the ML degree at large n)"),
    # every pair of the n + 1 quadrics, at a cost per pair that grows about as
    # bits * (bits + 320): 4.5-5.8 s at n = 900 with 32-bit rationals (2.2-3.6 s with integers); at n = 50
    # 0.011-0.017 s with 7-digit rationals, 0.05-0.07 s with 30, 0.30-0.39 s with 100, 1.9-2.2 s with 300
    # and 6.1-7.8 s with 600, and 4.1-8.5 s at its frontier for 30, 100, 300 and 600 digits (n = 465, 204,
    # 82 and 43): counting pairs per point cut the cap's time more than the frontier's
    "mldeg": Admission("n", 900, lambda n, bits: (n + 1) ** 2 * bits * (bits + 320),
                       "mldeg meets every pair of the n + 1 quadrics"),
    # the ranks of (2^(m+1) - 1)(2^(n+1) - 1) submatrices of an (m+1) x (n+1) matrix,
    # on rows scaled to integers once: 0.35-0.56 s for its slowest shape at m + n = 12,
    # 6 x 8 with 32-bit entries.  Timed against it in alternation, the slowest shape
    # of a size takes as long at about 98 bits for m + n = 11, 225 for 10, 480 for 9,
    # 1,100 for 8, 2,350 for 7, 6,300 for 6 and 14,000 for 5, so each unit of m + n
    # admits entries 7/3 times as long, which puts each size's longest admitted
    # entries at 0.6-0.85 of the cap's time
    "matrix-mldeg": Admission("m + n", 12, lambda dim, bits: 7**dim * bits // 3**dim,
                              "matrix-mldeg sums the ranks of all submatrices of an (m+1) x (n+1) matrix"),
    # one score system per trial, the trials counted in pairs: 0.62-0.98 s, median 0.75 s,
    # for 50 trials on a generic n = 4 tensor (ML degree 30), twice that when a
    # disagreement forces the recount
    "oracle": Admission("--trials", 50, lambda trials, bits: trials, "oracle counts one score system per trial"),
    # the verification sums 2^(n+1) - 1 slice subsets as analyze does: 0.11-0.14 s at n = 12
    "realize": Admission("n", 12, lambda n, bits: 2 ** (n + 1),
                         "realize verifies its tensor by summing 2^(n+1) - 1 slice subsets"),
    # seven factors per sampled tensor, whose entries are as long as --bound, at a cost
    # per sample that grows about as (bits + 80)(bits + 6600): 11.7-13.7 s for 1,000,000
    # samples with --bound 10, 16.5-16.9 s with --bound 10^20, and 9.1 s for 2,000 samples
    # with a 4,000-digit bound; at its cap 15.8-16.7 s with --bound 2^32 - 1, and at its
    # frontier 6.3-7.0 s with 300 digits, 7.7-9.7 s with 600 and 8.5-10.6 s with 4,000
    "signs": Admission("--samples", 1_000_000, lambda samples, bits: samples * (bits + 80) * (bits + 6600),
                       "signs evaluates seven factors per sampled tensor, on entries as long as --bound,"),
}


def largest_admitted(command: str, bits: int) -> int | None:
    """The largest size `command` admits with entries of `bits` bits, or None if it admits none."""
    row = ADMISSION[command]
    budget = row.work(row.cap, SHORT_ENTRY_BITS)
    bits = max(bits, SHORT_ENTRY_BITS)
    fits = bisect.bisect_right(range(row.cap + 1), budget, key=lambda s: row.work(s, bits))
    return fits - 1 if fits else None


def _admit(command: str, size: int, rows=()) -> None:
    """Refuse (exit 2) an input of `size` beyond what `command` admits at the entry length of `rows`."""
    row = ADMISSION[command]
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for r in rows for v in r), default=0)
    largest = largest_admitted(command, bits)
    if largest is not None and size <= largest:
        return
    entries = f" with entries of up to {SHORT_ENTRY_BITS} bits" if rows else ""
    if bits > SHORT_ENTRY_BITS:
        fits = f"{row.grows} <= {largest}" if largest is not None else f"no {row.grows}"
        entries += f" ({fits} at its {bits}-bit entries)"
    raise DimensionMismatchError(f"{row.why} and takes {row.grows} <= {row.cap}{entries}, got {row.grows} = {size}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DimensionMismatchError(f"cannot read JSON from {path}: {exc}") from exc


def _load_tensor(path: str) -> ScalingTensor:
    data = _load_json(path)
    if isinstance(data, dict) and "tensor" in data and "w" not in data:
        data = data["tensor"]  # accept realize/analyze output wrappers
    return ScalingTensor.from_json_dict(data)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DimensionMismatchError(f"cannot write {path}: {exc}") from exc


@contextmanager
def _any_int_length():
    """Lift the interpreter's int-string limit (Python 3.10.7+) for printing computed values.

    Reading input never runs under it: parse_rational caps entries at
    MAX_RATIONAL_DIGITS, and json.load keeps refusing longer JSON integers.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _analyze_payload(W: ScalingTensor) -> dict:
    report = euler.mldeg(W)
    pattern = vanishing_pattern(W)  # after the sum, so it reads the subset gcds the sum memoized
    vanishing = pattern.factors
    factors = []
    # H[k1,k2] carries about 16 times the digits of the entries
    with _any_int_length():
        values = {fid: format_rational(value) for fid, value in factor_values(W).items()}
    for fid in all_factors(W.n):
        entry: dict = {"name": fid.name, "vanishes": fid in vanishing}
        if fid in values:
            entry["value"] = values[fid]
        factors.append(entry)
    chi_table = {}
    for (I, J), value in report.terms.items():
        if J == ((), ()):
            chi_table[f"I={list(I)}"] = value
    return {
        "tensor": W.to_json_dict(),
        "n": W.n,
        "factors": factors,
        "pattern": pattern.names(),
        "pair_types": {f"({i},{j})": t.value for (i, j), t in euler.pair_types(W).items()},
        "chi_V": chi_table,
        "terms": report.term_map_json(),
        "mldeg": report.mldeg,
        "chi_Y": report.chi_Y,
        "degree_bound": euler.degree_bound(W.n),
    }


def _print_analyze_text(payload: dict) -> None:
    print(f"n = {payload['n']}   (degree bound {payload['degree_bound']})")
    print("factors:")
    for entry in payload["factors"]:
        mark = "= 0" if entry["vanishes"] else "!= 0"
        value = entry.get("value")
        shown = f" value {value}" if value is not None else ""
        print(f"  {entry['name']:14s} {mark}{shown}")
    pattern = payload["pattern"]
    print("vanishing pattern:", "{" + ",".join(pattern) + "}" if pattern else "empty")
    print("pair types:", ", ".join(f"{k}:{v}" for k, v in sorted(payload["pair_types"].items())))
    print("chi(V_I):", ", ".join(f"{k}:{v}" for k, v in sorted(payload["chi_V"].items())))
    print(f"mldeg = {payload['mldeg']}   chi(Y) = {payload['chi_Y']}")


def _cmd_analyze(args) -> int:
    W = _load_tensor(args.tensor)
    _admit("analyze", W.n, W.w[0] + W.w[1])
    payload = _analyze_payload(W)
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        _print_analyze_text(payload)
    return EXIT_OK


def _cmd_mldeg(args) -> int:
    W = _load_tensor(args.tensor)
    _admit("mldeg", W.n, W.w[0] + W.w[1])
    print(euler.mldeg_value(W))
    return EXIT_OK


def _cmd_matrix_mldeg(args) -> int:
    data = _load_json(args.matrix)
    entries = data.get("entries") if isinstance(data, dict) else None
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise DimensionMismatchError('matrix JSON must be {"entries": a list of rows, each a list of rational strings}')
    try:
        rows = [[parse_rational(x) for x in row] for row in entries]
    except ValueError as exc:
        raise DimensionMismatchError(f"bad matrix JSON: {exc}") from exc
    M = RatMatrix.from_rows(rows)
    _admit("matrix-mldeg", M.nrows + M.ncols - 2, M.entries)
    print(euler.mldeg_matrix(M))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.data is None:  # only the random-data path reads --trials
        _admit("oracle", args.trials)
        result = oracle_mldeg(_load_tensor(args.tensor), trials=args.trials, seed=args.seed)
    else:
        W = _load_tensor(args.tensor)
        count = count_critical_points(W, DataVector.from_json_dict(_load_json(args.data)))
        result = CountResult(count, True, ((None, count),))
    sys.stdout.write(canonical_json(result.to_json_dict()))
    return EXIT_OK if result.stable else EXIT_UNSTABLE


def _cmd_realize(args) -> int:
    _admit("realize", args.n)
    W = realize(args.n, args.r, seed=args.seed)
    report = euler.mldeg(W)
    payload = {
        "tensor": W.to_json_dict(),
        "verification": {"mldeg": report.mldeg, "pattern": vanishing_pattern(W).names()},
    }
    _write_output(canonical_json(payload), args.output)
    return EXIT_OK


def _cmd_atlas(args) -> int:
    records = []
    csv_lines = ["pattern,chi"]
    for stratum, witness in strata.atlas(seed=args.seed):
        records.append(
            {
                "pattern": stratum.pattern.names(),
                "chi": stratum.chi,
                "symmetry_class": stratum.symmetry_class,
                "recipe": stratum.witness_recipe,
                "witness": witness.to_json_dict(),
            }
        )
        csv_lines.append("{" + " ".join(stratum.pattern.names()) + "}," + str(stratum.chi))
    writes = [(canonical_json(records), args.output)]
    if args.csv:
        writes.append(("\n".join(csv_lines) + "\n", args.csv))
    # files first, so a destination that cannot be written fails before anything reaches stdout
    for text, path in sorted(writes, key=lambda write: write[1] in (None, "-")):
        _write_output(text, path)
    return EXIT_OK


def _cmd_signs(args) -> int:
    _admit("signs", args.samples, [[args.bound]])
    counts = strata.sample_sign_patterns(args.samples, args.bound, seed=args.seed)
    negative = sorted(p for p in counts if p.endswith("-"))
    payload = {
        "samples": args.samples,
        "bound": args.bound,
        "seed": args.seed,
        "order": [f.name for f in strata.SIGN_FACTOR_ORDER],
        "patterns": counts,
        "distinct": len(counts),
        "negative_h": negative,
    }
    _write_output(canonical_json(payload), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segreml",
        description="Exact ML degrees and Euler stratification of scaled Segre products P1 x P1 x Pn.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full factor/chi/mldeg report for a tensor")
    p.add_argument("tensor")
    p.add_argument("--json", action="store_true", help="canonical JSON instead of text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mldeg", help="print the ML degree only")
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_mldeg)

    p = sub.add_parser("matrix-mldeg", help="ML degree of a two-simplex scaling matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_matrix_mldeg)

    p = sub.add_parser("oracle", help=f"critical-point count over random primes, independent of the engine (n <= {ORACLE_MAX_N})")
    p.add_argument("tensor")
    p.add_argument("--data", help="data-vector JSON; otherwise random trials are drawn")
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("realize", help="construct a tensor with prescribed ML degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("atlas", help="export the 41-stratum atlas with verified witnesses")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--csv", help="also write a pattern,chi summary")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("signs", help="sample sign patterns of the seven n=1 factors")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_signs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotZeroDimensionalError, ResourceBudgetExceededError, UnstableCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (SegremlError, ValueError) as exc:  # every other package error is an input problem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
