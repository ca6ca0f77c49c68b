"""Command-line front end.

Subcommands: analyze, mldeg, matrix-mldeg, oracle, realize, atlas, signs.
All file interchange uses canonical JSON (sorted keys, compact separators,
rationals as "p/q" strings); see schemas/formats.schema.json for the
shapes.  Exit codes: 0 success, 2 invalid input, 3 oracle instability or
exceeded resource budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import euler, strata
from .errors import (
    DimensionMismatchError,
    NotZeroDimensionalError,
    ResourceBudgetExceededError,
    SegremlError,
    UnstableCountError,
)
from .exact import RatMatrix, format_rational, parse_rational
from .factors import all_factors, factor_values
from .oracle import CountResult, DataVector, count_critical_points, oracle_mldeg
from .realize import realize
from .tensor import ScalingTensor

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNSTABLE = 3

# Each size cap below holds for entries whose longest numerator or denominator
# has at most SHORT_ENTRY_BITS bits (about 9 digits).  Longer entries make every
# big-integer product dearer, so each command also has a work function of its
# size and entry bits, fitted to one-core timings from 3- to 600-digit entries,
# and admits an input only while its work at max(bits, SHORT_ENTRY_BITS) stays
# within the work its cap admits at SHORT_ENTRY_BITS.
SHORT_ENTRY_BITS = 32
# analyze's term table and realize's verification sum 2^(n+1) - 1 slice subsets,
# each a gcd step or a face-class lookup on values built once per tensor; at
# n = 12 analyze takes about 0.7 s and realize about 0.45 s on one core.
SUBSET_SUM_MAX_N = 12


def _subset_sum_work(n: int, bits: int) -> int:
    # analyze at n = 8 took 0.026 s with 7-digit entries, 0.31 s with 100 digits,
    # 1.8 s with 300 and 6.7 s with 600
    return 2 ** (n + 1) * (bits + 110) ** 2


# mldeg_value meets every pair of the n + 1 quadrics, O(n^2) work: on generic tensors
# with 7-digit entries it takes about 0.09 s at n = 100, 1.7 s at n = 400 and 8.0 s
# at n = 1000 on one core.  With the longest admitted entries (32-bit numerators
# and denominators) it takes 8.3-8.6 s at n = 850, 9.2-10.3 s at n = 900 and
# 12-13 s at n = 1000, so the cap is a run of about 10 s.
MLDEG_MAX_N = 900


def _mldeg_work(n: int, bits: int) -> int:
    # at n = 50 it took 0.020 s with 7-digit entries, 0.092 s with 30 digits,
    # 0.43 s with 100, 2.8 s with 300 and 9.5 s with 600: a cost per pair
    # that grows about as bits * (bits + 320).  The largest admitted inputs
    # with 30, 100, 300 and 600 digits (n = 465, 204, 82 and 43) took 7.0,
    # 7.4, 7.7 and 7.4 s
    return (n + 1) ** 2 * bits * (bits + 320)


# matrix-mldeg sums the ranks of (2^(m+1) - 1)(2^(n+1) - 1) submatrices of an
# (m+1) x (n+1) matrix; m + n = 12 (a 7 x 7 matrix) is its desk-scale limit.
MATRIX_MLDEG_MAX_DIM = 12


def _matrix_mldeg_work(dim: int, bits: int) -> int:
    # rank scales each row to integers, so its numbers grow with the row and
    # column count times the entry length: with 3-, 100- and 200-digit entries a
    # 7 x 7 matrix took 1.3, 6.2 and 14 s, and with 3 and 300 digits a 6 x 6 one
    # 0.24 and 3.3 s and a 5 x 5 one 0.025 and 0.32 s
    return 2**dim * ((dim + 2) * bits + 3860) ** 2


# signs evaluates seven factors per sampled tensor, about 20 us each on one core,
# so the cap is a run of about 20 s.
SIGNS_MAX_SAMPLES = 1_000_000
# oracle counts one score system per trial, about 0.09 s each for a generic n = 4
# tensor (ML degree 30) on one core, so the cap is a run of about 4.5 s (9 s when
# a disagreement forces the recount).
ORACLE_MAX_TRIALS = 50


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


def _longest_bits(rows) -> int:
    """The most bits of any numerator or denominator in the rows of rationals."""
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for row in rows for v in row)


def _check_size(doing: str, name: str, size: int, cap: int, work, rows) -> None:
    """Refuse an input whose work at its entry length exceeds what `cap` admits with short entries.

    `work(size, bits)` is the command's work function (see SHORT_ENTRY_BITS);
    `doing` says why the work grows with `name`.
    """
    bits = max(_longest_bits(rows), SHORT_ENTRY_BITS)
    budget = work(cap, SHORT_ENTRY_BITS)
    if work(size, bits) <= budget:
        return
    longer = ""
    if bits > SHORT_ENTRY_BITS:
        fits = [s for s in range(cap + 1) if work(s, bits) <= budget]
        longer = f" ({f'{name} <= {fits[-1]}' if fits else f'no {name}'} at its {bits}-bit entries)"
    raise DimensionMismatchError(
        f"{doing} and takes {name} <= {cap} with entries of up to {SHORT_ENTRY_BITS} bits{longer}, got {name} = {size}"
    )


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
    vanishing = report.factor_pattern.factors
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
        "pattern": report.factor_pattern.names(),
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
    _check_size(
        "analyze enumerates 2^(n+1) - 1 slice subsets (use `segreml mldeg` for the ML degree at large n)",
        "n", W.n, SUBSET_SUM_MAX_N, _subset_sum_work, W.w[0] + W.w[1],
    )
    payload = _analyze_payload(W)
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        _print_analyze_text(payload)
    return EXIT_OK


def _cmd_mldeg(args) -> int:
    W = _load_tensor(args.tensor)
    _check_size(
        "mldeg meets every pair of the n + 1 quadrics",
        "n", W.n, MLDEG_MAX_N, _mldeg_work, W.w[0] + W.w[1],
    )
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
    _check_size(
        f"matrix-mldeg sums the ranks of all submatrices of an (m+1) x (n+1) matrix, here {M.nrows} x {M.ncols},",
        "m + n", M.nrows + M.ncols - 2, MATRIX_MLDEG_MAX_DIM, _matrix_mldeg_work, M.entries,
    )
    print(euler.mldeg_matrix(M))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.trials > ORACLE_MAX_TRIALS:
        raise ValueError(f"oracle takes --trials <= {ORACLE_MAX_TRIALS}, got {args.trials}")
    W = _load_tensor(args.tensor)
    if args.data is not None:
        count = count_critical_points(W, DataVector.from_json_dict(_load_json(args.data)))
        result = CountResult(count, True, ((None, count),))
    else:
        result = oracle_mldeg(W, trials=args.trials, seed=args.seed)
    sys.stdout.write(canonical_json(result.to_json_dict()))
    return EXIT_OK if result.stable else EXIT_UNSTABLE


def _cmd_realize(args) -> int:
    if args.n > SUBSET_SUM_MAX_N:
        raise DimensionMismatchError(
            f"realize verifies its tensor by summing 2^(n+1) - 1 slice subsets and takes "
            f"n <= {SUBSET_SUM_MAX_N}, got n = {args.n}"
        )
    try:
        W = realize(args.n, args.r, seed=args.seed)
    except ValueError as exc:
        raise DimensionMismatchError(str(exc)) from exc
    report = euler.mldeg(W)
    payload = {
        "tensor": W.to_json_dict(),
        "verification": {"mldeg": report.mldeg, "pattern": report.factor_pattern.names()},
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
    _write_output(canonical_json(records), args.output)
    if args.csv:
        _write_output("\n".join(csv_lines) + "\n", args.csv)
    return EXIT_OK


def _cmd_signs(args) -> int:
    if args.samples > SIGNS_MAX_SAMPLES:
        raise ValueError(f"signs takes --samples <= {SIGNS_MAX_SAMPLES}, got {args.samples}")
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

    p = sub.add_parser("oracle", help="critical-point count over random primes, independent of the engine (n <= 4)")
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
