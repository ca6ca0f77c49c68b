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
from .oracle import DataVector, count_critical_points, oracle_mldeg
from .realize import realize
from .tensor import ScalingTensor

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNSTABLE = 3

# analyze's term table and realize's verification sum 2^(n+1) - 1 slice subsets,
# each a gcd step or a face-class lookup on values built once per tensor; at
# n = 12 analyze takes about 0.7 s and realize about 0.45 s on one core.
SUBSET_SUM_MAX_N = 12
# matrix-mldeg sums the ranks of (2^(m+1) - 1)(2^(n+1) - 1) submatrices of an
# (m+1) x (n+1) matrix; m + n = 12 (a 7 x 7 matrix) is its desk-scale limit.
MATRIX_MLDEG_MAX_DIM = 12
# signs evaluates seven factors per sampled tensor, about 20 us each on one core,
# so the cap is a run of about 20 s.
SIGNS_MAX_SAMPLES = 1_000_000
# oracle counts one score system per trial, about 0.27 s each for a generic n = 3
# tensor (ML degree 20) on one core, so the cap is a run of about 14 s (27 s when
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


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DimensionMismatchError(f"cannot write {path}: {exc}") from exc


def _analyze_payload(W: ScalingTensor) -> dict:
    report = euler.mldeg(W)
    vanishing = report.factor_pattern.factors
    values = factor_values(W)
    factors = []
    for fid in all_factors(W.n):
        entry: dict = {"name": fid.name, "vanishes": fid in vanishing}
        if fid in values:
            entry["value"] = format_rational(values[fid])
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
    if W.n > SUBSET_SUM_MAX_N:
        raise DimensionMismatchError(
            f"analyze enumerates 2^(n+1) - 1 slice subsets and takes n <= {SUBSET_SUM_MAX_N}, "
            f"got n = {W.n}; use `segreml mldeg` for the ML degree at large n"
        )
    payload = _analyze_payload(W)
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        _print_analyze_text(payload)
    return EXIT_OK


def _cmd_mldeg(args) -> int:
    print(euler.mldeg_value(_load_tensor(args.tensor)))
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
    if M.nrows + M.ncols - 2 > MATRIX_MLDEG_MAX_DIM:
        raise DimensionMismatchError(
            f"matrix-mldeg sums the ranks of all submatrices and takes m + n <= "
            f"{MATRIX_MLDEG_MAX_DIM} for an (m+1) x (n+1) matrix, got {M.nrows} x {M.ncols}"
        )
    print(euler.mldeg_matrix(M))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.trials > ORACLE_MAX_TRIALS:
        raise ValueError(f"oracle takes --trials <= {ORACLE_MAX_TRIALS}, got {args.trials}")
    W = _load_tensor(args.tensor)
    if args.data is not None:
        u = DataVector.from_json_dict(_load_json(args.data))
        count = count_critical_points(W, u)
        result = {"count": count, "stable": True, "trials": [[None, count]]}
        sys.stdout.write(canonical_json(result))
        return EXIT_OK
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

    p = sub.add_parser("oracle", help="critical-point count over random primes, independent of the engine (n <= 3)")
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
