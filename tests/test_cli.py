from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from segreml import factors
from segreml.cli import ADMISSION, build_parser, largest_admitted, main
from segreml.exact import MAX_RATIONAL_DIGITS
from segreml.factors import factor_values
from segreml.realize import realize
from segreml.tensor import ScalingTensor

from helpers import (
    COUNTEREXAMPLE_W,
    COUNTEREXAMPLE_W_PRIME,
    HOOK_EXAMPLE,
    degenerate_tensor,
    schema_validator,
    tall_torus_image,
)

W313 = {"n": 2, "w": [[["1", "2", "3"], ["3", "1", "4"]], [["2", "4", "6"], ["4", "6", "10"]]]}
ONES1 = {"n": 1, "w": [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]]}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_mldeg_counterexample(tmp_path, capsys):
    path = _write(tmp_path, "w.json", W313)
    assert main(["mldeg", path]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_analyze_all_ones(tmp_path, capsys):
    path = _write(tmp_path, "ones.json", ONES1)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "mldeg = 1" in out
    assert out.count("= 0") == 7  # all seven factors vanish


def test_analyze_json_round_trips(tmp_path, capsys):
    path = _write(tmp_path, "w.json", W313)
    assert main(["analyze", path, "--json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["mldeg"] == 8 and payload["chi_Y"] == -8
    # re-analyze the embedded tensor: byte-identical canonical output
    again = _write(tmp_path, "again.json", payload["tensor"])
    assert main(["analyze", again, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_zero_entry_exit_code(tmp_path, capsys):
    bad = {"n": 1, "w": [[["0", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]]}
    path = _write(tmp_path, "bad.json", bad)
    assert main(["mldeg", path]) == 2
    assert "zero" in capsys.readouterr().err


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_json_exit_code(tmp_path, capsys):
    texts = (
        "{not json",
        '{"n": 1, "w": {"a": 1}}',
        '{"n": 1, "w": [{"a": 1}, [1, 2]]}',
        '{"n": 1e400, "w": []}',
        # rationals outside the schema's p or p/q (q > 0)
        '{"n": 1, "w": [[["1/0", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]]}',
        '{"n": 1, "w": [[["1e5", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]]}',
        '{"n": 1, "w": [[["0.5", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]]}',
        # n must be a JSON integer, and w must match it exactly
        '{"n": 1.7, "w": [[["1", "2"], ["1", "2"]], [["1", "7"], ["1", "2"]]]}',
        '{"n": true, "w": [[["1", "2"], ["1", "2"]], [["1", "7"], ["1", "2"]]]}',
        '{"n": "1", "w": [[["1", "2"], ["1", "2"]], [["1", "7"], ["1", "2"]]]}',
        '{"n": 1, "w": [[["1", "2", "3"], ["1", "2", "5"]], [["1", "7", "3"], ["1", "2", "3"]]]}',
        '{"n": 1, "w": [[["1", "2"], ["1", "2"], ["3", "4"]], [["1", "7"], ["1", "2"]]]}',
        '{"n": 1, "w": [[["1", "2"], ["1", "2"]], [["1", "7"], ["1", "2"]], [["1", "1"], ["1", "1"]]]}',
        # leaves must be rational strings, not JSON numbers
        '{"n": 1, "w": [[[1, 2], [1, 2]], [[1, 7], [1, 2]]]}',
        '{"n": 1, "w": [[["1", "2"], ["1", "2"]], [["1", 7], ["1", "2"]]]}',
    )
    for k, text in enumerate(texts):
        path = tmp_path / f"broken{k}.json"
        path.write_text(text)
        assert main(["mldeg", str(path)]) == 2
        _assert_one_error_line(capsys)
    matrices = (
        {"entries": [["1", "1/0"], ["2", "3"]]},
        {"entries": ["12", "35"]},  # strings are not rows of characters
        {"entries": [[1, 2], [3, 5]]},
        {"entries": {"12": "35"}},
        ["1", "2"],
    )
    for k, doc in enumerate(matrices):
        matrix = _write(tmp_path, f"m{k}.json", doc)
        assert main(["matrix-mldeg", matrix]) == 2
        _assert_one_error_line(capsys)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")
_BAD_LEAVES = ("1.5", "true", "null", "{}", "1e400", '""')


def _shaped(value, shape, leaf) -> bool:
    """Whether value is nested lists of exactly `shape` whose leaves all pass `leaf`."""
    if not shape:
        return leaf(value)
    return isinstance(value, list) and len(value) == shape[0] and all(_shaped(v, shape[1:], leaf) for v in value)


def _first_lengths(value, depth):
    """(len(value), len(value[0]), ...) down `depth` levels, or None when a level is not a nonempty list."""
    dims = []
    for _ in range(depth):
        if not isinstance(value, list) or not value:
            return None
        dims.append(len(value))
        value = value[0]
    return tuple(dims)


def _exact_shape(kind, doc) -> bool:
    """Whether a document has exactly the shape schemas/formats.schema.json gives its kind."""
    rational = lambda x: isinstance(x, str) and _RATIONAL.fullmatch(x) is not None
    if kind == "tensor":
        n = doc.get("n")
        return type(n) is int and n >= 1 and _shaped(doc.get("w"), (2, 2, n + 1), rational)
    if kind == "matrix":
        dims = _first_lengths(doc.get("entries"), 2)
        return dims is not None and _shaped(doc["entries"], dims, rational)
    dims = _first_lengths(doc.get("u"), 3)
    count = lambda x: type(x) is int and x >= 1
    return dims is not None and dims[:2] == (2, 2) and _shaped(doc["u"], dims, count)


def _nodes(value, path=()):
    """(path, value) of every node of a JSON value, the value itself first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(rng, kind, doc) -> str:
    """One random mutation of a document, as JSON text."""
    doc = copy.deepcopy(doc)
    marker = "@@mutated@@"
    choice = rng.random()
    if kind == "tensor" and choice < 0.25:
        n, doc["n"] = doc["n"], marker
        raw = rng.choice((str(n + 1), str(n - 1), "1.5", "true", '"1"'))
    elif choice < 0.6:
        target = rng.choice([v for _, v in _nodes(doc) if isinstance(v, list)])
        k = rng.randrange(len(target))
        if rng.random() < 0.5:
            del target[k]
        else:
            target.insert(k, copy.deepcopy(target[k]))
        return json.dumps(doc)
    else:
        *head, last = rng.choice([p for p, v in _nodes(doc) if not isinstance(v, (dict, list))])
        _at(doc, head)[last] = marker
        raw = rng.choice(_BAD_LEAVES)
    return json.dumps(doc).replace(f'"{marker}"', raw)


def _mutate_several(draw, kind, doc) -> str:
    """2-4 mutations of a document, one after the other, as JSON text; `draw` is hypothesis's.

    A mutation moves n by one, deletes or duplicates a list item, or puts raw
    JSON text in place of a leaf, a valid leaf of the kind among them (a
    nonzero rational, or a count for data) so that some documents keep their
    exact shape; raw texts replace their markers last.
    """
    valid = ("7", "12", "1", "0", "-2") if kind == "data" else ('"-3/6"', '"22/7"', '"-1"')
    doc = copy.deepcopy(doc)
    raws = {}
    for step in range(draw(st.integers(2, 4))):
        marker = f"@@mutated{step}@@"
        lists = [v for _, v in _nodes(doc) if isinstance(v, list) and v]
        leaves = [p for p, v in _nodes(doc) if not isinstance(v, (dict, list))]
        op = draw(st.sampled_from(("n", "delete", "duplicate", "leaf", "leaf")))
        if op == "n" and type(doc.get("n")) is int:
            raws[marker] = str(doc["n"] + draw(st.sampled_from((-1, 1))))
            doc["n"] = marker
        elif op in ("delete", "duplicate") and lists:
            target = draw(st.sampled_from(lists))
            k = draw(st.integers(0, len(target) - 1))
            if op == "delete":
                del target[k]
            else:
                target.insert(k, copy.deepcopy(target[k]))
        elif leaves:
            *head, last = draw(st.sampled_from(leaves))
            _at(doc, head)[last] = marker
            raws[marker] = draw(st.sampled_from(_BAD_LEAVES + valid))
    text = json.dumps(doc)
    for marker, raw in raws.items():
        text = text.replace(f'"{marker}"', raw)
    return text


def test_mutated_documents_exit_0_only_with_the_exact_shape(tmp_path, capsys):
    """Seeded fuzz over tensor, matrix and data documents: exit 2 with one error line, or exit 0 on an exact shape."""
    from segreml.errors import SegremlError
    from segreml.oracle import DataVector

    bases = [
        ("tensor", ONES1),
        ("tensor", W313),
        ("tensor", realize(3, 14, seed=2).to_json_dict()),
        ("matrix", {"entries": [["1", "2", "3"], ["5", "7", "11"]]}),
        ("matrix", _hilbert(3)),
        ("data", {"u": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]}),
        ("data", {"u": [[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [1, 1, 1]]]}),
    ]
    rng = random.Random(2024)
    path = tmp_path / "doc.json"
    answered = refused = 0
    for trial in range(300):
        kind, base = bases[trial % len(bases)]
        text = _mutate(rng, kind, base)
        doc = json.loads(text)
        exact = _exact_shape(kind, doc)
        if kind == "data":
            try:
                DataVector.from_json_dict(doc)
            except (SegremlError, ValueError):
                assert not exact, text
                refused += 1
            else:
                assert exact, text
                answered += 1
            continue
        path.write_text(text)
        rc = main(["mldeg" if kind == "tensor" else "matrix-mldeg", str(path)])
        captured = capsys.readouterr()
        if rc == 0:
            assert exact, text
            answered += 1
        else:
            assert rc == 2 and not exact, (rc, text)
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, text
            refused += 1
    assert answered >= 10 and refused >= 200


def test_documents_with_several_mutations_exit_0_only_with_the_exact_shape(tmp_path, capsys):
    """Hypothesis fuzz: 2-4 mutations per tensor or matrix document, read by analyze, mldeg, oracle and matrix-mldeg."""
    bases = [
        ("tensor", ONES1),
        ("tensor", W313),
        ("tensor", realize(3, 14, seed=2).to_json_dict()),
        ("matrix", {"entries": [["1", "2", "3"], ["5", "7", "11"]]}),
        ("matrix", _hilbert(3)),
    ]
    path = str(tmp_path / "doc.json")
    seen = set()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        kind, doc = data.draw(st.sampled_from(bases))
        text = _mutate_several(data.draw, kind, doc)
        exact = _exact_shape(kind, json.loads(text))
        Path(path).write_text(text)
        if kind == "matrix":
            commands = [["matrix-mldeg", path]]
        else:
            commands = [["analyze", path, "--json"], ["mldeg", path]]
            commands += [["oracle", path, "--trials", "2"]] if doc["n"] == 1 else []
        for argv in commands:
            rc = main(argv)
            captured = capsys.readouterr()
            seen.add((argv[0], rc))
            if rc == 0:
                assert exact, (argv, text)
            else:
                assert rc == 2 and not exact, (argv, rc, text)
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (argv, text)

    check()
    # every consumer both answered and refused some document
    assert seen == {(command, rc) for command in ("analyze", "mldeg", "oracle", "matrix-mldeg") for rc in (0, 2)}


def test_data_vectors_with_several_mutations_exit_0_only_with_the_exact_shape(tmp_path, capsys):
    """Hypothesis fuzz: 2-4 mutations per data document, read by oracle --data over a generic n = 1 tensor."""
    bases = [{"u": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]}, {"u": [[[3, 1], [4, 1]], [[5, 9], [2, 6]]]}]
    tensor = _write(tmp_path, "generic.json", realize(1, 6, seed=1).to_json_dict())
    path = str(tmp_path / "u.json")
    seen = set()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        text = _mutate_several(data.draw, "data", data.draw(st.sampled_from(bases)))
        doc = json.loads(text)
        # the tensor has n = 1, so its data vector is exactly 2 x 2 x 2
        exact = _exact_shape("data", doc) and _first_lengths(doc["u"], 3) == (2, 2, 2)
        Path(path).write_text(text)
        rc = main(["oracle", tensor, "--data", path])
        captured = capsys.readouterr()
        seen.add(rc)
        if rc == 0:
            assert exact, text
        else:
            assert rc == 2 and not exact, (rc, text)
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, text

    check()
    assert seen == {0, 2}


def test_malformed_data_vector_exit_code(tmp_path, capsys):
    tensor = _write(tmp_path, "ones.json", ONES1)
    texts = (
        '{"v": 1}',
        '{"u": 5}',
        "[1]",
        '{"u": [[[1e400, 1], [1, 1]], [[1, 1], [1, 1]]]}',
        '{"u": [[[1.7, 1], [1, 1]], [[1, 1], [1, 1]]]}',
        '{"u": [[[true, 1], [1, 1]], [[1, 1], [1, 1]]]}',
    )
    for k, text in enumerate(texts):
        data = tmp_path / f"u{k}.json"
        data.write_text(text)
        assert main(["oracle", tensor, "--data", str(data)]) == 2
        _assert_one_error_line(capsys)


def test_analyze_limit_points_to_mldeg(tmp_path, capsys):
    ones13 = _write(tmp_path, "ones13.json", {"n": 13, "w": [[["1"] * 14] * 2] * 2})
    start = time.perf_counter()
    assert main(["analyze", ones13, "--json"]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "segreml mldeg" in err
    big = _write(tmp_path, "n24.json", realize(24, 650, seed=1).to_json_dict())
    assert main(["mldeg", big]) == 0
    assert capsys.readouterr().out == "650\n"


# sha256 of `segreml analyze --json` stdout: factor values, pattern, pair
# types, the chi(V_I) and term tables and the ML degree.
ANALYZE_DIGESTS = {
    "COUNTEREXAMPLE_W": "1f65f29ddcda133e3fd322387a055a0ded1af38a7c773b49bf3be8880b1b97d6",
    "COUNTEREXAMPLE_W_PRIME": "b7a011a65a39b8646482b9c58166f550cc17f1cc3901aa7aba5fc0a05b56efaf",
    "HOOK_EXAMPLE": "300884a5181144e920c14e4be7baa97c8644052dc4917ead9ce3bfd1cc76f825",
    "degenerate_tensor(Random(0), 4)": "509eec31b0405820398fe2b687a03f9c800f0ceede00e51a699446ae7ffb24e5",
    "degenerate_tensor(Random(1), 4)": "c6ebbc8ea95a05d65124b24a949ce35d6752a5e0368f12e758af257e65adcd2b",
    "degenerate_tensor(Random(2), 4)": "796af7dc9e65496d06f2326dcf976237cdddcd362029d7a47551ac0fef3b5bd0",
    "realize(8, 45, seed=1)": "16e1c8f5c922df1ab330e80574cdacf5e6652a8fb5bfeb16fb1d78fb92375933",
    "torus_rescale(realize(4, 30, seed=1), 100-digit scalars)": "c75c9e9add1698f1e01d64e98b346bf7a4537655666562dbc793a64b3f556a46",
}


def test_analyze_output_is_pinned(tmp_path, capsys):
    tensors = {"COUNTEREXAMPLE_W": COUNTEREXAMPLE_W, "COUNTEREXAMPLE_W_PRIME": COUNTEREXAMPLE_W_PRIME, "HOOK_EXAMPLE": HOOK_EXAMPLE}
    for s in range(3):
        tensors[f"degenerate_tensor(Random({s}), 4)"] = degenerate_tensor(random.Random(s), 4)
    # most subset gcds extend a constant prefix here
    tensors["realize(8, 45, seed=1)"] = realize(8, 45, seed=1)
    # factor values with hundreds of digits, printed from the torus-reduced view by the cell scales
    name = "torus_rescale(realize(4, 30, seed=1), 100-digit scalars)"
    tensors[name] = tall_torus_image(realize(4, 30, seed=1), random.Random(100), 100)
    for name, W in tensors.items():
        path = _write(tmp_path, "t.json", W.to_json_dict())
        assert main(["analyze", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_DIGESTS[name], name


def test_analyze_takes_one_gcd_per_slice_subset(tmp_path, capsys, monkeypatch):
    # chi(V_I) and the 2x2x3 factors read one subset-gcd table: one gcd for each
    # subset of two or more slices whose prefix gcd is zero or not constant (a
    # nonzero constant prefix is the subset's gcd), none for any other subset and
    # none more for the triples.
    gcd = factors.binary_gcd
    calls = []

    def counted(forms):
        calls.append(forms)
        return gcd(forms)

    monkeypatch.setattr(factors, "binary_gcd", counted)
    for r in (10, 17, 30):
        W = realize(4, r, seed=1)
        subsets = [ks for size in range(2, 6) for ks in itertools.combinations(range(5), size)]
        heads = [factors.subset_gcd(W, ks[:-1]) for ks in subsets]  # read from W's memo
        expected = sum(g.is_zero or g.degree > 0 for g in heads)
        assert expected < len(subsets), r  # some prefix is a nonzero constant
        path = _write(tmp_path, "t.json", W.to_json_dict())
        calls.clear()
        assert main(["analyze", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["mldeg"] == r
        assert len(calls) == expected, r


def test_mldeg_size_limit(tmp_path, capsys):
    big = _write(tmp_path, "ones901.json", {"n": 901, "w": [[["1"] * 902] * 2] * 2})
    start = time.perf_counter()
    assert main(["mldeg", big]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "n <= 900" in err
    ones24 = _write(tmp_path, "ones24.json", {"n": 24, "w": [[["1"] * 25] * 2] * 2})
    assert main(["mldeg", ones24]) == 0
    assert capsys.readouterr().out == "1\n"


def test_realize_size_limit(capsys):
    # realize's verification sums 2^(n+1) - 1 slice subsets, like analyze's term table
    start = time.perf_counter()
    assert main(["realize", "--n", "13", "--r", "3"]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "n <= 12" in err


def test_oracle_trials_limit(tmp_path, capsys):
    path = _write(tmp_path, "ones.json", ONES1)
    start = time.perf_counter()
    assert main(["oracle", path, "--trials", "1000000000"]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--trials <= 50" in err


def test_oracle_data_reads_no_trials(tmp_path, capsys):
    # --trials drives only the random-data path, so --data admits any value of it
    tensor = _write(tmp_path, "ones.json", ONES1)
    data = _write(tmp_path, "u.json", {"u": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]})
    assert main(["oracle", tensor, "--data", data, "--trials", "1000000000"]) == 0
    assert capsys.readouterr().out == '{"count":1,"stable":true,"trials":[[null,1]]}\n'


def test_matrix_mldeg(tmp_path, capsys):
    path = _write(tmp_path, "m.json", {"entries": [["1", "2", "3"], ["5", "7", "11"]]})
    assert main(["matrix-mldeg", path]) == 0
    assert capsys.readouterr().out.strip() == "3"


def _hilbert(size):
    # a Cauchy matrix: every minor is nonzero, so the ML degree is binomial(m + n, m)
    return {"entries": [[f"1/{i + j + 1}" for j in range(size)] for i in range(size)]}


def test_matrix_mldeg_size_limit(tmp_path, capsys):
    big = _write(tmp_path, "h8.json", _hilbert(8))
    start = time.perf_counter()
    assert main(["matrix-mldeg", big]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "m + n <= 12" in err
    largest = _write(tmp_path, "h7.json", _hilbert(7))
    assert main(["matrix-mldeg", largest]) == 0
    assert capsys.readouterr().out == "924\n"


def _readme_cli_options():
    """{subcommand: long options} from the synopsis block under README's CLI heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        synopsis = line.split("#", 1)[0]
        if synopsis.startswith("segreml "):
            command = synopsis.split()[1]
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z][a-z-]*", synopsis))
    return options


def test_readme_synopsis_matches_parser():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    parsed = {
        name: {s for action in sub._actions for s in action.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in subparsers.items()
    }
    assert _readme_cli_options() == parsed


def test_readme_admission_table_matches_cli():
    # README's cap table restates cli.ADMISSION; both columns of frontiers come from cli.largest_admitted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("| command | what grows |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    table = {}
    for line in lines:
        command, grows, *sizes = (cell.strip().strip("`") for cell in line.strip("|").split("|")[:5])
        table[command] = (grows, *(int(size.replace(",", "")) for size in sizes))
    bits = [(10**digits - 1).bit_length() for digits in (300, 600)]
    assert bits == [997, 1994]
    assert table == {
        command: (row.grows, row.cap, *(largest_admitted(command, b) for b in bits))
        for command, row in ADMISSION.items()
    }


def test_realize_and_oracle_flow(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["realize", "--n", "1", "--r", "4", "--seed", "3", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verification"]["mldeg"] == 4
    assert main(["oracle", str(out), "--trials", "2", "--seed", "1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["count"] == 4 and result["stable"] is True


def test_oracle_with_fixed_data(tmp_path, capsys):
    tensor = _write(tmp_path, "ones.json", ONES1)
    data = _write(tmp_path, "u.json", {"u": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]})
    assert main(["oracle", tensor, "--data", data]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_oracle_data_primes_must_agree(tmp_path, capsys, monkeypatch):
    import random

    import segreml.oracle
    from helpers import COUNTEREXAMPLE_W
    from segreml.oracle import DataVector

    tensor = _write(tmp_path, "w.json", COUNTEREXAMPLE_W.to_json_dict())
    u = DataVector.random(2, random.Random(random.Random(1).randrange(2**32)))
    data = _write(tmp_path, "u.json", {"u": u.u})
    assert main(["oracle", tensor, "--data", data]) == 0
    assert capsys.readouterr().out == '{"count":8,"stable":true,"trials":[[null,8]]}\n'
    # over F_59 this system has 5 solutions (see test_oracle.py), so the two primes disagree
    honest = segreml.oracle.random_prime
    draws = iter([59])
    monkeypatch.setattr(segreml.oracle, "random_prime", lambda rng: next(draws, None) or honest(rng))
    assert main(["oracle", tensor, "--data", data]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_realize_out_of_range(capsys):
    assert main(["realize", "--n", "1", "--r", "7"]) == 2
    assert capsys.readouterr() == ("", "error: r must be in [1, 6] for n = 1\n")


def test_unwritable_output_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["realize", "--n", "2", "--r", "3", "-o", str(missing / "x.json")]) == 2
    _assert_one_error_line(capsys)
    assert main(["atlas", "--csv", str(missing / "x.csv")]) == 2
    _assert_one_error_line(capsys)
    assert main(["signs", "--samples", "10", "--bound", "3", "-o", str(tmp_path)]) == 2
    _assert_one_error_line(capsys)


def test_atlas_and_signs(tmp_path, capsys):
    atlas_path = tmp_path / "atlas.json"
    csv_path = tmp_path / "atlas.csv"
    assert main(["atlas", "-o", str(atlas_path), "--csv", str(csv_path)]) == 0
    records = json.loads(atlas_path.read_text())
    assert len(records) == 41
    assert csv_path.read_text().splitlines()[0] == "pattern,chi"

    signs_path = tmp_path / "signs.json"
    assert main(["signs", "--samples", "3000", "--bound", "25", "--seed", "2", "-o", str(signs_path)]) == 0
    signs = json.loads(signs_path.read_text())
    assert signs["distinct"] == len(signs["patterns"])
    assert all(p.endswith("-") for p in signs["negative_h"])


def test_signs_admission(tmp_path, capsys):
    # entries are drawn without a list of the 2 * bound values, so any bound answers
    assert main(["signs", "--samples", "5", "--bound", "100000000000000000000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["patterns"].values()) <= 5 and payload["bound"] == 10**20
    start = time.perf_counter()
    assert main(["signs", "--samples", "100000000", "--bound", "5"]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--samples <= 1000000" in err
    # the seeded tally is the one the former list-based draw gave
    assert main(["signs", "--samples", "60", "--bound", "3", "--seed", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["patterns"] == {
        "++--++-": 7, "-------": 1, "-+-+-++": 4, "++++---": 6, "++-++++": 1, "--++++-": 2, "+-+++++": 1,
        "-++---+": 1, "--+++-+": 1, "+-+-+-+": 2, "+-+-+++": 1, "+--++-+": 2, "+-++-++": 1, "+--+-++": 1,
        "-+-++++": 1, "+-+--++": 1, "+++-+-+": 1, "-+--+-+": 1, "--+-+-+": 1,
    }


def test_signs_admission_reads_the_bound(capsys):
    # each sample's products grow with the bound's length: a million samples at 4,000 digits would take about an hour
    start = time.perf_counter()
    assert main(["signs", "--samples", "1000000", "--bound", "1" + "0" * 3999]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "-bit entries" in err, err


def _tall_entries(rng, count, digits):
    """`count` rational strings whose numerator and denominator have `digits` digits."""
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    return [f"{rng.choice(('-', ''))}{rng.randint(lo, hi)}/{rng.randint(lo, hi)}" for _ in range(count)]


def _tall_tensor(rng, n, digits):
    e = iter(_tall_entries(rng, 4 * (n + 1), digits))
    return {"n": n, "w": [[[next(e) for _ in range(n + 1)] for _ in range(2)] for _ in range(2)]}


def test_analyze_prints_values_longer_than_the_int_string_limit(tmp_path, capsys):
    # with 300-digit entries H[k1,k2] has about 4,800 digits, beyond the
    # interpreter's default limit for turning an int into a string
    doc = _tall_tensor(random.Random(5), 2, 300)
    path = _write(tmp_path, "tall.json", doc)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert main(["analyze", path]) == 0
    assert "mldeg = 12" in capsys.readouterr().out
    assert main(["analyze", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        values = {fid.name: value for fid, value in factor_values(ScalingTensor.from_json_dict(doc)).items()}
        printed = {f["name"]: Fraction(f["value"]) for f in payload["factors"] if "value" in f}
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert printed == values
    assert max(len(f["value"]) for f in payload["factors"] if "value" in f) > 4300
    # entries themselves are capped by the reader, whatever the interpreter's limit
    doc["w"][0][0][0] = "9" * (MAX_RATIONAL_DIGITS + 1)
    assert main(["analyze", _write(tmp_path, "long.json", doc), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"more than {MAX_RATIONAL_DIGITS} digits" in captured.err


def test_size_caps_shrink_with_entry_length(tmp_path, capsys):
    rng = random.Random(3)
    slow = (
        (["mldeg"], _tall_tensor(rng, 100, 300)),
        (["analyze", "--json"], _tall_tensor(rng, 12, 300)),
        (["matrix-mldeg"], {"entries": [_tall_entries(rng, 7, 300) for _ in range(7)]}),
    )
    for argv, doc in slow:
        path = _write(tmp_path, "slow.json", doc)
        start = time.perf_counter()
        assert main([argv[0], path, *argv[1:]]) == 2
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "-bit entries" in err, err
    path = _write(tmp_path, "short.json", _tall_tensor(rng, 100, 7))
    assert main(["mldeg", path]) == 0
    assert capsys.readouterr().out == f"{101 * 102}\n"


def test_outputs_validate_against_the_schema(tmp_path, capsys):
    tensor = _write(tmp_path, "w.json", W313)
    data = _write(tmp_path, "u.json", {"u": [[[3, 1, 4], [1, 5, 9]], [[2, 6, 5], [3, 5, 8]]]})
    runs = (
        ("analyzeReport", ["analyze", tensor, "--json"]),
        ("realizeOutput", ["realize", "--n", "2", "--r", "7"]),
        ("atlas", ["atlas"]),
        ("signs", ["signs", "--samples", "300", "--bound", "5"]),
        ("countResult", ["oracle", tensor, "--trials", "2"]),
        ("countResult", ["oracle", tensor, "--data", data]),
    )
    for name, argv in runs:
        assert main(argv) == 0, argv
        schema_validator(name).validate(json.loads(capsys.readouterr().out))
