"""The 2 x 2 x (n+1) scaling tensor and its JSON interchange.

Index convention: w[i][j][k] with i, j in {0, 1} and k in {0, ..., n}.
A *slice* is the 2x2 matrix at fixed k,

    W[..k] = [[w00k, w01k], [w10k, w11k]],

the 2x2 face submatrices at a pair k1 < k2 are

    W[i.(k1,k2)] = [[w_i0k1, w_i1k1], [w_i0k2, w_i1k2]],
    W[.j(k1,k2)] = [[w_0jk1, w_1jk1], [w_0jk2, w_1jk2]],

and the coefficient list of the k-th bilinear quadric

    q_k = w00k x0 y0 + w01k x0 y1 + w10k x1 y0 + w11k x1 y1

is exactly slice k.  All entries must be nonzero.

The canonical JSON interchange format is
    {"n": <int>, "w": [[[...], [...]], [[...], [...]]]}
with w[i][j][k] rational strings ("p/q" or "p").  The shape is exact: n
is a JSON integer (not a boolean) and w holds exactly 2 x 2 lists of
n + 1 entries each; anything else is refused, never truncated.

Each tensor carries a private memo of values derived from w, which only
`factors` fills, on first use through `memo`, and `euler` reads through
`factors`.  It lives and dies with the tensor and takes no part in ==,
hash, repr or JSON.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import DimensionMismatchError, ZeroEntryError
from .exact import Record, format_rational, parse_rational


class ScalingTensor(Record):
    """Immutable 2 x 2 x (n+1) tensor of nonzero rationals."""

    # _memo is a slot but not a field: it is not annotated here, so it
    # takes no part in ==, hash or repr.
    __slots__ = ("n", "w", "_memo")
    n: int
    w: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, n: int, w: tuple[tuple[tuple[Fraction, ...], ...], ...]) -> None:
        if n < 1:
            raise DimensionMismatchError("n must be at least 1")
        if len(w) != 2 or any(len(plane) != 2 for plane in w):
            raise DimensionMismatchError("tensor must be 2 x 2 x (n+1)")
        for i in range(2):
            for j in range(2):
                if len(w[i][j]) != n + 1:
                    raise DimensionMismatchError("tensor must be 2 x 2 x (n+1)")
                for k, value in enumerate(w[i][j]):
                    if value == 0:
                        raise ZeroEntryError(i, j, k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_memo", {})

    # -- construction ------------------------------------------------------

    @classmethod
    def from_entries(cls, n: int, entries) -> ScalingTensor:
        """Validate and build from a nested [2][2][n+1] numeric layout; any other shape is refused.

        An entry that is a Fraction already is kept as it is, not copied.
        """
        try:
            w = tuple(
                tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in plane) for plane in entries
            )
        except TypeError as exc:
            raise DimensionMismatchError("tensor entries must be indexed [2][2][n+1]") from exc
        return cls(n, w)

    @classmethod
    def from_slices(cls, slices: Sequence[Sequence[Sequence]]) -> ScalingTensor:
        """Build from a list of n+1 2x2 slices [[w00k, w01k], [w10k, w11k]]."""
        n = len(slices) - 1
        return cls.from_entries(
            n, [[[slices[k][i][j] for k in range(n + 1)] for j in range(2)] for i in range(2)]
        )

    # -- memo --------------------------------------------------------------

    def memo(self, key: str, build: Callable[[ScalingTensor], object]):
        """build(self), computed on the first call for `key` and kept for the tensor's lifetime."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(self)
            return value

    # -- interchange ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "w": [
                [[format_rational(self.w[i][j][k]) for k in range(self.n + 1)] for j in range(2)]
                for i in range(2)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> ScalingTensor:
        """Read the JSON interchange format; its shape must match n exactly."""
        try:
            n, raw = data["n"], data["w"]
        except (KeyError, TypeError) as exc:
            raise DimensionMismatchError('tensor JSON must have keys "n" and "w"') from exc
        if not isinstance(n, int) or isinstance(n, bool):
            raise DimensionMismatchError(f'tensor JSON "n" must be an integer, got {n!r}')
        planes = isinstance(raw, list) and len(raw) == 2 and all(isinstance(p, list) and len(p) == 2 for p in raw)
        if not (planes and all(isinstance(row, list) and len(row) == n + 1 for plane in raw for row in plane)):
            raise DimensionMismatchError(f"tensor JSON entries must be lists indexed exactly [2][2][n+1], n = {n}")
        try:
            entries = [[[parse_rational(x) for x in row] for row in plane] for plane in raw]
        except ValueError as exc:
            raise DimensionMismatchError(f"bad rational in tensor JSON: {exc}") from exc
        return cls.from_entries(n, entries)

