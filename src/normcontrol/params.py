"""Flat parameter vector partitioned into named groups, with norm accounting.

The optimizer treats all parameters as one flat float64 vector. Groups tile
that vector; each group is either *controlled* (participates in weight decay /
norm control and in norm measurement) or not (e.g. normalization parameters
and biases, which common training setups exclude from decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

# Stores with fewer controlled elements than this sum their scaled squares
# with math.fsum directly, which is faster there than the certified sum.
_EXACT_CUTOFF = 1000
# Elements per block of the certified sum: its transient memory is about two
# blocks of float64, whatever the store size.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ParamGroup:
    """A contiguous, named slice of the flat parameter vector."""

    name: str
    offset: int
    length: int
    controlled: bool = True

    def __post_init__(self):
        if not isinstance(self.controlled, (bool, np.bool_)):  # else "false" controls it
            raise TypeError(f"group {self.name!r}: controlled is not a bool: {self.controlled!r}")

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.length)


class ParamStore:
    """Owns theta, its group partition, and the frozen initial controlled norm.

    The initial norm is measured once at construction and never recomputed,
    so norm ratios are always relative to the same reference. Single-writer:
    one store belongs to one run loop.
    """

    def __init__(
        self,
        theta: np.ndarray,
        groups: list[ParamGroup],
        initial_norm: float | None = None,
    ):
        # A copy; complex or text theta raises rather than losing or parsing values.
        self.theta = np.asarray(theta).astype(np.float64, casting="same_kind").ravel()
        self.groups = sorted(groups, key=lambda g: g.offset)
        _check_tiling(self.groups, self.theta.size)
        self.controlled_slices = [g.slice for g in self.groups if g.controlled]
        # The small path gathers the controlled elements in one step: with the
        # one controlled slice, or with an index array that only small stores build.
        self._gather = None
        if sum(s.stop - s.start for s in self.controlled_slices) < _EXACT_CUTOFF:
            slices = self.controlled_slices or [slice(0, 0)]
            self._gather = (slices[0] if len(slices) == 1 else
                            np.concatenate([np.arange(s.start, s.stop) for s in slices]))
        if initial_norm is None:
            initial_norm = self.controlled_norm()
        self.initial_norm = float(initial_norm)

    def controlled_norm(self) -> float:
        """L2 norm over the controlled elements, in flat-vector order.

        Always equal, bit for bit, to ``ldexp(sqrt(math.fsum(y * y)), exp)``
        with ``y = x / 2**exp`` over the concatenated controlled elements
        ``x``, where ``2**exp`` is the power of two just above ``max|x|``,
        and ``inf`` where that value is above the largest double.
        Dividing by a power of two is exact and puts the largest square in
        [1/4, 1), so the sum cannot overflow for extreme magnitudes. fsum
        rounds the exact sum of the rounded squares correctly, so the value
        does not depend on blocking and is bit-reproducible; equality-style
        invariants rely on it.

        Below ``_EXACT_CUTOFF`` elements that formula is what runs. From
        there on the scaled squares are summed blockwise in numpy by two
        error-free extractions (see ``_certified_sum``): two exact sums and
        a float sum of the leftovers, which is within n**2 * 2**(2k - 157) of
        the exact sum T, with 2**k > n. Their rounded total is returned only
        if it minus and plus that bound round to the same double, which is
        then the double nearest T, fsum's value. Otherwise (an exact tie,
        say) fsum runs over the same squares. The temporary memory is about
        two blocks of ``_BLOCK`` floats.
        """
        if self._gather is not None:
            y = np.abs(self.theta[self._gather])
            biggest = float(y.max(initial=0.0))
        else:
            views = [self.theta[s] for s in self.controlled_slices]
            biggest = _max_abs(views)
        if biggest == 0.0:
            return 0.0
        if not math.isfinite(biggest):
            return biggest  # inf, or NaN if any element is NaN
        exp = math.frexp(biggest)[1]
        # y = x / 2**exp. 2**1024 is not a double, but 2**-1024 is, and x times
        # it rounds the same exact quotient.
        op, c = (np.multiply, 2.0 ** -1024) if exp > 1023 else (np.divide, math.ldexp(1.0, exp))
        if self._gather is not None:
            op(y, c, out=y)
            y *= y
            total = math.fsum(y.tolist())
        else:
            n = sum(v.size for v in views)
            total = _certified_sum(_scaled_squares(views, op, c, n), n)
            if total is None:
                total = math.fsum(chain.from_iterable(
                    sq.tolist() for sq in _scaled_squares(views, op, c, n)))
        try:
            return math.ldexp(math.sqrt(total), exp)
        except OverflowError:
            return math.inf  # the norm is above the largest double

    def norm_ratio(self) -> float:
        """Current controlled norm as a multiple of the initial norm."""
        if self.initial_norm == 0.0:
            raise ValueError("degenerate initialization: initial controlled norm is 0")
        return self.controlled_norm() / self.initial_norm

    def scale_controlled(self, factor: float) -> None:
        """Multiply every controlled element by one scalar, in place."""
        for s in self.controlled_slices:
            self.theta[s] *= factor

    def snapshot(self) -> "ParamStore":
        """Deep copy; mutating the copy leaves the original untouched."""
        return ParamStore(self.theta.copy(), list(self.groups), initial_norm=self.initial_norm)


def _max_abs(views: list[np.ndarray]) -> float:
    """max |x| over the views without a temporary array; NaN if any x is NaN."""
    biggest = 0.0
    for v in views:
        if v.size:
            hi, lo = float(v.max()), float(v.min())
            if math.isnan(hi):
                return math.nan
            biggest = max(biggest, hi, -lo)
    return biggest


def _scaled_squares(views: list[np.ndarray], op, c: float, n: int):
    """Yield blocks of op(x, c)**2 over the views' elements, in order.

    Every block is the same buffer refilled, so a consumer must be done with
    one block (and may overwrite it) before it asks for the next.
    """
    buf = np.empty(min(n, _BLOCK))
    k = 0
    for v in views:
        pos = 0
        while pos < v.size:
            take = min(v.size - pos, buf.size - k)
            op(v[pos:pos + take], c, out=buf[k:k + take])
            k += take
            pos += take
            if k == buf.size:
                np.multiply(buf, buf, out=buf)
                yield buf
                k = 0
    if k:
        np.multiply(buf[:k], buf[:k], out=buf[:k])
        yield buf[:k]


def _certified_sum(blocks, n: int) -> float | None:
    """Correctly rounded sum of n floats in [0, 1), or None.

    Two error-free extractions split each x (Rump, Ogita & Oishi, "Accurate
    Floating-Point Summation Part I", SIAM J. Sci. Comput. 31(1), 2008).
    With 2**k > n, sigma is 2**k, then 2**(2k - 52). q = (x + sigma) - sigma
    is exact by Sterbenz's lemma, and x - q is exact as the error of one
    rounded addition. After the first split every leftover x is within
    2**(k - 53), after the second within 2**(2k - 105). Each split's q are
    multiples of one power of two, and any partial sum of them stays below
    2**53 of those units, so the sums hi and mid of the two splits' q are
    exact in any order, across blocks too. lo, the float sum of the n last
    leftovers, is off by at most gamma_n * n * 2**(2k - 105) <= `bound`.
    So the exact sum T lies within `bound` of hi + mid + lo, and r is that
    value correctly rounded. Rounding is monotone: if both ends of the
    interval round to r (checked exactly, with fsum), so does T, and r is
    what math.fsum over the same floats returns, bit for bit. When T lies
    within `bound` of a rounding boundary (an exact tie, say) the check
    fails and None tells the caller to use math.fsum.

    Each block is a float64 array of at most min(n, _BLOCK) elements; the
    extraction overwrites it.
    """
    k = n.bit_length()
    q = np.empty(min(n, _BLOCK))
    sums = [0.0, 0.0, 0.0]  # hi, mid, lo
    for x in blocks:
        qx = q[:x.size]
        for i, sigma in enumerate((math.ldexp(1.0, k), math.ldexp(1.0, 2 * k - 52))):
            np.add(x, sigma, out=qx)
            qx -= sigma
            x -= qx
            sums[i] += float(np.add.reduce(qx))
        sums[2] += float(np.add.reduce(x))
    bound = math.ldexp(float(n) * n, 2 * k - 157)
    r = math.fsum(sums)
    if math.fsum(sums + [-bound]) == r == math.fsum(sums + [bound]):
        return r
    return None


def _check_tiling(groups: list[ParamGroup], size: int) -> None:
    expected = 0
    for g in groups:
        if g.length < 0:
            raise ValueError(f"group {g.name!r} has negative length")
        if g.offset != expected:
            raise ValueError(
                f"groups must tile the vector contiguously: group {g.name!r} "
                f"starts at {g.offset}, expected {expected}"
            )
        expected = g.offset + g.length
    if expected != size:
        raise ValueError(f"groups cover {expected} elements, vector has {size}")
