"""Flat parameter vector partitioned into named groups, with norm accounting.

The optimizer treats all parameters as one flat float64 vector. Groups tile
that vector; each group is either *controlled* (participates in weight decay /
norm control and in norm measurement) or not (e.g. normalization parameters
and biases, which common training setups exclude from decay).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .schedules import is_integer

# Stores with fewer controlled elements than _EXACT_CUTOFF gather them in one array.
# Its scaled squares go to fsum(memoryview) below _FSUM_MAX elements and to one certified
# extraction from there on; both give fsum's bits, and per sum 3.2 against 5.7 us at 144,
# 5.8 against 5.7 at 256 (timeit, best of 7 x 5,000, one BLAS thread, 2-vCPU VM).
_EXACT_CUTOFF = 1000
_FSUM_MAX = 256
# Elements per part of every streamed pass over a large store, measured best for both:
# the Adam half keeps a part's g, m, v, theta and its temporary (5 x 256 KB) in a 2 MB L2
# through its 12 array operations, and the norm's two block buffers take 512 KB.
_CHUNK = 1 << 15
_ROW = 1 << 12  # elements per row of the certified sum, whose row sums go to fsum


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
        if not (is_integer(self.offset) and is_integer(self.length)):  # a float slices late
            raise TypeError(f"group {self.name!r}: offset and length must be integers (not bools), "
                            f"got {self.offset!r} and {self.length!r}")


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
        self.controlled_slices = [slice(g.offset, g.offset + g.length)
                                  for g in self.groups if g.controlled]
        # The small path gathers the controlled elements in one step: with the
        # one controlled slice, or with an index array that only small stores build.
        self._gather = None
        if sum(s.stop - s.start for s in self.controlled_slices) < _EXACT_CUTOFF:
            slices = self.controlled_slices or [slice(0, 0)]
            self._gather = (slices[0] if len(slices) == 1 else
                            np.concatenate([np.arange(s.start, s.stop) for s in slices]))
        if initial_norm is None:
            initial_norm = self.controlled_norm()  # NaN if theta holds a NaN
        elif not initial_norm >= 0.0:  # NaN fails too; a norm target is never negative
            raise ValueError(f"initial_norm must be >= 0, got {initial_norm!r}")
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

        Three ranges of controlled elements compute it. Below ``_FSUM_MAX``
        that formula is what runs, over one gathered array. From
        ``_FSUM_MAX`` to ``_EXACT_CUTOFF`` the gathered squares go to
        ``_certified_sum`` as one block. From ``_EXACT_CUTOFF`` on nothing is
        gathered: the scaled squares are made and summed blockwise. The
        certified sum is one error-free extraction in numpy: per row of
        ``_ROW`` elements, an exact sum and a float sum of the leftovers,
        which are within n * 2**-80 of the exact sum T all together. Their
        rounded total is returned only if it minus and plus that bound round
        to the same double, which is then the double nearest T, fsum's value.
        Otherwise (an exact tie, say) fsum runs over the unextracted squares.
        Large-store blocks pack whole pieces of at most ``_CHUNK`` elements
        (``_scaled_squares``), so the temporary memory is about two blocks of
        ``_CHUNK`` floats.
        """
        if self._gather is not None:
            y = np.abs(self.theta[self._gather])
            biggest = float(y.max(initial=0.0))
        else:
            views = [self.theta[s] for s in self.controlled_slices]
            biggest = _max_abs(views)
        if biggest == 0.0 or not math.isfinite(biggest):
            return biggest  # 0, inf, or NaN if any element is NaN
        exp = math.frexp(biggest)[1]
        # y = x / 2**exp, as x times 2**-exp, which rounds the same exact quotient
        # and is cheaper, wherever 2**-exp is a double.
        op, c = (np.multiply, math.ldexp(1.0, -exp)) if exp >= -1023 else (np.divide, math.ldexp(1.0, exp))
        if self._gather is not None:
            op(y, c, out=y)
            y *= y
            # The extraction overwrites its block, so a fallback sums the untouched y.
            total = _certified_sum((y.copy(),), y.size) if y.size >= _FSUM_MAX else None
            if total is None:
                total = math.fsum(memoryview(y))
        else:
            n = sum(v.size for v in views)
            total = _certified_sum(_scaled_squares(views, op, c, n), n)
            if total is None:
                total = math.fsum(x for b in _scaled_squares(views, op, c, n) for x in b.tolist())
        try:
            return math.ldexp(math.sqrt(total), exp)
        except OverflowError:
            return math.inf  # the norm is above the largest double

    def scale_controlled(self, factor: float) -> None:
        """Multiply every controlled element by one scalar, in place."""
        for s in self.controlled_slices:
            self.theta[s] *= factor

    def snapshot(self) -> "ParamStore":
        """Deep copy; mutating the copy leaves the original untouched."""
        twin = copy.copy(self)  # shares the checked layout, and the initial norm as measured
        twin.theta, twin.groups = self.theta.copy(), list(self.groups)
        return twin


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
    """Yield blocks of op(x, c)**2 over the views' n elements, in order.

    Each view is cut into pieces of at most ``_CHUNK`` elements, and whole
    pieces share a block while they fit, so no piece spans two blocks. Every
    block is the same buffer refilled, so a consumer must be done with one
    block (and may overwrite it) before it asks for the next.
    """
    buf = np.empty(min(n, _CHUNK))
    k = 0
    for v in views:
        for i in range(0, v.size, _CHUNK):
            piece = v[i:i + _CHUNK]
            if k + piece.size > buf.size:
                yield np.square(buf[:k], out=buf[:k])
                k = 0
            op(piece, c, out=buf[k:k + piece.size])
            k += piece.size
    if k:
        yield np.square(buf[:k], out=buf[:k])


def _certified_sum(blocks, n: int) -> float | None:
    """Correctly rounded sum of n floats in [0, 1), or None.

    One error-free extraction splits each x (Rump, Ogita & Oishi, "Accurate
    Floating-Point Summation Part I", SIAM J. Sci. Comput. 31(1), 2008).
    With sigma = 2**13, q = (x + sigma) - sigma is exact by Sterbenz's
    lemma, and the leftover x - q is exact as the error of one rounded
    addition. Each q is a multiple of 2**-39 in [0, 1], and each leftover is
    within 2**-40. A row holds at most L = _ROW = 2**12 elements, so any
    partial sum of its q is at most 2**51 units of 2**-39: the row sum of
    the q is exact in any order. The float sum of a row's m <= L leftovers
    is off by at most gamma_(m-1) * m * 2**-40 < 2 * L * 2**-53 * m * 2**-40,
    so all rows together by at most n * 2**-80 = `bound`. So the exact sum
    T lies within `bound` of the exact sum S of the row sums. fsum rounds
    S - bound and S + bound correctly, and rounding is monotone: if both
    round to one double, so does every value between them, T included, and
    that double is what math.fsum over the same floats returns, bit for
    bit. When T lies within `bound` of a rounding boundary (an exact tie,
    say) the two differ and None tells the caller to use math.fsum.

    Each block is a float64 array of at most min(n, _CHUNK) elements; the
    extraction overwrites it. A gathered store of fewer than _EXACT_CUTOFF
    elements passes one block, a single partial row, under the same bound.
    """
    q = np.empty(min(n, _CHUNK))
    sums = []
    for x in blocks:
        qx = q[:x.size]
        np.add(x, 2.0 ** 13, out=qx)  # sigma
        qx -= 2.0 ** 13
        x -= qx
        whole = x.size - x.size % _ROW
        for part in (qx, x):
            if whole:
                sums += np.add.reduce(part[:whole].reshape(-1, _ROW), axis=1).tolist()
            sums.append(float(np.add.reduce(part[whole:])))
    bound = math.ldexp(float(n), -80)
    lo = math.fsum(sums + [-bound])
    return lo if math.fsum(sums + [bound]) == lo else None


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
