"""Flat parameter vector partitioned into named groups, with norm accounting.

The optimizer treats all parameters as one flat float64 vector. Groups tile
that vector; each group is either *controlled* (participates in weight decay /
norm control and in norm measurement) or not (e.g. normalization parameters
and biases, which common training setups exclude from decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ParamGroup:
    """A contiguous, named slice of the flat parameter vector."""

    name: str
    offset: int
    length: int
    controlled: bool = True

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
        self.theta = np.array(theta, dtype=np.float64).ravel()
        self.groups = sorted(groups, key=lambda g: g.offset)
        _check_tiling(self.groups, self.theta.size)
        self.controlled_slices = [g.slice for g in self.groups if g.controlled]
        if initial_norm is None:
            initial_norm = self.controlled_norm()
        self.initial_norm = float(initial_norm)

    def controlled_norm(self) -> float:
        """L2 norm over the controlled elements, in flat-vector order.

        Uses exact (compensated) summation so the value is independent of
        blocking and bit-reproducible; equality-style invariants rely on it.
        Inputs are pre-scaled by a power of two (exact, so results match the
        naive formula bit for bit in normal ranges) to avoid the squares
        under- or overflowing for extreme magnitudes.
        """
        views = [self.theta[s] for s in self.controlled_slices] or [self.theta[:0]]
        x = views[0] if len(views) == 1 else np.concatenate(views)
        if x.size == 0:
            return 0.0
        biggest = float(np.max(np.abs(x)))
        if biggest == 0.0:
            return 0.0
        if math.isinf(biggest):
            return math.inf
        exp = math.frexp(biggest)[1]
        y = x / math.ldexp(1.0, exp)
        return math.ldexp(math.sqrt(math.fsum(y * y)), exp)

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
