"""Coupled flow state: velocity + director, and constraint maintenance.

The director is always stored with 3 components (values on the unit
sphere), including for 2-D flows.  Invariants after construction through
the public entry points: the velocity is divergence-free and the director
is unit length at every grid point.  Both fields live on the state's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDirectorError, check_positive
from .spectral import Field, Grid, _check_vector

__all__ = ["PhysicsParams", "FluidState", "normalize_director"]

# Pointwise director magnitudes below this signal loss of resolution, not
# physics; renormalizing through a near-zero would amplify noise.
DEGENERATE_DIRECTOR_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PhysicsParams:
    """Physical parameters: kinematic viscosity (default 1)."""

    nu: float = 1.0

    def __post_init__(self):
        check_positive("nu", self.nu)


@dataclass(frozen=True)
class FluidState:
    """Velocity field u (dim components), director d (3 components, unit
    length) and simulation time t on a shared grid."""

    grid: Grid
    u: Field
    d: Field
    t: float = 0.0

    def __post_init__(self):
        _check_vector("velocity", self.u)
        if self.d.ncomp != 3:
            raise ValueError(f"director needs 3 components, got {self.d.ncomp}")
        if not self.u.grid == self.d.grid == self.grid:
            raise ValueError(
                f"u is on {self.u.grid} and d on {self.d.grid}, not on "
                f"the state's {self.grid}")


def normalize_director(s: FluidState) -> FluidState:
    """Renormalize the director to unit length pointwise; u and t unchanged.

    Raises DegenerateDirectorError if any grid point has |d| below the
    resolution-loss threshold, not a number or too large to square.
    """
    d = s.d.phys
    return replace(s, d=Field.from_phys(s.grid, d / _magnitude(d)))


def _magnitude(d: np.ndarray) -> np.ndarray:
    """|d| pointwise, checked before d is divided by it:
    DegenerateDirectorError where |d| is below
    DEGENERATE_DIRECTOR_THRESHOLD or not a number, or where |d|^2 overflows
    (dividing by an infinite |d| would silently give 0), in place of the
    RuntimeWarnings of that arithmetic."""
    with np.errstate(over="ignore"):
        mag = np.sqrt(np.einsum("i...,i...->...", d, d))
    low, high = float(np.min(mag)), float(np.max(mag))
    if not (low >= DEGENERATE_DIRECTOR_THRESHOLD and high < math.inf):
        raise DegenerateDirectorError(
            f"|d| spans [{low:.3e}, {high:.3e}] on the grid; it must be "
            f"finite and at least {DEGENERATE_DIRECTOR_THRESHOLD}")
    return mag
