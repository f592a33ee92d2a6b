"""Symmetry oracles for the whole step.

The system keeps three symmetries at any data, so a correct step does too:
- head-tail, d -> -d: the stress is even in d and N_d odd, the transforms
  are linear and negation is exact, so u is the same bit for bit, d is
  exactly -d and every record is equal;
- the swap of x0 and x1, u's components with them;
- a shift by whole cells along every axis.
The last two hold to roundoff.  Unlike a comparison with an earlier
version, these check the step itself.  Each test runs a few fixed-dt steps
from random_smooth at 2-D 64^2 (IF-RK4) and 3-D 32^3 (IF-RK2); the 3-D
stage runs in 4 chunks of x0 rows, so its chunk seams are crossed.
"""

import numpy as np
import pytest

from nematicflow.diagnostics import measure
from nematicflow.dynamics import _chunk_rows, step
from nematicflow.scenarios import random_smooth
from nematicflow.spectral import Field, Grid, linf_norm
from nematicflow.state import FluidState, PhysicsParams

CASES = [pytest.param(Grid(2, 64), "IF-RK4", id="2d-64-IF-RK4"),
         pytest.param(Grid(3, 32), "IF-RK2", id="3d-32-IF-RK2")]
STEPS, DT = 3, 0.01
SHIFT = 3  # whole cells along every axis

# roundoff tolerance of the swap and the shift, times max(max|u|, 1): the
# largest change seen is 3.9e-16 at max|u| = 0.5, 250 times below it
TOLERANCE = 1e-13


def _run(s: FluidState, integrator: str) -> tuple:
    """The states and records of STEPS steps from `s`, `s`'s first."""
    states, records = [s], [measure(s, 0.0)]
    for _ in range(STEPS):
        s = step(s, PhysicsParams(), DT, integrator=integrator)
        states.append(s)
        records.append(measure(s, 0.0))
    return states, records


def _mapped(s: FluidState, grid_map, u_order) -> FluidState:
    """`s` with `grid_map` applied to the grid values of u and d, and u's
    components put in `u_order`."""
    u, d = (np.ascontiguousarray(grid_map(f.phys)) for f in (s.u, s.d))
    return FluidState(s.grid, Field.from_phys(s.grid, u[list(u_order)]),
                      Field.from_phys(s.grid, d), t=s.t)


def _swap(s: FluidState) -> FluidState:
    order = [1, 0] + list(range(2, s.grid.dim))
    return _mapped(s, lambda f: np.swapaxes(f, 1, 2), order)


def _shift(s: FluidState) -> FluidState:
    axes = tuple(range(1, s.grid.dim + 1))
    return _mapped(s, lambda f: np.roll(f, SHIFT, axis=axes),
                   range(s.grid.dim))


def test_the_3d_case_crosses_chunk_seams():
    grid = Grid(3, 32)
    assert grid.res // _chunk_rows(grid) == 4


@pytest.mark.parametrize("grid, integrator", CASES)
def test_director_sign_is_exact(grid, integrator):
    s = random_smooth(grid, seed=5)
    # one u Field for both: u built again from its grid values would move
    # its spectrum at roundoff
    flipped = FluidState(grid, s.u, Field.from_phys(grid, -s.d.phys))
    states, records = _run(FluidState(grid, s.u, s.d), integrator)
    states_f, records_f = _run(flipped, integrator)
    for a, b in zip(states, states_f):
        assert np.array_equal(a.u.spec, b.u.spec)
        assert np.array_equal(a.u.phys, b.u.phys)
        assert np.array_equal(-a.d.phys, b.d.phys)
    assert records == records_f


@pytest.mark.parametrize("symmetry", [_swap, _shift], ids=["swap", "shift"])
@pytest.mark.parametrize("grid, integrator", CASES)
def test_swap_and_shift_commute_with_the_step(grid, integrator, symmetry):
    s = random_smooth(grid, seed=5)
    tol = TOLERANCE * max(linf_norm(s.u), 1.0)
    states, _ = _run(s, integrator)
    mapped, _ = _run(symmetry(s), integrator)
    for a, b in zip(states[1:], mapped[1:]):
        expected = symmetry(a)
        for name in ("u", "d"):
            change = np.max(np.abs(getattr(expected, name).phys
                                   - getattr(b, name).phys))
            assert change <= tol, name
