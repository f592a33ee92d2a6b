"""Tests for state invariants, constraint maintenance and pressure recovery."""

import itertools

import numpy as np
import pytest

from nematicflow import dynamics
from nematicflow.diagnostics import measure
from nematicflow.dynamics import StepPolicy, recover_pressure, step
from nematicflow.errors import DegenerateDirectorError, ParameterRangeError
from nematicflow.scenarios import (random_smooth, taylor_green,
                                   winding_director)
from nematicflow.spectral import Field, Grid, dealias, gradient, leray_project
from nematicflow.state import FluidState, PhysicsParams, normalize_director


@pytest.fixture
def grid():
    return Grid(2, 32)


def test_physics_params_validation():
    assert PhysicsParams().nu == 1.0
    with pytest.raises(ValueError):
        PhysicsParams(nu=0.0)
    with pytest.raises(ValueError):
        PhysicsParams(nu=-1.0)


def test_state_shape_validation(grid):
    u = Field.zeros(grid, 2)
    d = Field.zeros(grid, 3)
    with pytest.raises(ValueError):
        FluidState(grid, d, d)  # 3-component velocity on a 2-D grid
    with pytest.raises(ValueError):
        FluidState(grid, u, u)  # 2-component director


def test_state_grid_validation(grid):
    # fields of another grid are refused when the state is built, before
    # numpy fails to broadcast them or a run uses the wrong box
    coarse, short = Grid(2, 16), Grid(2, 32, length=1.0)
    with pytest.raises(ValueError):
        FluidState(grid, taylor_green(coarse).u, taylor_green(grid).d)
    with pytest.raises(ValueError):
        FluidState(grid, taylor_green(grid).u, taylor_green(short).d)
    with pytest.raises(ValueError):
        FluidState(grid, taylor_green(coarse).u, taylor_green(coarse).d)


# each parameter that must be positive and finite, as a call on a value,
# and the name its error gives
_POSITIVE = {
    "StepPolicy(dt)": ("dt", lambda v: StepPolicy(t_max=1.0, dt=v)),
    "StepPolicy(t_max)": ("t_max", lambda v: StepPolicy(t_max=v)),
    "step(dt)": ("dt", lambda v: step(taylor_green(Grid(2, 8)),
                                      PhysicsParams(), v)),
    "Grid(length)": ("length", lambda v: Grid(2, 8, length=v)),
    "PhysicsParams(nu)": ("nu", lambda v: PhysicsParams(nu=v)),
    "taylor_green(amplitude)": (
        "amplitude", lambda v: taylor_green(Grid(2, 8), amplitude=v)),
    "random_smooth(amplitude)": (
        "amplitude", lambda v: random_smooth(Grid(2, 8), amplitude=v)),
}


@pytest.mark.parametrize("value", [0, -1.0, float("inf"), float("nan"),
                                   True, "1"])
@pytest.mark.parametrize("caller", list(_POSITIVE))
def test_positive_and_finite_rule(caller, value):
    # one rule, `errors.check_positive`, and one message for all of them
    name, call = _POSITIVE[caller]
    with pytest.raises(ParameterRangeError) as info:
        call(value)
    assert str(info.value).startswith(
        f"{name} must be positive and finite, got")


def test_state_velocity_components_message(grid):
    d = Field.zeros(grid, 3)
    with pytest.raises(ValueError,
                       match="^velocity needs 2 components, got 3$"):
        FluidState(grid, d, d)


class TestNormalize:
    def test_rescales_to_unit_length(self, grid):
        d = np.zeros((3,) + grid.shape)
        d[0] = 3.0
        d[2] = 4.0
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        out = normalize_director(s)
        assert np.max(np.abs(out.d.phys[0] - 0.6)) < 1e-14
        assert np.max(np.abs(out.d.phys[2] - 0.8)) < 1e-14
        assert out.t == s.t

    def test_unit_director_unchanged(self, grid):
        s = winding_director(grid, k=1)
        out = normalize_director(s)
        assert np.max(np.abs(out.d.phys - s.d.phys)) < 1e-14

    def test_degenerate_raises(self, grid):
        d = np.zeros((3,) + grid.shape)
        d[2] = 1.0
        d[:, 0, 0] = 1e-9  # one nearly-vanishing point
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        with pytest.raises(DegenerateDirectorError):
            normalize_director(s)

    def test_overflowing_magnitude_raises(self, grid):
        # |d|^2 overflows to inf, and d / |d| would be 0 there
        d = winding_director(grid, k=1).d.phys.copy()
        d[:, 3, 5] *= 1e155
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        with pytest.raises(DegenerateDirectorError):
            normalize_director(s)

    def test_nan_director_raises(self):
        # a NaN magnitude compares False with the threshold either way
        grid = Grid(2, 8)
        d = np.zeros((3,) + grid.shape)
        d[2] = 1.0
        d[1, 3, 5] = np.nan
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        with pytest.raises(DegenerateDirectorError):
            normalize_director(s)


def _grid_fields(grid, u, d):
    """(u, d, grad d) on the grid, grad d[i, m] = d d_m / d x_i, as the
    stage's chunks yield them (`dynamics._chunks`), each joined along x0
    into a fresh array.  The products are zeroed, as an empty buffer's
    garbage would reach the transform."""
    work = dynamics._workspace(grid)
    chunks = []
    for _, *fields, out in dynamics._chunks(grid, work, u.spec, d.spec):
        out[...] = 0.0
        chunks.append([f.copy() for f in fields])
    return tuple(np.concatenate(f, axis=-grid.dim) for f in zip(*chunks))


def _grid_products(grid, u, d):
    """The stepper's sigma (over `dynamics._PAIRS`) and director products
    |grad d|^2 d - (u.grad)d on the grid, before dealiasing, with
    |grad d|^2."""
    u, d, grad_d = _grid_fields(grid, u, d)
    sigma = np.empty((grid.dim * (grid.dim + 1) // 2,) + grid.shape)
    n_d = np.empty((3,) + grid.shape)
    grad_sq = np.einsum("im...,im...->...", grad_d, grad_d)
    dynamics._products(grid, u, d, grad_d, sigma, n_d)
    return sigma, n_d, grad_sq


def _director_products(grid, u, d):
    """The stepper's director products |grad d|^2 d - (u.grad)d on the
    grid, before dealiasing."""
    return _grid_products(grid, u, d)[1]


def _products(grid, u, d):
    """The dealiased momentum and director products of the stepper.  The
    momentum part, -(u.grad)u - lap d . grad d, is -div sigma +
    grad(|grad d|^2 / 2); the stepper drops the gradient term, which the
    projection removes."""
    sigma, n_d, grad_sq = _grid_products(grid, u, d)
    grad_sq = dealias(Field.from_phys(grid, grad_sq))
    sigma = dealias(Field.from_phys(grid, sigma))
    row = {}  # sigma_ab = sigma_ba, stored once for a <= b
    for p, (a, b) in enumerate(
            itertools.combinations_with_replacement(range(grid.dim), 2)):
        row[a, b] = row[b, a] = Field.from_spec(grid, sigma.spec[p])
    force = -np.concatenate(
        [sum(gradient(row[a, b], b).phys for b in range(grid.dim))
         for a in range(grid.dim)])
    force += 0.5 * np.concatenate(
        [gradient(grad_sq, j).phys for j in range(grid.dim)])
    return np.concatenate([force, dealias(Field.from_phys(grid, n_d)).phys])


@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_products_into_out_match_fresh_arrays(dim, res):
    # sigma and N_d written into one buffer as a stage lays them out
    # (`dynamics._SLOTS`) match fresh arrays; u, d and grad d are left as
    # they were
    grid = Grid(dim, res)
    s = random_smooth(grid, seed=6)
    u, d, grad_d = _grid_fields(grid, s.u, s.d)
    kept = u.copy(), d.copy(), grad_d.copy()
    first, index = dynamics._SLOTS[dim]
    out = np.empty((len(index) + 3,) + grid.shape)
    dynamics._products(grid, u, d, grad_d, [out[p] for p in index],
                       out[dim - first:dim + 3 - first])
    for field, before in zip((u, d, grad_d), kept):
        assert np.array_equal(field, before)
    sigma = np.empty((len(index),) + grid.shape)
    n_d = np.empty((3,) + grid.shape)
    dynamics._products(grid, u, d, grad_d, sigma, n_d)
    assert np.array_equal(out[list(index)], sigma)
    assert np.array_equal(out[dim - first:dim + 3 - first], n_d)


class TestElasticForce:
    # at u = 0 the momentum products are the elastic force alone
    def test_vanishes_for_constant_director(self, grid):
        s = taylor_green(grid)
        out = _products(grid, Field.zeros(grid, 2), s.d)
        assert np.max(np.abs(out[:2])) < 1e-13

    def test_vanishes_for_winding_director(self, grid):
        # lap d = -d is parallel to d while grad d is tangential, and the
        # contraction sums over director components: -d . d_x = -(|d|^2)_x/2 = 0
        s = winding_director(grid, k=2)
        out = _products(grid, Field.zeros(grid, 2), s.d)
        assert np.max(np.abs(out[:2])) < 1e-11


class TestAdvection:
    def test_matches_analytic_transport(self, grid):
        # u = (1, sin x0) transports itself to (u . grad)u = (0, cos x0); a
        # constant director adds no elastic force
        x0, _ = grid.coords()
        u = Field.from_phys(grid, np.stack(
            [np.ones(grid.shape), np.sin(x0) + np.zeros(grid.shape)]))
        out = _products(grid, u, taylor_green(grid).d)
        assert np.max(np.abs(out[0])) < 1e-11
        assert np.max(np.abs(out[1] + np.cos(x0))) < 1e-11

    def test_matches_analytic_director_transport(self, grid):
        # v = (1, 0) carries f = sin x0 cos x1 to (v . grad)f = cos x0 cos x1;
        # the director products are |grad f|^2 f - (v . grad)f
        x0, x1 = grid.coords()
        v = Field.from_phys(grid, np.stack(
            [np.ones(grid.shape), np.zeros(grid.shape)]))
        f = np.sin(x0) * np.cos(x1)
        d = Field.from_phys(grid, np.stack([f, 0 * f, 0 * f]))
        grad_sq = (np.cos(x0) * np.cos(x1))**2 + (np.sin(x0) * np.sin(x1))**2
        out = _director_products(grid, v, d)
        exact = grad_sq * f - np.cos(x0) * np.cos(x1)
        assert np.max(np.abs(out[0] - exact)) < 1e-11

    def test_zero_velocity(self, grid):
        # without a velocity nothing is transported: the director products
        # are |grad d|^2 d alone
        x0, _ = grid.coords()
        f = np.sin(x0) + np.zeros(grid.shape)
        d = Field.from_phys(grid, np.stack([f, 0 * f, 0 * f]))
        out = _director_products(grid, Field.zeros(grid, 2), d)
        assert np.max(np.abs(out[0] - np.cos(x0)**2 * f)) < 1e-14
        assert np.max(np.abs(out[1:])) < 1e-14


class TestPressure:
    def test_taylor_green_pressure(self, grid):
        s = taylor_green(grid)
        x0, x1 = grid.coords()
        p = recover_pressure(s).phys[0]
        exact = 0.25 * (np.cos(2 * x0) + np.cos(2 * x1))
        assert np.max(np.abs(p - exact)) < 1e-11

    def test_zero_mean(self, grid):
        s = taylor_green(grid)
        p = recover_pressure(s).phys[0]
        assert abs(p.mean()) < 1e-14

    def test_quiescent_flow_has_zero_pressure(self, grid):
        s = winding_director(grid, k=1)
        p = recover_pressure(s).phys[0]
        assert np.max(np.abs(p)) < 1e-11

    def test_gradient_balances_unprojected_force(self, grid):
        # P[F] = F - grad p by construction, so F - grad p must be
        # divergence-free for the recovered p
        rng = np.random.Generator(np.random.PCG64(2))
        u = leray_project(Field.from_phys(
            grid, rng.standard_normal((2,) + grid.shape)))
        s = FluidState(grid, u, winding_director(grid, k=1).d)
        p = recover_pressure(s)
        force = _products(grid, s.u, s.d)[:2]
        grad_p = np.concatenate([gradient(p, 0).phys, gradient(p, 1).phys])
        residual = Field.from_phys(grid, force - grad_p)
        projected = leray_project(residual)
        assert np.max(np.abs(projected.phys - residual.phys)) < 1e-10


class TestConstraintResidual:
    def test_exact_for_winding_director(self, grid):
        rec = measure(winding_director(grid, k=1), 0.0)
        assert rec.sphere_norm_err < 1e-14
        assert rec.sphere_identity_err < 1e-12

    def test_exact_for_constant_director(self, grid):
        rec = measure(taylor_green(grid), 0.0)
        assert rec.sphere_norm_err < 1e-14
        assert rec.sphere_identity_err < 1e-14

    def test_detects_non_unit_director(self, grid):
        d = np.zeros((3,) + grid.shape)
        d[2] = 1.1
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        assert abs(measure(s, 0.0).sphere_norm_err - 0.1) < 1e-12
