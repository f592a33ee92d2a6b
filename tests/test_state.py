"""Tests for state invariants, constraint maintenance and pressure recovery."""

import numpy as np
import pytest

from nematicflow import state
from nematicflow.errors import DegenerateDirectorError
from nematicflow.scenarios import (random_smooth, taylor_green,
                                   winding_director)
from nematicflow.spectral import Field, Grid, dealias, gradient, leray_project
from nematicflow.state import (FluidState, PhysicsParams, constraint_residual,
                               normalize_director, recover_pressure)


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

    def test_nan_director_raises(self):
        # a NaN magnitude compares False with the threshold either way
        grid = Grid(2, 8)
        d = np.zeros((3,) + grid.shape)
        d[2] = 1.0
        d[1, 3, 5] = np.nan
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        with pytest.raises(DegenerateDirectorError):
            normalize_director(s)


def _director_products(grid, u, d):
    """The stepper's director products |grad d|^2 d - (u.grad)d on the
    grid, before dealiasing."""
    return state._products(grid, *state._grid_fields(grid, u.spec, d.spec))[1]


def _products(grid, u, d):
    """The dealiased momentum and director products of the stepper.  The
    momentum part, -(u.grad)u - lap d . grad d, is -div sigma +
    grad(|grad d|^2 / 2); the stepper drops the gradient term, which the
    projection removes."""
    fields = state._grid_fields(grid, u.spec, d.spec)
    sigma, n_d = state._products(grid, *fields)
    grad_sq = dealias(Field.from_phys(
        grid, np.einsum("im...,im...->...", fields[2], fields[2])))
    force = Field.from_spec(grid, state._stress_force(grid, sigma)).phys
    force += 0.5 * np.concatenate(
        [gradient(grad_sq, j).phys for j in range(grid.dim)])
    return np.concatenate([force, dealias(Field.from_phys(grid, n_d)).phys])


@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_products_into_out_match_fresh_arrays(dim, res):
    # `out` is one buffer of sigma and N_d; u and grad d are left as they
    # were, d is spent
    grid = Grid(dim, res)
    s = random_smooth(grid, seed=6)
    u, d, grad_d = state._grid_fields(grid, s.u.spec, s.d.spec)
    kept = u.copy(), grad_d.copy()
    out = np.empty((dim * (dim + 1) // 2 + 3,) + grid.shape)
    sigma, n_d = state._products(grid, u, d, grad_d, out=out)
    assert np.shares_memory(sigma, out) and np.shares_memory(n_d, out)
    assert np.array_equal(u, kept[0]) and np.array_equal(grad_d, kept[1])
    fresh = state._products(grid, *state._grid_fields(grid, s.u.spec,
                                                      s.d.spec))
    assert np.array_equal(sigma, fresh[0])
    assert np.array_equal(n_d, fresh[1])


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
        norm_err, identity_err = constraint_residual(winding_director(grid, k=1))
        assert norm_err < 1e-14
        assert identity_err < 1e-12

    def test_exact_for_constant_director(self, grid):
        norm_err, identity_err = constraint_residual(taylor_green(grid))
        assert norm_err < 1e-14
        assert identity_err < 1e-14

    def test_detects_non_unit_director(self, grid):
        d = np.zeros((3,) + grid.shape)
        d[2] = 1.1
        s = FluidState(grid, Field.zeros(grid, 2), Field.from_phys(grid, d))
        norm_err, _ = constraint_residual(s)
        assert abs(norm_err - 0.1) < 1e-12
