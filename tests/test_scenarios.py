"""Tests for the initial-condition generators."""

import math

import numpy as np
import pytest

from nematicflow.diagnostics import measure
from nematicflow.errors import ParameterRangeError, UnderResolvedError
from nematicflow.scenarios import (SCENARIO_NAMES, ScenarioSpec,
                                   build_scenario, random_smooth,
                                   taylor_green, winding_director)
from nematicflow.spectral import (Field, Grid, _fftn, _ifftn, divergence,
                                  leray_project)
from nematicflow.state import FluidState, normalize_director


@pytest.fixture
def grid():
    return Grid(2, 32)


class TestTaylorGreen:
    def test_2d_profile(self, grid):
        s = taylor_green(grid)
        x0, x1 = grid.coords()
        assert np.max(np.abs(s.u.phys[0] - np.sin(x0) * np.cos(x1))) < 1e-14
        assert np.max(np.abs(s.u.phys[1] + np.cos(x0) * np.sin(x1))) < 1e-14
        assert np.max(np.abs(s.d.phys[2] - 1.0)) < 1e-14
        assert np.max(np.abs(s.d.phys[:2])) < 1e-14

    def test_3d_divergence_free(self):
        s = taylor_green(Grid(3, 16))
        assert np.max(np.abs(divergence(s.u).phys)) < 1e-12

    @pytest.mark.parametrize("length", [10.0, 100.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic_on_any_torus(self, dim, length):
        # one period across the torus: the modes with max|k_int| = 1 hold
        # the whole spectrum
        grid = Grid(dim, 16, length)
        k_max = np.max(np.abs(np.broadcast_arrays(*grid.k_int)), axis=0)
        spec = taylor_green(grid).u.spec
        assert np.max(np.abs(spec[:, k_max != 1])) <= 1e-12

    def test_amplitude_scaling(self, grid):
        s = taylor_green(grid, amplitude=2.5)
        assert abs(np.max(np.abs(s.u.phys)) - 2.5) < 1e-13
        with pytest.raises(ValueError):
            taylor_green(grid, amplitude=0.0)


class TestWindingDirector:
    def test_profile(self, grid):
        s = winding_director(grid, k=2)
        x0 = grid.coords()[0]
        assert np.max(np.abs(s.d.phys[0] - np.cos(2 * x0))) < 1e-14
        assert np.max(np.abs(s.d.phys[1] - np.sin(2 * x0))) < 1e-14
        assert np.max(np.abs(s.u.phys)) == 0.0

    @pytest.mark.parametrize("length", [10.0, 100.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic_on_any_torus(self, dim, length):
        # k = 2 windings across the torus: the modes (+-2, 0, ...) hold the
        # whole spectrum
        grid = Grid(dim, 16, length)
        k = np.broadcast_arrays(*grid.k_int)
        own = (np.abs(k[0]) == 2) & (np.max(np.abs(k[1:]), axis=0) == 0)
        spec = winding_director(grid, k=2).d.spec
        assert np.max(np.abs(spec[:, ~own])) <= 1e-12

    def test_unit_length(self, grid):
        rec = measure(winding_director(grid, k=3), 0.0, 0.0)
        assert rec.sphere_norm_err < 1e-14
        assert rec.sphere_identity_err < 1e-11

    def test_invalid_winding_numbers(self, grid):
        with pytest.raises(ValueError):
            winding_director(grid, k=0)
        with pytest.raises(UnderResolvedError):
            winding_director(grid, k=11)  # res/3 at res 32
        with pytest.raises(UnderResolvedError):
            winding_director(Grid(2, 8), k=3)


def _grid_built_random_smooth(grid, seed, slope=4.0, amplitude=0.5):
    """random_smooth as built on the grid before it kept its spectra: each
    field round-trips through the grid and u is projected as a Field."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k_int = np.sqrt(sum(k * k for k in grid.k_int))
    taper = (1.0 + k_int) ** (-slope) * grid.dealias_mask

    def noise(ncomp):
        white = rng.standard_normal((ncomp,) + grid.shape)
        return _ifftn(grid, _fftn(grid, white) * taper)

    u = noise(grid.dim)
    u -= u.mean(axis=grid.spatial_axes, keepdims=True)
    u = leray_project(Field.from_phys(grid, u)).phys
    u = u * (amplitude / np.sqrt(np.max(np.sum(u**2, axis=0))))
    pert = noise(3)
    pert *= amplitude / np.sqrt(np.max(np.sum(pert**2, axis=0)))
    d = pert.copy()
    d[2] += 1.0
    cutoff = (grid.res // 2 - 1) // 2
    keep = np.ones(grid.spec_shape, dtype=bool)
    for k in grid.k_int:
        keep &= np.abs(k) <= cutoff
    for _ in range(3):
        d = _ifftn(grid, _fftn(grid, d) * keep)
        d = d / np.sqrt(np.sum(d * d, axis=0))
    return normalize_director(FluidState(grid, Field.from_phys(grid, u),
                                         Field.from_phys(grid, d)))


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestRandomSmooth:
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("seed, slope, amplitude",
                             [(0, 4.0, 0.5), (7, 3.0, 2.0), (11, 6.0, 0.1)])
    def test_matches_grid_built_construction(self, dim, res, seed, slope,
                                             amplitude):
        grid = Grid(dim, res)
        s = random_smooth(grid, seed=seed, slope=slope, amplitude=amplitude)
        oracle = _grid_built_random_smooth(grid, seed, slope, amplitude)
        assert _rel_err(s.u.phys, oracle.u.phys) < 1e-13
        assert _rel_err(s.u.spec, oracle.u.spec) < 1e-13
        assert _rel_err(s.d.phys, oracle.d.phys) < 1e-13
        assert _rel_err(s.d.spec, oracle.d.spec) < 1e-13

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_cached_velocity_representations_agree(self, dim, res):
        grid = Grid(dim, res)
        u = random_smooth(grid, seed=5).u
        assert _rel_err(_fftn(grid, u.phys), u.spec) < 1e-13
        assert _rel_err(_ifftn(grid, u.spec.copy()), u.phys) < 1e-13

    def test_satisfies_state_invariants(self, grid):
        s = random_smooth(grid, seed=1)
        assert np.max(np.abs(divergence(s.u).phys)) < 1e-12
        rec = measure(s, 0.0, 0.0)
        assert rec.sphere_norm_err < 1e-8
        assert rec.sphere_identity_err < 1e-6

    def test_amplitude_and_zero_mean(self, grid):
        s = random_smooth(grid, seed=1, amplitude=0.7)
        speed = np.sqrt(np.sum(s.u.phys**2, axis=0))
        assert abs(np.max(speed) - 0.7) < 1e-12
        assert np.max(np.abs(s.u.phys.mean(axis=(1, 2)))) < 1e-13

    def test_seed_reproducibility(self, grid):
        a = random_smooth(grid, seed=42)
        b = random_smooth(grid, seed=42)
        c = random_smooth(grid, seed=43)
        assert np.array_equal(a.u.phys, b.u.phys)
        assert np.array_equal(a.d.phys, b.d.phys)
        assert not np.array_equal(a.u.phys, c.u.phys)

    def test_parameter_validation(self, grid):
        with pytest.raises(ValueError):
            random_smooth(grid, slope=1.0)  # too rough to be smooth data
        with pytest.raises(ValueError):
            random_smooth(grid, amplitude=-0.5)

    def test_3d(self):
        s = random_smooth(Grid(3, 16), seed=2)
        assert np.max(np.abs(divergence(s.u).phys)) < 1e-12
        assert measure(s, 0.0, 0.0).sphere_norm_err < 1e-8


@pytest.mark.parametrize("builder, key, value", [
    (winding_director, "k", 1.5), (winding_director, "k", -2.5),
    (winding_director, "k", math.inf), (winding_director, "k", math.nan),
    (random_smooth, "seed", -0.5), (random_smooth, "seed", 2.5),
    (random_smooth, "seed", math.inf), (random_smooth, "seed", math.nan)])
def test_non_integral_parameter_is_range_error(grid, builder, key, value):
    # int() would truncate the value or raise an error of its own
    with pytest.raises(ParameterRangeError) as info:
        builder(grid, **{key: value})
    assert info.value.name == key


@pytest.mark.parametrize("builder, key, value", [
    (winding_director, "k", 2.0), (winding_director, "k", -1.0),
    (random_smooth, "seed", 3.0)])
def test_integral_float_parameter_builds_as_its_int(grid, builder, key,
                                                    value):
    built = builder(grid, **{key: value})
    exact = builder(grid, **{key: int(value)})
    assert np.array_equal(built.u.phys, exact.u.phys)
    assert np.array_equal(built.d.phys, exact.d.phys)


class TestRegistry:
    def test_names(self):
        assert SCENARIO_NAMES == {"taylor_green", "winding_director",
                                  "random_smooth"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("vortex_sheet")

    def test_build_dispatches_parameters(self, grid):
        s = build_scenario(grid, ScenarioSpec("winding_director", {"k": 2}))
        x0 = grid.coords()[0]
        assert np.max(np.abs(s.d.phys[0] - np.cos(2 * x0))) < 1e-14

    def test_build_rejects_foreign_parameter(self, grid):
        spec = ScenarioSpec("taylor_green", {"k": 2})
        with pytest.raises(ValueError):
            build_scenario(grid, spec)

    def test_build_defaults(self, grid):
        s = build_scenario(grid, ScenarioSpec("taylor_green"))
        assert abs(np.max(np.abs(s.u.phys)) - 1.0) < 1e-13
