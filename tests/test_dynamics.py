"""Tests for the right-hand sides and integrating-factor time steppers."""

import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nematicflow
from nematicflow import dynamics, spectral
from nematicflow.diagnostics import blowup_integrand, measure
from nematicflow.dynamics import (_TABLEAUS, StepPolicy, _decay, _nonlinear,
                                  recover_pressure, rhs, step, suggest_dt)
from nematicflow.errors import NumericalOverflowError
from nematicflow.scenarios import random_smooth, taylor_green, winding_director
from nematicflow.spectral import (Field, Grid, _fftn, _ifftn, dealias,
                                  divergence, gradient, laplacian,
                                  leray_project, project_spec)
from nematicflow.state import FluidState, PhysicsParams, normalize_director


@pytest.fixture
def grid():
    return Grid(2, 32)


@pytest.fixture
def params():
    return PhysicsParams(nu=1.0)


def _fresh_nonlinear(grid, u_spec, d_spec):
    """`_nonlinear` on a fresh workspace, whose batch its tendencies are
    views of."""
    return _nonlinear(grid, u_spec, d_spec, dynamics._workspace(grid))


def _band_limited(grid, rng, ncomp):
    """A random real field with modes |k_j| < res/4 on every axis only: a
    quadratic product of such fields has no mode the grid aliases."""
    spec = Field.from_phys(grid, rng.standard_normal((ncomp,) + grid.shape)).spec
    for k in grid.k_int:
        spec = np.where(np.abs(k) < grid.res // 4, spec, 0.0)
    return Field.from_spec(grid, spec)


def _convective_form(grid, u, d):
    """(N_u, N_d) half spectra of P[-(u.grad)u - lap d . grad d] and
    |grad d|^2 d - (u.grad)d with the products formed on the grid."""
    dim = grid.dim
    grad_u = [gradient(u, j).phys for j in range(dim)]
    grad_d = [gradient(d, j).phys for j in range(dim)]
    lap_d = laplacian(d).phys
    force = -sum(u.phys[j] * grad_u[j] for j in range(dim)) - np.stack(
        [np.sum(lap_d * grad_d[i], axis=0) for i in range(dim)])
    grad_sq = sum(np.sum(g * g, axis=0) for g in grad_d)
    transport = sum(u.phys[j] * grad_d[j] for j in range(dim))
    n_u = leray_project(dealias(Field.from_phys(grid, force)))
    n_d = dealias(Field.from_phys(grid, grad_sq * d.phys - transport))
    return n_u.spec, n_d.spec


@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_stress_form_matches_convective_form_without_aliasing(dim, res):
    # for divergence-free u, (u.grad)u = div(u u) and lap d . grad d =
    # div(grad d^T grad d) - grad(|grad d|^2 / 2), whose gradient the
    # projection removes; without aliasing the forms agree to roundoff
    grid = Grid(dim, res)
    rng = np.random.Generator(np.random.PCG64(11))
    u = leray_project(_band_limited(grid, rng, dim))
    d = _band_limited(grid, rng, 3)
    ku, kd = _fresh_nonlinear(grid, u.spec, d.spec)
    eu, ed = _convective_form(grid, u, d)
    assert np.max(np.abs(ku - eu)) < 1e-13 * np.max(np.abs(eu))
    assert np.max(np.abs(kd - ed)) < 1e-13 * np.max(np.abs(ed))


@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_pressure_matches_convective_form_without_aliasing(dim, res):
    # the pressure of the dealiased force -(u.grad)u - lap d . grad d formed
    # on the grid, lap p = div(force): the stress form must reproduce it
    # with the |grad d|^2 / 2 term that the projection of a stage drops
    grid = Grid(dim, res)
    rng = np.random.Generator(np.random.PCG64(12))
    u = leray_project(_band_limited(grid, rng, dim))
    d = _band_limited(grid, rng, 3)
    lap_d = laplacian(d).phys
    force = np.stack([
        -sum(u.phys[j] * gradient(u, j).phys[i] for j in range(dim))
        - np.sum(lap_d * gradient(d, i).phys, axis=0) for i in range(dim)])
    div_spec = divergence(dealias(Field.from_phys(grid, force))).spec
    p_spec = np.divide(div_spec, -grid.k2, out=np.zeros_like(div_spec),
                       where=grid.k2 > 0)
    expected = Field.from_spec(grid, p_spec).phys
    p = recover_pressure(FluidState(grid, u, d)).phys
    assert np.max(np.abs(p - expected)) < 1e-12 * np.max(np.abs(expected))


class TestPolicy:
    def test_defaults(self):
        policy = StepPolicy(t_max=1.0)
        assert policy.dt is None
        assert policy.cfl_factor == 0.5
        assert policy.integrator == "IF-RK4"

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPolicy(t_max=0.0)
        with pytest.raises(ValueError):
            StepPolicy(t_max=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            StepPolicy(t_max=1.0, dt=None, cfl_factor=1.5)
        with pytest.raises(ValueError):
            StepPolicy(t_max=1.0, integrator="euler")


class TestRhs:
    def test_taylor_green_momentum_is_pure_diffusion(self, grid, params):
        # the Taylor-Green nonlinearity is a gradient, so the projected
        # tendency is nu lap u = -2 nu u
        s = taylor_green(grid)
        u_t, _ = rhs(s, params)
        assert np.max(np.abs(u_t.phys + 2.0 * s.u.phys)) < 1e-11

    def test_winding_director_is_equilibrium(self, grid, params):
        u_t, d_t = rhs(winding_director(grid, k=1), params)
        assert np.max(np.abs(u_t.phys)) < 1e-11
        assert np.max(np.abs(d_t.phys)) < 1e-11

    def test_constant_director_has_zero_tendency(self, grid, params):
        _, d_t = rhs(taylor_green(grid), params)
        assert np.max(np.abs(d_t.phys)) < 1e-13

    def test_momentum_rhs_is_divergence_free(self, grid, params):
        u_t, _ = rhs(random_smooth(grid, seed=3), params)
        assert np.max(np.abs(divergence(u_t).phys)) < 1e-11

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_rhs_is_a_fresh_stage_less_the_linear_terms(self, dim, res):
        # rhs reads the state's pass, which runs the same stage as
        # `_nonlinear` on a fresh workspace
        grid, params = Grid(dim, res), PhysicsParams(nu=0.7)
        s = random_smooth(grid, seed=3)
        n_u, n_d = _fresh_nonlinear(grid, s.u.spec, s.d.spec)
        u_t, d_t = rhs(s, params)
        assert np.array_equal(u_t.spec, n_u - params.nu * grid.k2 * s.u.spec)
        assert np.array_equal(d_t.spec, n_d - grid.k2 * s.d.spec)


def _out_of_place_step(s, params, dt, integrator):
    """The Lawson tableau step written as whole-array expressions, one
    fresh array per operation in the stepper's order: the oracle of the
    in-place stepper."""
    grid = s.grid
    c, a, b = _TABLEAUS[integrator]

    def times_e(rate, theta, x):  # E(theta) x; E(0) = 1 is skipped
        return _decay(grid, rate * theta) * x if theta else x

    rates = (params.nu * dt, dt)
    y0 = (s.u.spec, s.d.spec)
    k = _fresh_nonlinear(grid, *y0)
    for i in range(len(b)):
        if i:
            k = _fresh_nonlinear(grid, *stage)
        if i + 1 < len(b):
            stage = [times_e(r, c[i + 1] - c[i], dt * a[i] * kf)
                     + _decay(grid, r * c[i + 1]) * yf
                     for r, kf, yf in zip(rates, k, y0)]
        terms = [times_e(r, 1.0 - c[i], dt * b[i] * kf)
                 for r, kf in zip(rates, k)]
        total = terms if i == 0 else [t + x for t, x in zip(total, terms)]
    u1, d1 = (_decay(grid, r) * yf + t for r, yf, t in zip(rates, y0, total))
    out = FluidState(grid, Field.from_spec(grid, project_spec(grid, u1)),
                     Field.from_spec(grid, d1), t=s.t + dt)
    return normalize_director(out)


def _textbook_step(s, params, dt, integrator):
    """IF-RK2 (Heun) and classical IF-RK4 as their textbook expressions,
    each written out in full: the same schemes associated differently."""
    grid = s.grid
    u0, d0 = s.u.spec, s.d.spec
    ku1, kd1 = _fresh_nonlinear(grid, u0, d0)
    if integrator == "IF-RK2":
        eu = _decay(grid, params.nu * dt)
        ed = _decay(grid, dt)
        ku2, kd2 = _fresh_nonlinear(grid, eu * (u0 + dt * ku1),
                                    ed * (d0 + dt * kd1))
        u1 = eu * u0 + 0.5 * dt * (eu * ku1 + ku2)
        d1 = ed * d0 + 0.5 * dt * (ed * kd1 + kd2)
    else:
        euh = _decay(grid, params.nu * dt / 2)
        edh = _decay(grid, dt / 2)
        euf = euh * euh
        edf = edh * edh
        ku2, kd2 = _fresh_nonlinear(grid, euh * (u0 + 0.5 * dt * ku1),
                                    edh * (d0 + 0.5 * dt * kd1))
        ku3, kd3 = _fresh_nonlinear(grid, euh * u0 + 0.5 * dt * ku2,
                                    edh * d0 + 0.5 * dt * kd2)
        ku4, kd4 = _fresh_nonlinear(grid, euf * u0 + dt * euh * ku3,
                                    edf * d0 + dt * edh * kd3)
        u1 = euf * u0 + dt / 6.0 * (euf * ku1 + 2.0 * euh * (ku2 + ku3) + ku4)
        d1 = edf * d0 + dt / 6.0 * (edf * kd1 + 2.0 * edh * (kd2 + kd3) + kd4)
    out = FluidState(grid, Field.from_spec(grid, project_spec(grid, u1)),
                     Field.from_spec(grid, d1), t=s.t + dt)
    return normalize_director(out)


def _order_conditions(c, a, b):
    """(sum, expected) of each Runge-Kutta order condition up to order 4
    (Butcher trees), for the Butcher matrix with a on its subdiagonal."""
    c, b = np.array(c), np.array(b)
    A = np.diag(a, -1)
    return {
        1: [(b.sum(), 1.0)],
        2: [(b @ c, 1 / 2)],
        3: [(b @ c**2, 1 / 3), (b @ A @ c, 1 / 6)],
        4: [(b @ c**3, 1 / 4), (b @ (c * (A @ c)), 1 / 8),
            (b @ A @ c**2, 1 / 12), (b @ A @ A @ c, 1 / 24)],
    }


@pytest.mark.parametrize("integrator, order", [("IF-RK2", 2), ("IF-RK4", 4)])
def test_tableau_row_sums_and_order_conditions(integrator, order):
    c, a, b = _TABLEAUS[integrator]
    assert len(c) == len(b) == len(a) + 1
    # row sums: c_i = sum_j a_ij
    assert np.allclose(np.diag(a, -1).sum(axis=1), c, rtol=0,
                       atol=4 * np.finfo(float).eps)
    conditions = _order_conditions(c, a, b)
    checked = [pair for p in range(1, order + 1) for pair in conditions[p]]
    assert len(checked) == {2: 2, 4: 8}[order]
    for got, want in checked:
        assert abs(got - want) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_stage_does_not_depend_on_the_chunk_height(monkeypatch, dim, res,
                                                   integrator):
    # one x0 row per chunk, 3 rows (the last chunk short) and the whole
    # grid: the step, the pass's maxima and the pressure are bit-identical,
    # as every 1-D line and every grid point sees the same data
    grid, params = Grid(dim, res), PhysicsParams(nu=0.7)
    results = []
    for rows in (1, 3, res):
        with monkeypatch.context() as patch:
            _rows_per_chunk(patch, grid, rows)
            s = random_smooth(grid, seed=3)
            memo = dynamics._pass(s)
            maxima = (memo.grad_sq, memo.u_max, memo.grad_d_max)
            pressure = recover_pressure(s).spec
            out = step(s, params, 0.01, integrator=integrator)
            results.append((out.u.spec, out.d.phys, pressure) + maxima)
    for result in results[1:]:
        for got, expected in zip(result, results[0]):
            assert np.array_equal(got, expected)


def _rows_per_chunk(monkeypatch, grid, rows):
    """Sets `_CHUNK_BYTES` to the grid fields of `rows` x0 rows."""
    row = (4 * grid.dim + 3) * 8 * grid.res ** (grid.dim - 1)
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", rows * row)
    assert dynamics._chunk_rows(grid) == rows


def _chunk_fields(grid, u_spec, d_spec):
    """The grid values (u, d, grad d) that `_chunks` yields, grad d[i, m] =
    d d_m / d x_i, each joined along x0 into a fresh array.  The products
    are zeroed, as an empty buffer's garbage would reach the transform."""
    work = dynamics._workspace(grid)
    chunks = []
    for _, *fields, out in dynamics._chunks(grid, work, u_spec, d_spec):
        out[...] = 0.0
        chunks.append([f.copy() for f in fields])
    u, d, grad_d = (np.concatenate(f, axis=-grid.dim) for f in zip(*chunks))
    return np.concatenate([u, d, grad_d.reshape((-1,) + grid.shape)])


def _allocating_shared_ifftn(grid, fields):
    """[u, d, grad d] on the grid from `fields` = [u, d] in one allocating
    inverse: d's gradient block j formed just before the pass along axis
    j, each pass on the whole batch, then one `irfft` into a fresh array."""
    dim = grid.dim
    spec = np.concatenate([fields, np.empty((3 * dim,) + grid.spec_shape,
                                            complex)])
    for axis in range(dim):
        stop = dim + 3 * (axis + 2)
        spec[stop - 3:stop] = grid.ik_deriv[axis] * spec[dim:dim + 3]
        if axis < dim - 1:
            for line in spectral._lines(grid, axis, grid.res // 2):
                view = spec[:stop][line]
                view[...] = np.fft.ifft(view, axis=axis - dim, norm="forward")
    return np.fft.irfft(spec, n=grid.res, axis=-1, norm="forward")


def _separate_ifftn(grid, fields):
    """[u, d, grad d] on the grid from `fields` = [u, d], with every
    gradient block formed before any pass."""
    dim = grid.dim
    return _ifftn(grid, np.concatenate(
        [fields] + [ik * fields[dim:] for ik in grid.ik_deriv]))


@pytest.mark.parametrize("dim, res", [(2, 16), (2, 64), (3, 8), (3, 32)])
def test_chunks_share_the_gradient(monkeypatch, dim, res):
    # chunks of 3 x0 rows, the last one short: bit-identical to one
    # allocating inverse that forms grad d the same way, and agreeing to
    # roundoff with the batch whose gradient is formed before any pass
    grid = Grid(dim, res)
    _rows_per_chunk(monkeypatch, grid, 3)
    rng = np.random.Generator(np.random.PCG64(3))
    fields = _fftn(grid, rng.standard_normal((dim + 3,) + grid.shape))
    shared = _chunk_fields(grid, fields[:dim], fields[dim:])
    assert np.array_equal(shared, _allocating_shared_ifftn(grid, fields))
    separate = _separate_ifftn(grid, fields)
    assert np.max(np.abs(shared - separate)) <= \
        1e-12 * np.max(np.abs(separate))
    # u and d themselves take the same passes as in the separate batch
    assert np.array_equal(shared[:dim + 3], separate[:dim + 3])


@pytest.mark.parametrize("dim, res", [(2, 16), (3, 8)])
def test_chunks_share_the_gradient_exactly_on_winding_director(monkeypatch,
                                                               dim, res):
    grid = Grid(dim, res)
    _rows_per_chunk(monkeypatch, grid, 3)
    s = winding_director(grid, k=2)
    fields = np.concatenate([s.u.spec, s.d.spec])
    assert np.array_equal(_chunk_fields(grid, s.u.spec, s.d.spec),
                          _separate_ifftn(grid, fields))


@pytest.mark.parametrize("dim, res", [(2, 64), (3, 16)])
def test_chunks_allocate_nothing_beyond_the_workspace(monkeypatch, dim, res):
    # at one x0 row per chunk the workspace's chunk buffers are one row
    # high; the transforms run in them and in the batch and allocate only
    # numpy's ufunc buffer for the broadcast ik_j multiplies (bounded, not
    # per component) and a few small Python objects
    grid = Grid(dim, res)
    _rows_per_chunk(monkeypatch, grid, 1)
    s = random_smooth(grid, seed=3)
    work = dynamics._workspace(grid)
    assert [buffer.shape[1] for buffer in work[1:]] == [1, 1, 1]

    def run():
        for _, u, d, grad_d, out in dynamics._chunks(grid, work, s.u.spec,
                                                     s.d.spec):
            out[...] = 0.0
            assert all(np.shares_memory(f, work[2]) for f in (u, d, grad_d))
            assert np.shares_memory(out, work[3])

    run()  # fills the grid's tables and d's spectrum
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= np.getbufsize() * 16 + 16 * 1024


@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_nonlinear_on_step_buffers_matches_fresh_arrays(dim, res):
    # the stage input sits in the batch's u and d slots, as in `step`
    grid = Grid(dim, res)
    s = random_smooth(grid, seed=5)
    work = dynamics._workspace(grid)
    batch = work[0]
    batch[:dim], batch[dim:dim + 3] = s.u.spec, s.d.spec
    k = _nonlinear(grid, batch[:dim], batch[dim:dim + 3], work)
    fresh = _fresh_nonlinear(grid, s.u.spec, s.d.spec)
    for view, expected in zip(k, fresh):
        assert np.shares_memory(view, batch)
        assert np.array_equal(view, expected)


class TestStep:
    @pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_runs_in_the_pass_batch(self, dim, res, integrator):
        # after a warm-up step and a record, the step takes over the pass's
        # workspace, its batch and chunk buffers, so its peak above live
        # memory is the running sum (dim + 3 spectral components), within
        # the products (dim(dim+1)/2 + 3 grid components) the unchunked
        # stage allocated; 2 spectral and 3 grid components more cover the
        # inverse transform's scratch, a force term, numpy's ufunc buffers
        # and the Python objects
        grid, params = Grid(dim, res), PhysicsParams()
        s = step(random_smooth(grid, seed=4), params, 0.01,
                 integrator=integrator)
        blowup_integrand(s)
        measure(s, 0.0)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            step(s, params, 0.01, integrator=integrator)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        spectral = (grid.res // 2 + 1) / (grid.res // 2)  # grid components
        budget = (dim + 5) * spectral + dim * (dim + 1) // 2 + 3 + 3
        assert peak / (8 * res**dim) <= budget

    def test_peak_stays_below_the_sum_and_one_products_buffer(self):
        # the stage runs chunk by chunk of x0 rows in the workspace of the
        # state's pass, so a step on a memoized state builds no full-grid
        # products buffer: its peak above live memory stays below the
        # running sum (dim + 3 spectral components) plus one such buffer
        # (dim(dim+1)/2 + 3 grid components)
        dim, res = 3, 32
        grid, params = Grid(dim, res), PhysicsParams()
        s = step(random_smooth(grid, seed=4), params, 0.01,
                 integrator="IF-RK2")
        blowup_integrand(s)  # memoizes the pass
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            step(s, params, 0.01, integrator="IF-RK2")
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        running_sum = (dim + 3) * 16 * math.prod(grid.spec_shape)
        products = (dim * (dim + 1) // 2 + 3) * 8 * res**dim
        assert peak < running_sum + products

    @pytest.mark.parametrize("nu", [1.0, 0.3])
    @pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_matches_out_of_place_expressions(self, dim, res, integrator, nu):
        # bit-identical to the oracle; the input state is left intact
        params = PhysicsParams(nu=nu)
        s = random_smooth(Grid(dim, res), seed=8, amplitude=1.5)
        u_spec, d_spec = s.u.spec.copy(), s.d.spec.copy()
        out = step(s, params, 0.01, integrator=integrator)
        assert np.array_equal(s.u.spec, u_spec)
        assert np.array_equal(s.d.spec, d_spec)
        oracle = _out_of_place_step(random_smooth(Grid(dim, res), seed=8,
                                                  amplitude=1.5),
                                    params, 0.01, integrator)
        assert np.array_equal(out.u.spec, oracle.u.spec)
        assert np.array_equal(out.d.phys, oracle.d.phys)

    @pytest.mark.parametrize("nu", [1.0, 0.3])
    @pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_matches_textbook_expressions(self, dim, res, integrator, nu):
        # the same scheme as the textbook IF-RK2/IF-RK4 formulas, whose sums
        # are associated differently: equal to roundoff
        params = PhysicsParams(nu=nu)
        out = step(random_smooth(Grid(dim, res), seed=8, amplitude=1.5),
                   params, 0.01, integrator=integrator)
        oracle = _textbook_step(random_smooth(Grid(dim, res), seed=8,
                                              amplitude=1.5),
                                params, 0.01, integrator)
        for got, want in ((out.u.spec, oracle.u.spec),
                          (out.d.phys, oracle.d.phys)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
    def test_winding_director_stationary(self, grid, params, integrator):
        s0 = winding_director(grid, k=1)
        s = s0
        for _ in range(20):
            s = step(s, params, 0.05, integrator=integrator)
        assert np.max(np.abs(s.d.phys - s0.d.phys)) < 1e-12
        assert np.max(np.abs(s.u.phys)) < 1e-13
        assert abs(s.t - 1.0) < 1e-12

    @pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
    def test_taylor_green_exact_decay(self, grid, params, integrator):
        # pure-gradient nonlinearity is annihilated by the projection, so
        # the integrating factor integrates this flow exactly
        s0 = taylor_green(grid)
        s = s0
        for _ in range(10):
            s = step(s, params, 0.01, integrator=integrator)
        exact = np.exp(-2.0 * 0.1) * s0.u.phys
        assert np.max(np.abs(s.u.phys - exact)) < 1e-12

    def test_zero_state_is_fixed_point(self, grid, params):
        s = FluidState(grid, Field.zeros(grid, 2),
                       winding_director(grid, k=1).d)
        s = step(s, params, 0.1)
        assert np.max(np.abs(s.u.phys)) < 1e-14

    def test_preserves_invariants_on_random_data(self, grid, params):
        s = random_smooth(grid, seed=5)
        for _ in range(5):
            s = step(s, params, 0.01)
        assert np.max(np.abs(divergence(s.u).phys)) < 1e-10
        assert measure(s, 0.0).sphere_norm_err < 1e-12

    def test_energy_decreases(self, grid, params):
        s = random_smooth(grid, seed=6, amplitude=1.0)
        energy_prev = measure(s, 0.0).energy
        for _ in range(20):
            s = step(s, params, 0.01)
            energy = measure(s, 0.0).energy
            assert energy <= energy_prev + 1e-10
            energy_prev = energy

    def test_invalid_arguments(self, grid, params):
        s = taylor_green(grid)
        # an infinite dt is bad input, not a suspected blow-up
        for dt in (-0.1, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                step(s, params, dt)
        with pytest.raises(ValueError):
            step(s, params, 0.1, integrator="leapfrog")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self, grid, params):
        # non-constant so the quadratic advection product overflows
        s = taylor_green(grid, amplitude=1e200)
        with pytest.raises(NumericalOverflowError):
            step(s, params, 10.0)


class TestSuggestDt:
    def test_fixed_dt_capped_by_remaining_time(self, grid):
        s = taylor_green(grid)
        policy = StepPolicy(t_max=1.0, dt=0.3)
        assert suggest_dt(s, policy) == 0.3
        late = FluidState(grid, s.u, s.d, t=0.9)
        assert abs(suggest_dt(late, policy) - 0.1) < 1e-12

    def test_cfl_for_unit_speed_flow(self, grid):
        # max speed and max |grad d| are both 1, so dt = cfl * dx
        s = taylor_green(grid)
        policy = StepPolicy(t_max=10.0, cfl_factor=0.5)
        expected = 0.5 * 2 * np.pi / 32
        assert abs(suggest_dt(s, policy) - expected) < 1e-12

    def test_cfl_floor_speed_of_one(self, grid):
        # quiescent slow states fall back to unit speed, not infinite dt
        s = FluidState(grid, Field.zeros(grid, 2), taylor_green(grid).d)
        policy = StepPolicy(t_max=10.0, cfl_factor=0.5)
        assert abs(suggest_dt(s, policy) - 0.5 * 2 * np.pi / 32) < 1e-12

    def test_cfl_scales_with_speed(self, grid):
        from nematicflow.scenarios import taylor_green as tg
        fast = tg(grid, amplitude=4.0)
        policy = StepPolicy(t_max=10.0, cfl_factor=0.5)
        assert abs(suggest_dt(fast, policy) - 0.5 * 2 * np.pi / 32 / 4) < 1e-12


class TestDecayCache:
    def test_adaptive_run_keeps_a_bounded_cache(self, params):
        _decay.cache_clear()
        s = random_smooth(Grid(2, 16), seed=2, amplitude=3.0)
        policy = StepPolicy(t_max=0.5, cfl_factor=0.5)
        dts = set()
        while s.t < policy.t_max - 1e-12:
            dt = suggest_dt(s, policy)
            dts.add(dt)
            s = step(s, params, dt)
        assert len(dts) > 4
        # a fixed-dt run's factors plus those of a shortened final step
        assert _decay.cache_info().currsize <= 4

    @pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
    def test_fixed_dt_run_hits_the_cache(self, grid, integrator):
        _decay.cache_clear()
        params = PhysicsParams(nu=0.5)  # distinct factors for u and d
        s = random_smooth(grid, seed=2)
        for dt in [0.01] * 3 + [0.004] + [0.01] * 2:
            s = step(s, params, dt, integrator=integrator)
        info = _decay.cache_info()
        # misses only on the first step and on the shortened one, and for
        # IF-RK4 on the step after it.  IF-RK2 looks up E(dt) per field, 2
        # factors a step.  IF-RK4 looks up E(dt/2) and E(dt) per field, 3
        # distinct factors a step (nu = 0.5 makes E_u(dt) the key of
        # E_d(dt/2)) in a cache of four, so the shortened step's 3 push out
        # the full step's
        expected = {"IF-RK2": (4, 8), "IF-RK4": (9, 15)}[integrator]
        assert (info.misses, info.hits) == expected


# the stage's layout, its chunks and the functions that write them, which
# `dynamics` owns
_STAGE_NAMES = {"_PAIRS", "_SLOTS", "_CHUNK_BYTES", "_batch", "_chunk_rows",
                "_workspace", "_chunks", "_products", "_stage"}


# the per-state record (`dynamics._Memo`) and the key of a state's instance
# dict that holds it: `dynamics` alone creates, stores and empties it
_MEMO_NAMES = {"_Memo", "_memo"}


def _stage_uses(source, names=_STAGE_NAMES):
    """Line numbers at which `source` defines, imports or reads one of
    `names`: a def, class or assignment of the name, an import of it, or
    `<module>.<name>`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found = {node.id}
        elif isinstance(node, ast.ImportFrom):
            found = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            found = {node.attr}
        else:
            continue
        if found & names:
            lines.append(node.lineno)
    return lines


def _memo_uses(source):
    """Line numbers at which `source` names the record's storage: the forms
    of `_stage_uses` for `_MEMO_NAMES`, which take in `<state>._memo` read
    or written, and a string constant that is one of them, such as a key
    of `vars(state)` or a name given to getattr or setattr."""
    return sorted(_stage_uses(source, _MEMO_NAMES) + [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in _MEMO_NAMES])


def _layout_knobs(source):
    """Line numbers of the functions in `source` that are generators or
    take a `grad` or `work` parameter: the forms of a transform that runs
    a caller's chunk loop or knows its buffers."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if {arg.arg for arg in args} & {"grad", "work"} or any(
                isinstance(inner, (ast.Yield, ast.YieldFrom))
                for inner in ast.walk(node)):
            lines.append(node.lineno)
    return lines


def _package_imports(source):
    """The modules of the package that `source`, one of its modules,
    imports: relatively or as `nematicflow.<module>`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "nematicflow":
                continue
            if node.level == 0:
                module = module[1:]
            if module and module[0]:
                found.add(module[0])
            else:  # from . import <modules>
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("nematicflow."))
    return found


def test_stage_guards_detect_each_form():
    assert _stage_uses("def _batch(grid):\n    pass\n") == [1]
    assert _stage_uses("_PAIRS = {}\n") == [1]
    assert _stage_uses("from .dynamics import step, _products\n") == [1]
    assert _stage_uses("from . import dynamics\ndynamics._chunks(g)\n") \
        == [2]
    assert _stage_uses("batch = make(grid)\nstep(s, '_batch')\n") == []
    assert _layout_knobs("def f(grid, spec):\n    yield spec\n") == [1]
    assert _layout_knobs("def f(spec):\n    yield from spec\n") == [1]
    assert _layout_knobs("x = 1\ndef f(spec, grad=0):\n    pass\n") == [2]
    assert _layout_knobs("def f(spec, *, work=None):\n    pass\n") == [1]
    assert _layout_knobs("def f(spec, rows):\n    return (r for r in rows)\n"
                         "g = f(work, grad)\n") == []
    assert _memo_uses("class _Memo:\n    pass\n") == [1]
    assert _memo_uses("s._memo.clear()\n") == [1]
    assert _memo_uses("x = 1\ns._memo = {}\n") == [2]
    assert _memo_uses("record = vars(s)['_memo']\n") == [1]
    assert _memo_uses("s.__dict__.pop('_memo')\n") == [1]
    assert _memo_uses("getattr(s, '_memo').u_max\n") == [1]
    assert _memo_uses("from .dynamics import _pass, _Memo\n") == [1]
    assert _memo_uses("record = dynamics._Memo()\n") == [1]
    assert _memo_uses("from .dynamics import _memo_of\nm = _memo_of(s)\n"
                      "m.omega_max = max(m.omega_max, _pass(s).u_max)\n") \
        == []
    assert _package_imports(
        "from __future__ import annotations\nimport numpy as np\n"
        "from .errors import E\nfrom . import dynamics, runner\n"
        "from nematicflow.config import c\nfrom nematicflow import cli\n"
        "import nematicflow.verify\n") == {
            "errors", "dynamics", "runner", "config", "cli", "verify"}


def test_only_dynamics_knows_the_stage_layout():
    # one owner for the stage: every other module goes through `_pass`,
    # `_nonlinear`, `step` and `recover_pressure`, the state module holds
    # the state alone, and spectral's transforms and passes are layout-free:
    # none runs a chunk loop or takes the stage's gradient or buffers
    package = Path(nematicflow.__file__).parent
    found = {path.name: _stage_uses(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("dynamics.py"), "the guard no longer sees the stage"
    assert {name: lines for name, lines in found.items() if lines} == {}
    state_source = (package / "state.py").read_text("utf-8")
    assert _package_imports(state_source) == {"errors", "spectral"}
    assert _layout_knobs((package / "spectral.py").read_text("utf-8")) == []


def test_only_dynamics_keeps_the_state_record():
    # one owner for the per-state record: `diagnostics` and `runner` reach
    # it through `_memo_of` and `_pass` and use its attributes, and the
    # state module does not know it exists
    package = Path(nematicflow.__file__).parent
    found = {path.name: _memo_uses(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("dynamics.py"), "the guard no longer sees the record"
    assert {name: lines for name, lines in found.items() if lines} == {}
    state_source = (package / "state.py").read_text("utf-8")
    assert "memo" not in state_source.lower()


def _record_writes(source):
    """Line numbers at which `source` names `_memo_of`, or stores or
    deletes an attribute named like a field of the record
    (`dynamics._Memo`), directly or through setattr or delattr."""
    names = {field.name for field in dataclasses.fields(dynamics._Memo)}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found = node.id == "_memo_of"
        elif isinstance(node, ast.alias):
            found = node.name == "_memo_of"
        elif isinstance(node, ast.Attribute):
            found = node.attr == "_memo_of" or (
                node.attr in names and not isinstance(node.ctx, ast.Load))
        elif isinstance(node, ast.Call):
            found = isinstance(node.func, ast.Name) \
                and node.func.id in ("setattr", "delattr") \
                and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in names
        else:
            continue
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_dynamics_writes_the_state_record():
    # one writer for each field of the per-state record, all in `dynamics`:
    # every other module reads the record through `_pass`, `_omega_linf`
    # and `_grad_d_linf` and never names `_memo_of`
    assert _record_writes("from .dynamics import _memo_of\n") == [1]
    assert _record_writes("m = dynamics._memo_of(s)\n") == [1]
    assert _record_writes("x = 1\nm.omega_fine = linf_norm(w)\n") == [2]
    assert _record_writes("m.u_max += 1.0\ndel m.work\n") == [1, 2]
    assert _record_writes("setattr(m, 'grad_d_fine', g)\n") == [1]
    assert _record_writes("g = _pass(s).grad_d_max\nw = m.work[0]\n") == []
    package = Path(nematicflow.__file__).parent
    found = {path.name: _record_writes(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("dynamics.py"), "the guard no longer sees the record"
    assert {name: lines for name, lines in found.items() if lines} == {}
