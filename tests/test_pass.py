"""Tests for the per-state transform pass: the first stage of a step, the
monitor maxima, the CFL speed and the record all read one evaluation."""

import copy
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematicflow import diagnostics, dynamics, runner
from nematicflow.config import load_config
from nematicflow.diagnostics import blowup_integrand, measure
from nematicflow.dynamics import (StepPolicy, _memo_of, _nonlinear, _pass,
                                  recover_pressure, rhs, step, suggest_dt)
from nematicflow.scenarios import random_smooth
from nematicflow.spectral import (Field, Grid, curl, dealias, gradient,
                                  l2_norm, laplacian, linf_norm)
from nematicflow.state import PhysicsParams

GRIDS = {2: Grid(2, 16), 3: Grid(3, 8)}


def _stacked_gradient(f):
    """All first derivatives of `f` stacked as one field, axis by axis."""
    return Field.from_phys(f.grid, np.concatenate(
        [gradient(f, i).phys for i in range(f.grid.dim)]))


@pytest.fixture
def transforms(monkeypatch):
    """Log (phase, kind, arrays, res) of every transform; the phase is the
    runner-level call in progress, or None."""
    log = []
    phase = [None]

    # both transforms are sequences of 1-D passes: the forward an `rfft`
    # along the last axis, then `fft` passes from axis -2 down to -dim; the
    # inverse `ifft` passes from axis -dim up to -2, then `irfft` calls
    # along the last axis, one per component or one per chunk of x0 rows.
    # Every transformed array has one component axis.  An entry counts
    # whole arrays: a batch's elements over those of one of its arrays, so
    # the chunks of a chunked batch sum to it.  A forward entry opens at an
    # `rfft`, takes the `rfft` calls of the chunks that follow and closes
    # at the batch's pass along x0, axis -(ndim - 1).  An inverse entry
    # opens at the first `irfft` after an `ifft` along axis -rank or
    # deeper, rank the deepest pass of the open entry, and sums the
    # `irfft` calls up to the next such `ifft`; a chunk's `ifft` along a
    # later axis does not close it.
    fft, ifft, rfft, irfft = np.fft.fft, np.fft.ifft, np.fft.rfft, np.fft.irfft
    forward = [None]  # (log index, elements, res) of the open batch
    inverse = [None]  # (log index, rank) of the open batch
    depth = [0]  # the rank of the `ifft` passes since the last batch

    def counting_rfft(a, *args, **kwargs):
        if forward[0] is None:
            forward[0] = (len(log), 0, a.shape[-1])
            log.append((phase[0], "forward", 0, a.shape[-1]))
        index, size, res = forward[0]
        forward[0] = (index, size + a.size, res)
        return rfft(a, *args, **kwargs)

    def counting_fft(a, *args, **kwargs):
        if forward[0] is not None and -kwargs["axis"] == a.ndim - 1:
            index, size, res = forward[0]
            name, kind, _, _ = log[index]
            log[index] = (name, kind, Fraction(size, res ** (a.ndim - 1)), res)
            forward[0] = None
        return fft(a, *args, **kwargs)

    def counting_ifft(a, *args, **kwargs):
        if inverse[0] is None or -kwargs["axis"] >= inverse[0][1]:
            inverse[0] = None
        depth[0] = max(depth[0], -kwargs["axis"])
        return ifft(a, *args, **kwargs)

    def counting_irfft(a, *args, **kwargs):
        if inverse[0] is None:
            inverse[0], depth[0] = (len(log), depth[0]), 0
            log.append((phase[0], "inverse", 0, kwargs["n"]))
        index, rank = inverse[0]
        name, kind, n, res = log[index]
        array = res ** (rank - 1) * (res // 2 + 1)
        log[index] = (name, kind, n + Fraction(a.size, array), res)
        return irfft(a, *args, **kwargs)

    def in_phase(fn, name):
        def wrapped(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = None
        return wrapped

    for name, counted in (("fft", counting_fft), ("ifft", counting_ifft),
                          ("rfft", counting_rfft), ("irfft", counting_irfft)):
        monkeypatch.setattr(np.fft, name, counted)
    for module, name in ((runner, "build_scenario"), (runner, "step"),
                         (runner, "suggest_dt"),
                         (diagnostics, "blowup_integrand"),
                         (diagnostics, "measure")):
        monkeypatch.setattr(module, name, in_phase(getattr(module, name), name))
    return log


@pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
@pytest.mark.parametrize("dim", [2, 3])
def test_step_on_memoized_state_is_bit_identical(dim, integrator):
    s = random_smooth(GRIDS[dim], seed=4)
    measure(s, blowup_integrand(s), 0.0)
    out = step(s, PhysicsParams(), 0.01, integrator=integrator)
    assert _memo_of(s).work is None  # the step took the pass's workspace
    fresh = step(replace(s), PhysicsParams(), 0.01, integrator=integrator)
    assert np.array_equal(out.u.spec, fresh.u.spec)
    assert np.array_equal(out.d.phys, fresh.d.phys)


@pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
@pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
def test_stepping_a_memoized_state_twice_gives_one_result(dim, res,
                                                          integrator):
    # the first step takes over the pass's workspace and empties the
    # state's record, which a shallow copy shares, so the second step and
    # the copy's run the pass again; the state itself is untouched, and a
    # record of it reads as before
    s = random_smooth(Grid(dim, res), seed=6)
    integrand = blowup_integrand(s)  # memoizes the pass
    before = measure(s, integrand, 0.0)
    twin = copy.copy(s)
    first = step(s, PhysicsParams(), 0.01, integrator=integrator)
    for again in (step(s, PhysicsParams(), 0.01, integrator=integrator),
                  step(twin, PhysicsParams(), 0.01, integrator=integrator)):
        assert np.array_equal(first.u.spec, again.u.spec)
        assert np.array_equal(first.u.phys, again.u.phys)
        assert np.array_equal(first.d.phys, again.d.phys)
    assert blowup_integrand(s) == integrand
    assert measure(s, integrand, 0.0) == before


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def test_an_interrupted_pass_runs_again(monkeypatch):
    # a pass cut short leaves no record that reads as complete: the next
    # consumer runs it again, and the step matches a fresh state's
    s = random_smooth(GRIDS[2], seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_products", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            _pass(s)
    out = step(s, PhysicsParams(), 0.01)
    fresh = step(replace(s), PhysicsParams(), 0.01)
    assert np.array_equal(out.u.spec, fresh.u.spec)
    assert np.array_equal(out.d.phys, fresh.d.phys)


@pytest.mark.parametrize("dim, arrays", [(2, 17), (3, 24)])
def test_nonlinear_stage_transforms_its_budget(transforms, dim, arrays):
    s = random_smooth(GRIDS[dim], seed=4)
    u_spec, d_spec = s.u.spec, s.d.spec
    transforms.clear()
    _nonlinear(s.grid, u_spec, d_spec)
    # inverse [u, d, grad d]; forward the dim(dim+1)/2 stress components
    # and the 3 director products as one batch; each summed over the
    # stage's chunks of x0 rows
    stress = dim * (dim + 1) // 2
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("inverse", 4 * dim + 3), ("forward", stress + 3)]
    assert sum(n for _, _, n, _ in transforms) == arrays


@pytest.mark.parametrize("dim", [2, 3])
def test_pressure_reads_a_memoized_pass(transforms, dim):
    s = random_smooth(GRIDS[dim], seed=4)
    blowup_integrand(s)  # memoizes the pass
    transforms.clear()
    recover_pressure(s)
    # the pass keeps the force -div sigma and |grad d|^2 on the grid, so
    # the pressure runs no stage: it forward-transforms |grad d|^2 alone
    assert [(kind, n) for _, kind, n, _ in transforms] == [("forward", 1)]


@pytest.mark.parametrize("dim", [2, 3])
def test_rhs_and_suggest_dt_read_the_pass(transforms, dim):
    # rhs transforms the state once, in its pass, and an adaptive CFL step
    # read after it makes no transform of its own
    s = random_smooth(GRIDS[dim], seed=4)
    transforms.clear()
    rhs(s, PhysicsParams())
    # d's forward transform, then the first stage, as in `_pass`
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("forward", 3), ("inverse", 4 * dim + 3),
        ("forward", dim * (dim + 1) // 2 + 3)]
    transforms.clear()
    rhs(s, PhysicsParams())
    suggest_dt(s, StepPolicy(t_max=1.0))
    assert transforms == []


@pytest.mark.parametrize("dim", [2, 3])
def test_pressure_of_a_memoized_state_is_a_fresh_states(dim):
    s = random_smooth(GRIDS[dim], seed=4)
    blowup_integrand(s)  # memoizes the pass
    assert np.array_equal(recover_pressure(s).spec,
                          recover_pressure(replace(s)).spec)


@pytest.mark.parametrize("integrator", ["IF-RK2", "IF-RK4"])
@pytest.mark.parametrize("dim", [2, 3])
def test_pressure_and_rhs_after_a_step_are_a_fresh_states(dim, integrator):
    # the step takes the pass's workspace, so the pressure and the
    # tendencies of the stepped-from state run its pass again
    s, params = random_smooth(GRIDS[dim], seed=4), PhysicsParams(nu=0.7)
    rhs(s, params)
    step(s, params, 0.01, integrator=integrator)
    assert _memo_of(s).work is None
    fresh = replace(s)
    assert np.array_equal(recover_pressure(s).spec,
                          recover_pressure(fresh).spec)
    for got, expected in zip(rhs(s, params), rhs(fresh, params)):
        assert np.array_equal(got.spec, expected.spec)


@pytest.mark.parametrize("dim", [2, 3])
def test_random_smooth_transforms_its_budget(transforms, dim):
    s = random_smooth(GRIDS[dim], seed=4)
    # forward: the u and d noise, then d at half-band steps 2 and 3;
    # inverse: u for max|u|, d for max|d - e_z|, d at each half-band step
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("forward", dim), ("inverse", dim), ("forward", 3), ("inverse", 3),
        ("inverse", 3), ("forward", 3), ("inverse", 3), ("forward", 3),
        ("inverse", 3)]
    transforms.clear()
    _pass(s)
    # u keeps its spectrum, so the pass forward-transforms d, and then runs
    # the first stage
    assert [(kind, n) for _, kind, n, _ in transforms] == [
        ("forward", 3), ("inverse", 4 * dim + 3),
        ("forward", dim * (dim + 1) // 2 + 3)]


def _batches(transforms, phase, kind, res=16):
    return sorted(n for p, k, n, r in transforms
                  if (p, k, r) == (phase, kind, res))


def test_fixed_dt_run_transforms_each_state_once(tmp_path, transforms):
    text = (f"dim = 2\nres = 16\nscenario = random_smooth\n"
            f"dt = {2.0 ** -10!r}\nt_max = {4 * 2.0 ** -10!r}\n"
            f"integrator = IF-RK4\nrecord_every = 2\noutput_dir = {tmp_path}\n")
    report = runner.run(load_config(text))
    assert len(report.history) == 3

    def batches(phase, kind):
        return _batches(transforms, phase, kind)

    assert all(p is not None for p, _, _, r in transforms if r == 16)
    assert all(r == 16 for _, _, _, r in transforms)
    assert batches("suggest_dt", "inverse") == []
    assert batches("suggest_dt", "forward") == []
    # the 2-D monitor reads the pass of each of the 5 states, the first
    # stage's [u, d, grad d] and products, no batch of its own; each state
    # holds d on the grid, so the pass forward-transforms it first
    assert batches("blowup_integrand", "inverse") == [11] * 5
    assert batches("blowup_integrand", "forward") == [3] * 5 + [6] * 5
    # each record adds the cubic term's forward transform, lap d (the
    # tension is summed by Parseval) and the 2-D omega for max|omega|
    assert batches("measure", "forward") == [3] * 3
    assert batches("measure", "inverse") == [1] * 3 + [3] * 3
    # stages 2-4 and the renormalized director; stage 1 is the pass
    assert batches("step", "inverse") == sorted([11] * 3 * 4 + [3] * 4)
    # stages 2-4: the 3 stress components and the 3 director products
    assert batches("step", "forward") == [6] * 3 * 4


@pytest.mark.parametrize("adaptive", [False, True])
def test_run_holds_one_pass_workspace_at_a_time(tmp_path, monkeypatch,
                                                adaptive):
    # each state's pass creates a workspace, and the step that advances the
    # state takes it over and empties the state's record, so a reference to
    # the record (`runner.run`'s start check keeps one) holds nothing: when
    # a step starts only the stepped state's workspace is alive
    batches = []

    def workspace(grid, make=dynamics._workspace):
        work = make(grid)
        batches.append(weakref.ref(work[0]))
        return work

    alive = []

    def counted(*args, step=runner.step, **kwargs):
        alive.append(sum(ref() is not None for ref in batches))
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_workspace", workspace)
    monkeypatch.setattr(runner, "step", counted)
    policy = ("cfl_factor = 0.1\nt_max = 0.2" if adaptive else
              f"dt = {2.0 ** -10!r}\nt_max = {4 * 2.0 ** -10!r}")
    text = (f"dim = 2\nres = 16\nscenario = random_smooth\n{policy}\n"
            f"record_every = 2\noutput_dir = {tmp_path}\n")
    runner.run(load_config(text))
    assert len(alive) >= 4
    assert alive == [1] * len(alive)


def test_adaptive_run_computes_the_pass_in_suggest_dt(tmp_path, transforms):
    # suggest_dt runs first after each step, so it transforms each state;
    # the oversampled monitor and record add only their fine-grid maxima
    text = (f"dim = 2\nres = 16\nscenario = random_smooth\nt_max = 0.2\n"
            f"cfl_factor = 0.1\nrecord_every = 1\noversample_linf = true\n"
            f"output_dir = {tmp_path}\n")
    report = runner.run(load_config(text))
    states = len(report.history)
    assert states > 2
    assert _batches(transforms, "suggest_dt", "inverse") == [11] * states
    assert _batches(transforms, "blowup_integrand", "inverse") == []
    assert _batches(transforms, "blowup_integrand", "inverse", 32) == \
        [6] * states
    assert _batches(transforms, "measure", "inverse") == [3] * states
    assert _batches(transforms, "measure", "inverse", 32) == [1] * states


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       amplitude=st.floats(0.1, 3.0))
def test_pass_scalars_match_their_operators(dim, seed, amplitude):
    s = random_smooth(GRIDS[dim], seed=seed, amplitude=amplitude)
    # the maxima of the pass and of the curl batch, and the record's
    # spectral sums (Parseval) against grid sums of the operators
    memo, rec = _pass(s), measure(s, 0.0, 0.0)
    grid = s.grid
    omega, grad_u, grad_d = curl(s.u), _stacked_gradient(s.u), \
        _stacked_gradient(s.d)
    k2 = sum(k * k for k in grid.k_deriv)
    # the tension on the grid: lap d plus the dealiased |grad d|^2 d
    cubic = np.sum(grad_d.phys**2, axis=0) * s.d.phys
    tension = laplacian(s.d).phys + dealias(Field.from_phys(grid, cubic)).phys
    expected = {
        "u_max": (memo.u_max, linf_norm(s.u)),
        "omega_max": (rec.omega_linf, linf_norm(omega)),
        "grad_d_max": (memo.grad_d_max, linf_norm(grad_d)),
        "u_l2": (rec.u_l2, l2_norm(s.u)),
        "grad_u_sq": (diagnostics._l2_sq(grid, s.u.spec, k2),
                      l2_norm(grad_u) ** 2),
        "omega_l2": (rec.omega_l2, l2_norm(omega)),
        "grad_d_l2": (rec.grad_d_l2, l2_norm(grad_d)),
        "hess_d_l2": (rec.hess_d_l2, l2_norm(laplacian(s.d))),
        "dissipation": (rec.dissipation, 2.0 * (
            l2_norm(grad_u) ** 2 + grid.cell_volume * np.sum(tension**2))),
    }
    for name, (value, oracle) in expected.items():
        assert value == pytest.approx(oracle, rel=1e-12), name


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       amplitude=st.floats(0.1, 3.0), oversample=st.booleans(),
       order=st.permutations(["measure", "blowup_integrand", "suggest_dt",
                              "step"]))
def test_record_does_not_depend_on_first_consumer(dim, seed, amplitude,
                                                  oversample, order):
    def build():
        return random_smooth(GRIDS[dim], seed=seed, amplitude=amplitude)

    reference = measure(build(), 0.25, 0.5, oversample=oversample)
    s = build()
    consumers = {
        "measure": lambda: measure(s, 0.25, 0.5, oversample=oversample),
        "blowup_integrand": lambda: blowup_integrand(s, oversample=oversample),
        "suggest_dt": lambda: suggest_dt(s, StepPolicy(t_max=1.0)),
        "step": lambda: step(s, PhysicsParams(), 1e-3),
    }
    for name in order:
        consumers[name]()
    assert measure(s, 0.25, 0.5, oversample=oversample) == reference
