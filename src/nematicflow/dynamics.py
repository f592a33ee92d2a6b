"""Right-hand-side evaluation, integrating-factor IMEX time stepping and
the pressure.

The semi-discrete system in spectral space is

    u_hat' = -nu |k|^2 u_hat + N_u(u, d)
    d_hat' = -    |k|^2 d_hat + N_d(u, d)

with N_u = P[-(u.grad)u - lap d . grad d] (P the Leray projection) and
N_d = |grad d|^2 d - (u.grad)d.  Diffusion is integrated exactly via the
per-mode factors exp(-nu |k|^2 dt), exp(-|k|^2 dt); the nonlinear parts are
advanced explicitly in Lawson's integrating-factor Runge-Kutta form, IF-RK2
(Heun) and IF-RK4 (classical) being two rows of one table, run by one loop
that keeps one stage tendency alive at a time.

Stress form: for divergence-free u, (u.grad)u = div(u u^T) and
lap d . grad d = div(grad d^T grad d) - grad(|grad d|^2 / 2), so

    -(u.grad)u - lap d . grad d = -div(sigma - |grad d|^2 I / 2),
    sigma_ab = u_a u_b + d_a d . d_b d     (d_a = d / d x_a),

and N_u = P[-i k . sigma_hat], since the projection removes the gradient.
A stage transforms [u, d, grad d] to the grid, forms sigma (dim(dim+1)/2
components, `_PAIRS`) and N_d pointwise and transforms them back
dealiased by the 2/3 rule: 17 arrays in 2-D, 24 in 3-D; linear terms are
never dealiased.  The pressure is fixed by the same stress: with the force
F = -div sigma, -(u.grad)u - lap d . grad d = F + grad(|grad d|^2 / 2), so
p_hat = -i k . F_hat / |k|^2 + (|grad d|^2)_hat / 2 wherever the |k|^2 of
the derivative tables is nonzero, and 0 elsewhere.

A stage runs chunk by chunk of x0 rows (`_chunks`).  Its spectral batch
holds [u, d, d d / d x_0] (dim + 6 components); the inverse's pass along
axis 0 runs once on it, and then every x0 row is independent until the
forward's pass along axis 0.  So each chunk of rows finishes its inverse
(d d / d x_1 and d d / d x_2 are formed from d's partly transformed
rows), forms sigma and N_d in a chunk-sized products buffer and is
forward-transformed, band-limited, into the same rows of the batch, whose
inputs it has consumed.  `_CHUNK_BYTES` sets the chunk height, and
the values do not depend on it; once a grid's fields outgrow it, no
full-grid [u, d, grad d] or products array is built at all.  The batch and
the chunk's buffers are a stage's `_workspace`.  After the last chunk the
forward's pass along axis 0, the force -div sigma and its projection run
inside the batch, which then holds [N_u, N_d, F]: sigma's pairs (0, b)
land in the spare slots, where the force F is formed over them one
component at a time, the other pairs in u's, N_d in d's (`_SLOTS`), and
the projection writes N_u into u's slots from F, which it leaves as it is.

Each state runs stage 1 once (`_pass`), for the next step's first stage,
the CFL step, the monitor, the record, the tendencies (`rhs`) and the
pressure: it keeps [N_u, N_d, F] in its batch and folds |grad d|^2, max|u|
and max|grad d| chunk by chunk.  The pass is memoized in a `_Memo`, the
state's one record of what its consumers computed from it: the pass's
workspace and maxima, and max|omega| and the oversampled maxima, which
`_omega_linf` and `_grad_d_linf` write and `diagnostics` reads.  The
record is kept in the state's instance dict, as `functools.cached_property`
keeps a value, and this module alone creates, fills and empties it
(`_memo_of`), so `state` holds the state alone and `dataclasses.replace`
starts every new state without one.  A step empties the record and takes
the workspace over, so a run holds one at a time, and a later consumer of
the stepped state runs its pass again.  Every later stage is written into
the batch's u and d slots, where the last tendency lies, and runs in the
same workspace.  The sum terms, E y0 and the unprojected u of y1 are
formed in the spare slots, over F, and u's y1 is projected from there into
the running sum.

The director is renormalized to unit length once per full step, not per
substage, so the formal RK order is preserved; the radial drift removed by
renormalization is of the same order as the local truncation error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (NumericalOverflowError, check_positive, check_range,
                     is_real)
from .spectral import (Field, Grid, _fftn, _fftn_rows, _forward_pass,
                       _ifftn, _inverse_pass, _irfft, curl, gradient,
                       linf_norm, project_spec)
from .state import FluidState, PhysicsParams, normalize_director

__all__ = ["StepPolicy", "rhs", "step", "suggest_dt", "recover_pressure"]

# The stored components (a, b), a <= b, of the symmetric stress, row-major
_PAIRS = {dim: tuple(itertools.combinations_with_replacement(range(dim), 2))
          for dim in (2, 3)}


def _slots(dim: int) -> tuple:
    """Where a stage's products land in its batch: (first, index), the
    products being the batch's components first .. 2 dim + 2 and index[p]
    the product of pair p.  The pairs (0, b) go to the spare slots
    dim + 3 + b, where the force is formed over them, N_d to d's slots and
    the other pairs to the u slots just before them."""
    rest = [pair for pair in _PAIRS[dim] if pair[0]]
    first = dim - len(rest)
    return first, tuple(dim + 3 + b - first if a == 0 else rest.index((a, b))
                        for a, b in _PAIRS[dim])


_SLOTS = {dim: _slots(dim) for dim in (2, 3)}

# Bytes of a chunk's grid fields [u, d, grad d]: the stage runs chunk by
# chunk of x0 rows (`_chunks`), and this sets the rows per chunk
# (`_chunk_rows`)
_CHUNK_BYTES = 2 ** 20

# Tableaus (c, a, b) of explicit Runge-Kutta methods whose stage i+1 reads
# k_i alone: a[i] is the one nonzero entry of row i+1 of the Butcher matrix
_TABLEAUS = {
    "IF-RK2": ((0.0, 1.0), (1.0,), (0.5, 0.5)),  # Heun
    "IF-RK4": ((0.0, 0.5, 0.5, 1.0), (0.5, 0.5, 1.0),
               (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)),  # classical
}
INTEGRATORS = tuple(_TABLEAUS)


def _check_integrator(integrator) -> None:
    check_range("integrator", integrator, integrator in INTEGRATORS,
                f"one of {INTEGRATORS}")


@dataclass(frozen=True)
class StepPolicy:
    """Time step policy: a final time, a CFL factor, the integrator tag and
    optionally a fixed dt, which wins over the CFL factor."""

    t_max: float
    dt: float | None = None
    cfl_factor: float = 0.5
    integrator: str = "IF-RK4"

    def __post_init__(self):
        if self.dt is not None:
            check_positive("dt", self.dt)
        check_range("cfl_factor", self.cfl_factor, is_real(self.cfl_factor)
                    and 0 < self.cfl_factor <= 1, "in (0, 1]")
        check_positive("t_max", self.t_max)
        _check_integrator(self.integrator)


def _chunk_rows(grid: Grid) -> int:
    """The x0 rows of a chunk: as many as fit its grid fields [u, d,
    grad d] (4 dim + 3 components) into `_CHUNK_BYTES`, at least one, and
    then evened out over the chunks that takes."""
    row = (4 * grid.dim + 3) * 8 * grid.res ** (grid.dim - 1)
    chunks = -(-grid.res // max(1, _CHUNK_BYTES // row))
    return -(-grid.res // chunks)


def _workspace(grid: Grid) -> tuple:
    """Fresh buffers for a stage, (batch, blocks, fields, products): the
    batch [u, d, d d / d x_0], dim + 6 spectral components, and, for one
    chunk of `_chunk_rows` x0 rows, the gradient blocks 1 .. dim-1 and the
    grid fields [u, d, grad d] of `_chunks` and the products,
    dim(dim+1)/2 + 3 grid components."""
    dim, rows = grid.dim, _chunk_rows(grid)
    return (np.empty((dim + 6,) + grid.spec_shape, np.complex128),
            np.empty((3 * (dim - 1), rows) + grid.spec_shape[1:],
                     np.complex128),
            np.empty((4 * dim + 3, rows) + grid.shape[1:]),
            np.empty((len(_PAIRS[dim]) + 3, rows) + grid.shape[1:]))


def _chunks(grid: Grid, work: tuple, u_spec: np.ndarray, d_spec: np.ndarray):
    """The stage's transforms, chunk by chunk of x0 rows, in `work`, a
    `_workspace`: yields (rows, u, d, grad d, out) per chunk, grad d[i, m]
    = d d_m / d x_i, the grid values of the chunk's rows.  The caller fills
    `out`, the chunk's products, dim(dim+1)/2 + 3 grid components; before
    the next chunk they are forward-transformed, dealiased, into the
    chunk's rows of the batch's product slots (`_SLOTS`), and after the
    last one those slots get the pass along axis 0.

    (u_spec, d_spec) are copied into the batch's u and d slots (no copy at
    all when they are those slots) and consumed there: the inverse's pass
    along axis 0 runs once on the batch, and the other passes and the
    `irfft` run chunk by chunk, in the batch's rows and the chunk's
    buffers.  Once a chunk is yielded its rows of the batch are free, so
    the products' forward transform lands there.

    Shared gradient: d d / d x_j is ik_j times d's partly transformed
    spectrum just before the pass along axis j, so it skips the passes
    along the axes before j (agreeing with a separate batch to roundoff,
    not bit for bit): j = 0 in the batch's spare slots, the others per
    chunk in the gradient blocks, whose grid values follow the batch's in
    the fields, so grad d is contiguous at their end."""
    batch, blocks, fields, products = work
    dim, res, full, ik = grid.dim, grid.res, grid.res // 2, grid.ik_deriv
    cutoff, d = grid.dealias_cutoff, slice(dim, dim + 3)
    target = batch[_SLOTS[dim][0]:2 * dim + 3]
    batch[:dim] = u_spec
    batch[d] = d_spec
    np.multiply(ik[0], batch[d], out=batch[dim + 3:])
    _inverse_pass(grid, batch, 0, full)
    for start in range(0, res, products.shape[1]):
        rows = slice(start, min(start + products.shape[1], res))
        part, n = batch[:, rows], rows.stop - start
        for axis in range(1, dim):
            np.multiply(ik[axis], part[d],
                        out=blocks[3 * (axis - 1):3 * axis, :n])
            if axis < dim - 1:
                _inverse_pass(grid, part, axis, full)
                _inverse_pass(grid, blocks[:3 * axis, :n], axis, full)
        phys = fields[:, :n]
        _irfft(grid, part, phys[:dim + 6])
        _irfft(grid, blocks[:, :n], phys[dim + 6:])
        out = products[:, :n]
        yield (rows, phys[:dim], phys[d],
               phys[dim + 3:].reshape((dim, 3) + phys.shape[1:]), out)
        _fftn_rows(grid, out, cutoff, target[:, rows])
    _forward_pass(grid, target, 0, cutoff)


def _products(grid: Grid, u: np.ndarray, d: np.ndarray, grad_d: np.ndarray,
              sigma, n_d: np.ndarray) -> None:
    """sigma on the grid into `sigma`, one array per pair of `_PAIRS`, and
    |grad d|^2 d - (u.grad)d into `n_d`."""
    pairs = _PAIRS[grid.dim]
    for out, (a, b) in zip(sigma, pairs):
        np.einsum("m...,m...->...", grad_d[a], grad_d[b], out=out)
    # |grad d|^2 is the trace of sigma so far
    np.multiply(sum(out for out, (a, b) in zip(sigma, pairs) if a == b), d,
                out=n_d)
    np.subtract(n_d, np.einsum("j...,jm...->m...", u, grad_d), out=n_d)
    for out, (a, b) in zip(sigma, pairs):
        out += u[a] * u[b]


@dataclass
class _Memo:
    """The record of what a state's consumers computed from it, each field
    None until then: the state's pass (`_pass`), its first stage, which
    keeps [N_u, N_d, F] in the batch of `work`, a `_workspace`, until a
    step takes it over, with |grad d|^2 on the grid (`grad_sq`), max|u|
    and max|grad d| (`_stage`); and max|omega| on the grid and on the 2x
    finer one (`_omega_linf`) and the finer max|grad d| (`_grad_d_linf`).
    Every field's default is a class attribute, so clearing an instance's
    dict empties the record (`_stages`)."""

    work: tuple | None = None
    grad_sq: np.ndarray | None = None
    u_max: float | None = None
    grad_d_max: float | None = None
    omega_max: float | None = None
    omega_fine: float | None = None
    grad_d_fine: float | None = None


def _stage(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray,
           work: tuple, memo: _Memo | None = None) -> None:
    """The stage's tendency (N_u, N_d), dealiased, into the first dim + 3
    components of the batch of `work` (a `_workspace`), from (u_spec,
    d_spec) (`_chunks`), and the unprojected force F = -i k . sigma_hat
    into the spare slots after them, which the projection leaves as they
    are.

    With `memo`, also |grad d|^2 on the grid into its `grad_sq`, and its
    max|u| and max|grad d|, folded chunk by chunk."""
    dim, pairs, ik = grid.dim, _PAIRS[grid.dim], grid.ik_deriv
    first, index = _SLOTS[dim]
    batch = work[0]
    products = batch[first:2 * dim + 3]
    u_sq = []
    for rows, u, d, grad_d, out in _chunks(grid, work, u_spec, d_spec):
        if memo is not None:
            u_sq.append(np.max(np.einsum("i...,i...->...", u, u)))
            np.einsum("im...,im...->...", grad_d, grad_d,
                      out=memo.grad_sq[rows])
        _products(grid, u, d, grad_d, [out[p] for p in index],
                  out[dim - first:dim + 3 - first])
    # the force -div sigma, component a formed over sigma_0a: its term
    # b = 0 first, as 0 - ik_0 sigma_0a, then b = 1 .. dim-1
    sigma = {pair: products[p] for pair, p in zip(pairs, index)}
    force = batch[dim + 3:2 * dim + 3]
    for a in range(dim):
        np.multiply(ik[0], force[a], out=force[a])
        np.subtract(0.0, force[a], out=force[a])
        for b in range(1, dim):
            force[a] -= ik[b] * sigma[min(a, b), max(a, b)]
    project_spec(grid, force, out=batch[:dim])
    if memo is not None:
        memo.u_max = math.sqrt(np.max(u_sq))
        memo.grad_d_max = math.sqrt(np.max(memo.grad_sq))


def _memo_of(s: FluidState) -> _Memo:
    """The state's record, created empty by its first consumer."""
    return vars(s).setdefault("_memo", _Memo())


def _pass(s: FluidState) -> _Memo:
    """The state's record with its one transform pass run (`_Memo`).  The
    next step empties the record and takes over the workspace."""
    memo = _memo_of(s)
    if memo.grad_d_max is None:  # `_stage` sets it last
        memo.work, memo.grad_sq = _workspace(s.grid), np.empty(s.grid.shape)
        # a state's values are judged by the pass's readers: the run's start
        # check reads the maxima, the step the finiteness of what it builds
        # from the tendency, so overflow in the products is no warning here
        with np.errstate(over="ignore", invalid="ignore"):
            _stage(s.grid, s.u.spec, s.d.spec, memo.work, memo)
    return memo


def _omega_linf(s: FluidState, oversample: bool) -> float:
    """max|omega| on the grid or, with `oversample`, on the 2x finer grid,
    kept in the state's record."""
    memo = _memo_of(s)
    if oversample and memo.omega_fine is None:
        memo.omega_fine = linf_norm(curl(s.u), oversample=True)
    if not oversample and memo.omega_max is None:
        memo.omega_max = linf_norm(curl(s.u))
    return memo.omega_fine if oversample else memo.omega_max


def _grad_d_linf(s: FluidState, oversample: bool) -> float:
    """max|grad d|: the pass's or, with `oversample`, on the 2x finer grid,
    kept in the state's record."""
    if not oversample:
        return _pass(s).grad_d_max
    memo = _memo_of(s)
    if memo.grad_d_fine is None:
        grad_d = Field.from_spec(s.grid, np.concatenate(
            [gradient(s.d, j).spec for j in range(s.grid.dim)]))
        memo.grad_d_fine = linf_norm(grad_d, oversample=True)
    return memo.grad_d_fine


def _nonlinear(grid: Grid, u_spec: np.ndarray, d_spec: np.ndarray,
               work: tuple) -> tuple:
    """Explicitly-treated tendencies (N_u_hat, N_d_hat), dealiased, as
    views of the batch of `work`, a `_workspace` (`_stage`)."""
    _stage(grid, u_spec, d_spec, work)
    return work[0][:grid.dim], work[0][grid.dim:grid.dim + 3]


@lru_cache(maxsize=4)
def _decay(grid: Grid, coeff: float) -> np.ndarray:
    """Per-mode diffusion factor exp(-coeff |k|^2).  Cached because a
    fixed-dt run reuses the same factors every step: E(1) per field, and
    E(1/2) too for IF-RK4, whose four entries fill the cache; an adaptive
    run, whose factors change every step, keeps no more."""
    out = np.exp(-coeff * grid.k2)
    out.setflags(write=False)
    return out


def rhs(s: FluidState, params: PhysicsParams) -> tuple:
    """Full tendencies (u_t, d_t): P[-(u.grad)u - lap d . grad d] + nu lap u
    and lap d + |grad d|^2 d - (u.grad)d, the nonlinear parts read from
    the state's pass (`_pass`).

    The pass's workspace and |grad d|^2 stay on the state until a step
    from it takes them over, and the pass does not warn on overflow: on
    overflowing input the tendencies hold inf or nan."""
    grid, batch = s.grid, _pass(s).work[0]
    return (Field.from_spec(grid, batch[:grid.dim]
                            - params.nu * grid.k2 * s.u.spec),
            Field.from_spec(grid, batch[grid.dim:grid.dim + 3]
                            - grid.k2 * s.d.spec))


def step(s: FluidState, params: PhysicsParams, dt: float,
         integrator: str = StepPolicy.integrator) -> FluidState:
    """Advance the coupled state by one time step of size dt.

    One loop runs each row (c, a, b) of `_TABLEAUS` in Lawson's form, with
    E(theta) = exp(-rate |k|^2 theta dt) per field (rate nu for u, 1 for d):
    stage i+1 starts from E(c[i+1]) y0 + dt a[i] E(c[i+1] - c[i]) k_i, and
    then k_i joins the sum y1 = E(1) y0 + sum_i dt b[i] E(1 - c[i]) k_i, so
    only one k is alive at a time.

    Raises ValueError on a dt that is not positive and finite or an
    unknown integrator, NumericalOverflowError on non-finite values
    (reported upstream as suspected blow-up or under-resolution), and
    propagates DegenerateDirectorError from the renormalization.
    """
    check_positive("dt", dt)
    _check_integrator(integrator)
    grid = s.grid
    u1, d1 = _stages(s, params, dt, _TABLEAUS[integrator])

    # a non-finite u stays non-finite through its projection
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(d1))):
        raise NumericalOverflowError(
            f"non-finite values at t = {s.t + dt:.6g}; suspected blow-up or "
            "loss of resolution"
        )
    return normalize_director(FluidState(
        grid, Field.from_spec(grid, u1),
        Field.from_phys(grid, _ifftn(grid, d1)), t=s.t + dt))


def _stages(s: FluidState, params: PhysicsParams, dt: float,
            tableau: tuple) -> tuple:
    """The spectra (u, d) of y1 from the stages of `tableau`, u projected
    to keep div u at roundoff against drift.

    Every stage runs inside the pass's workspace (module docstring), which
    dies when this returns; y1 is formed in the running sum's arrays."""
    grid, dim = s.grid, s.grid.dim
    c, a, b = tableau
    y0 = (s.u.spec, s.d.spec)
    # stage 1 is the state's pass, and the step takes over its workspace:
    # the record is emptied in place, its fields back at their None
    # defaults, so whoever holds it (a shallow copy of s too) runs the pass
    # again and no reference to it keeps the workspace alive
    work = _pass(s).work
    vars(_memo_of(s)).clear()
    batch = work[0]
    k = stage = (batch[:dim], batch[dim:dim + 3])
    total = (np.empty_like(y0[0]), np.empty_like(y0[1]))
    # k sits where a stage reads u and d, so each stage input is formed
    # over it; the sum terms and E y0 go into the spare slots after it
    spare = batch[dim + 3:dim + 6]
    # the step's factors E(theta), E(0) = 1 being skipped
    thetas = {1.0, *c[1:], *(1.0 - x for x in c),
              *(y - x for x, y in zip(c, c[1:]))} - {0.0}
    factors = [{theta: _decay(grid, rate * theta) for theta in sorted(thetas)}
               for rate in (params.nu * dt, dt)]
    for i in range(len(b)):
        if i:
            k = _nonlinear(grid, *stage, work)
        for f, e in enumerate(factors):
            free = spare[:len(y0[f])]
            # k's term of the sum first, as the next stage's input is
            # formed over k; k_1's term is the sum
            term = free if i else total[f]
            np.multiply(dt * b[i], k[f], out=term)
            if c[i] != 1.0:
                np.multiply(e[1.0 - c[i]], term, out=term)
            if i:
                np.add(total[f], term, out=total[f])
            if i + 1 < len(b):  # the next stage's input
                np.multiply(dt * a[i], k[f], out=stage[f])
                if c[i + 1] != c[i]:
                    np.multiply(e[c[i + 1] - c[i]], stage[f], out=stage[f])
                np.multiply(e[c[i + 1]], y0[f], out=free)
                np.add(stage[f], free, out=stage[f])
    # y1 = E(1) y0 + sum: u's in the spare slots, projected into the sum,
    # and then d's in the sum
    free = spare[:dim]
    np.multiply(factors[0][1.0], y0[0], out=free)
    np.add(free, total[0], out=free)
    project_spec(grid, free, out=total[0])
    np.multiply(factors[1][1.0], y0[1], out=spare)
    np.add(spare, total[1], out=total[1])
    return total


def suggest_dt(s: FluidState, policy: StepPolicy) -> float:
    """Next time step: CFL-limited by the transport speeds, capped by the
    remaining time to t_max; fixed-dt policies only apply the cap."""
    remaining = policy.t_max - s.t
    if policy.dt is not None:
        return min(policy.dt, remaining)
    return min(policy.cfl_factor * s.grid.dx / _speed(s), remaining)


def _speed(s: FluidState) -> float:
    """The transport speed of the CFL rule, from the state's pass: max|u|
    or max|grad d|, floored at 1."""
    memo = _pass(s)
    return max(memo.u_max, memo.grad_d_max, 1.0)


def recover_pressure(s: FluidState) -> Field:
    """Solve the spectral pressure Poisson equation
    lap p = -div(u . grad u + lap d . grad d); zero-mean output.

    p_hat = (-i k . F_hat + |k|^2 g_hat / 2) / |k|^2 from the state's pass
    (`_pass`): its force F = -div sigma, whose divergence is the double
    divergence of the stress sigma, and g = |grad d|^2, which the pass
    keeps on the grid and which is forward-transformed here, dealiased as
    F is.  On a state whose pass has run that one forward transform is
    all; on a fresh state it first runs the pass, whose workspace then
    stays on the state until a step from it, and which does not warn on
    overflow.  Diagnostic only: time stepping eliminates the pressure by
    projection."""
    grid, memo = s.grid, _pass(s)
    force = memo.work[0][grid.dim + 3:2 * grid.dim + 3]
    grad_sq = _fftn(grid, memo.grad_sq[np.newaxis], grid.dealias_cutoff)
    div = sum(k * f for k, f in zip(grid.k_deriv, force))
    return Field.from_spec(
        grid, grid.inv_k2 * (0.5 * grid.k2_deriv * grad_sq - 1j * div))
