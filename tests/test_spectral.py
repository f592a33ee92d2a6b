"""Tests for the periodic-torus spectral layer."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nematicflow
from nematicflow.errors import ParameterRangeError
from nematicflow.spectral import (Field, Grid, _fftn, _fftn_rows,
                                  _forward_pass, _ifftn, _lines, curl, dealias, divergence, gradient,
                                  l2_norm, laplacian, leray_project,
                                  linf_norm, oversampled_phys, project_spec,
                                  second_derivative)


@pytest.fixture
def grid2():
    return Grid(2, 32)


@pytest.fixture
def grid3():
    return Grid(3, 16)


def _band_mask(grid, cutoff):
    """Modes with |k_j| <= cutoff on every axis."""
    keep = np.ones(grid.spec_shape, dtype=bool)
    for k in grid.k_int:
        keep &= np.abs(k) <= cutoff
    return keep


def _allocating_ifftn(grid, spec, cutoff=None):
    """The inverse as it was before it wrote into its argument: the same
    leading passes in place, then one `irfft` of the whole batch into a
    fresh array."""
    dim = grid.dim
    cutoff = grid.res // 2 if cutoff is None else cutoff
    for axis in range(dim - 1):
        for line in _lines(grid, axis, cutoff):
            view = spec[line]
            view[...] = np.fft.ifft(view, axis=axis - dim, norm="forward")
    return np.fft.irfft(spec, n=grid.res, axis=-1, norm="forward")


def random_field(grid, ncomp=1, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Field.from_phys(grid, rng.standard_normal((ncomp,) + grid.shape))


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1, 32)
        with pytest.raises(ValueError):
            Grid(2, 24)  # not a power of two
        with pytest.raises(ValueError):
            Grid(2, 4)
        with pytest.raises(ValueError):
            Grid(2, 32, length=-1.0)
        # the volume or the largest |k|^2 overflows, or a volume is
        # subnormal
        for dim, length in [(2, 1e160), (2, 1e300), (2, 1e-160),
                            (2, 1e-300), (3, 1e103), (3, 1e-103)]:
            with pytest.raises(ParameterRangeError, match="^length"):
                Grid(dim, 16, length)

    @pytest.mark.parametrize("dim, res, name", [(2, 8.0, "res"),
                                                (2.0, 8, "dim"),
                                                (2, "8", "res")])
    def test_non_integer_dim_or_res_is_a_range_error(self, dim, res, name):
        with pytest.raises(ParameterRangeError, match=f"^{name} "):
            Grid(dim, res)

    def test_numpy_integer_res_builds(self):
        assert Grid(2, np.int64(16)).shape == (16, 16)

    @pytest.mark.parametrize("dim, length", [(2, 1e150), (3, 1e100),
                                             (2, 1e-150), (3, 1e-100)])
    def test_length_near_the_float_range(self, dim, length):
        # accepted, and every size the check tests is a normal float
        grid = Grid(dim, 16, length)
        sizes = (grid.volume, grid.cell_volume, np.max(grid.k2))
        assert all(np.isfinite(x) and x >= np.finfo(float).tiny
                   for x in sizes)

    def test_wavenumbers_are_scaled_integers(self):
        grid = Grid(2, 16, length=np.pi)
        scale = 2 * np.pi / np.pi
        k0 = grid.k_full[0].ravel()
        assert np.allclose(k0 / scale, np.fft.fftfreq(16) * 16)

    def test_nyquist_derivative_zeroed(self, grid2):
        for ax in range(2):
            k = grid2.k_deriv[ax].ravel()
            assert k[grid2.res // 2] == 0.0


class TestTransforms:
    def test_constant_maps_to_mode_zero(self, grid2):
        f = Field.from_phys(grid2, np.full(grid2.shape, 3.25))
        spec = f.spec[0]
        assert abs(spec[0, 0] - 3.25) < 1e-14
        spec_rest = spec.copy()
        spec_rest[0, 0] = 0.0
        assert np.max(np.abs(spec_rest)) < 1e-14

    def test_pure_tone_has_two_modes(self):
        grid = Grid(2, 16)
        x0, _ = grid.coords()
        f = Field.from_phys(grid, np.sin(x0) + np.zeros(grid.shape))
        nonzero = np.abs(f.spec[0]) > 1e-13
        assert nonzero.sum() == 2
        assert nonzero[1, 0] and nonzero[-1, 0]

    def test_round_trip(self, grid2):
        f = random_field(grid2, seed=3)
        back = Field.from_spec(grid2, f.spec.copy())
        err = np.max(np.abs(back.phys - f.phys)) / np.max(np.abs(f.phys))
        assert err < 1e-12

    def test_parseval(self, grid2):
        # Hermitian weights: an interior column of the half spectrum also
        # stands for its unstored conjugate partner
        f = random_field(grid2, seed=4)
        weights = np.full(grid2.spec_shape, 2.0)
        weights[:, [0, grid2.res // 2]] = 1.0
        phys_sq = grid2.cell_volume * np.sum(f.phys**2)
        spec_sq = grid2.volume * np.sum(weights * np.abs(f.spec) ** 2)
        assert abs(phys_sq - spec_sq) / phys_sq < 1e-10

    def test_conjugate_symmetry(self, grid2):
        # the stored half plus its conjugate mirror is the full spectrum
        f = random_field(grid2, seed=5)
        half = f.spec[0]
        res = grid2.res
        cols = np.arange(res // 2 + 1, res)
        full = np.empty((res, res), dtype=complex)
        full[:, : res // 2 + 1] = half
        full[:, cols] = np.conj(half[(-np.arange(res)) % res][:, res - cols])
        expected = np.fft.fftn(f.phys[0], norm="forward")
        assert np.max(np.abs(full - expected)) < 1e-13

    @pytest.mark.parametrize("layout", ["C", "F", "reversed"])
    @pytest.mark.parametrize("ncomp", [1, 3, 9])
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_forward_matches_plain_rfftn(self, dim, res, ncomp, layout):
        # the in-place forward transform against numpy's allocating one
        grid = Grid(dim, res)
        rng = np.random.Generator(np.random.PCG64(ncomp))
        phys = rng.standard_normal((ncomp,) + grid.shape)
        if layout == "F":
            phys = np.asfortranarray(phys)
        elif layout == "reversed":
            phys = phys[..., ::-1]
        oracle = np.fft.rfftn(phys, axes=grid.spatial_axes, norm="forward")
        spec = _fftn(grid, phys)
        assert spec.shape == (ncomp,) + grid.spec_shape
        assert np.array_equal(spec, oracle)
        again = _fftn(grid, phys)
        assert again is not spec and not np.shares_memory(again, spec)
        assert not np.shares_memory(spec, phys)

    @pytest.mark.parametrize("cutoff", [None, 5])
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_forward_by_chunks_matches_fftn(self, dim, res, cutoff):
        # the passes but the one along axis 0 chunk by chunk of 3 x0 rows
        # (the last one short) into a batch's rows, then that pass
        grid = Grid(dim, res)
        phys = np.random.Generator(np.random.PCG64(4)).standard_normal(
            (3,) + grid.shape)
        band = res // 2 if cutoff is None else cutoff
        buffer = np.full((5,) + grid.spec_shape, np.nan, complex)
        for start in range(0, res, 3):
            rows = slice(start, start + 3)
            _fftn_rows(grid, phys[:, rows], band, buffer[1:4, rows])
        _forward_pass(grid, buffer[1:4], 0, band)
        assert np.array_equal(buffer[1:4], _fftn(grid, phys, cutoff))
        assert np.isnan(buffer[[0, 4]]).all()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("ncomp", [1, 3, 15])
    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_inverse_matches_plain_irfftn(self, dim, res, ncomp, layout):
        # the in-place inverse against numpy's allocating one; it may
        # overwrite its argument, so the oracle is computed first
        grid = Grid(dim, res)
        rng = np.random.Generator(np.random.PCG64(ncomp))
        spec = _fftn(grid, rng.standard_normal((ncomp,) + grid.shape))
        if layout == "F":
            spec = np.asfortranarray(spec)
        elif layout == "strided":
            wide = np.zeros(spec.shape[:-1] + (2 * spec.shape[-1],), complex)
            wide[..., ::2] = spec
            spec = wide[..., ::2]
        oracle = np.fft.irfftn(spec, s=grid.shape, axes=grid.spatial_axes,
                               norm="forward")
        phys = _ifftn(grid, spec)
        assert phys.shape == (ncomp,) + grid.shape
        assert np.array_equal(phys, oracle)

    @pytest.mark.parametrize("dim, res", [(2, 64), (3, 16)])
    def test_inverse_writes_over_its_argument(self, dim, res):
        # the leading passes run inside the spectrum and the grid values
        # are written over it, with one complex component of scratch
        # beyond it and a few small Python objects
        grid = Grid(dim, res)
        rng = np.random.Generator(np.random.PCG64(0))
        spec = _fftn(grid, rng.standard_normal((5,) + grid.shape))
        kept = spec.copy()
        tracemalloc.start()
        try:
            phys = _ifftn(grid, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.array_equal(spec, kept)
        assert phys.shape == (5,) + grid.shape
        assert np.shares_memory(phys, spec)
        assert peak <= spec[0].nbytes + 16 * 1024

    @pytest.mark.parametrize("dim, res", [(2, 16), (2, 64), (3, 8), (3, 32)])
    def test_inverse_values_are_unchanged(self, dim, res):
        # band-limited batches against the allocating inverse
        grid = Grid(dim, res)
        rng = np.random.Generator(np.random.PCG64(res))
        white = _fftn(grid, rng.standard_normal((15,) + grid.shape))
        for cutoff in (None, grid.dealias_cutoff, (res // 2 - 1) // 2):
            spec = white if cutoff is None else \
                white * _band_mask(grid, cutoff)
            assert np.array_equal(_ifftn(grid, spec.copy(), cutoff),
                                  _allocating_ifftn(grid, spec.copy(), cutoff))

    @pytest.mark.parametrize("layout", ["C", "F", "reversed"])
    @pytest.mark.parametrize("ncomp", [1, 3, 9])
    @pytest.mark.parametrize("dim, res", [(2, 16), (2, 64), (3, 8), (3, 32)])
    def test_band_limited_forward_matches_masked_rfftn(self, dim, res, ncomp,
                                                       layout):
        # the 2/3 rule's band and random_smooth's half band
        grid = Grid(dim, res)
        rng = np.random.Generator(np.random.PCG64(ncomp))
        phys = rng.standard_normal((ncomp,) + grid.shape)
        if layout == "F":
            phys = np.asfortranarray(phys)
        elif layout == "reversed":
            phys = phys[..., ::-1]
        full = np.fft.rfftn(phys, axes=grid.spatial_axes, norm="forward")
        for cutoff in (grid.dealias_cutoff, (res // 2 - 1) // 2):
            spec = _fftn(grid, phys, cutoff)
            assert np.array_equal(spec, full * _band_mask(grid, cutoff))

    @pytest.mark.parametrize("ncomp", [1, 3, 15])
    @pytest.mark.parametrize("dim, res", [(2, 16), (2, 64), (3, 8), (3, 32)])
    def test_band_limited_inverse_matches_full(self, dim, res, ncomp):
        # zero-padded spectra: the 2/3 rule's band, random_smooth's half
        # band and a grid of half the res padded to this one
        grid = Grid(dim, res)
        rng = np.random.Generator(np.random.PCG64(ncomp))
        white = _fftn(grid, rng.standard_normal((ncomp,) + grid.shape))
        for cutoff in (grid.dealias_cutoff, (res // 2 - 1) // 2, res // 4):
            spec = white * _band_mask(grid, cutoff)
            expected = _ifftn(grid, spec.copy())
            assert np.array_equal(_ifftn(grid, spec, cutoff), expected)

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_phys_keeps_its_spectrum(self, dim, res):
        grid = Grid(dim, res)
        spec = random_field(grid, ncomp=3, seed=6).spec
        kept = spec.copy()
        f = Field.from_spec(grid, spec)
        phys = f.phys
        assert np.array_equal(spec, kept)
        assert np.array_equal(f.spec, kept)
        assert np.array_equal(phys, np.fft.irfftn(
            kept, s=grid.shape, axes=grid.spatial_axes, norm="forward"))

    def test_bad_shape_rejected(self, grid2):
        with pytest.raises(ValueError):
            Field.from_phys(grid2, np.zeros((16, 16)))


class TestDerivatives:
    def test_gradient_of_sine(self, grid2):
        x0, x1 = grid2.coords()
        f = Field.from_phys(grid2, np.sin(x0) + np.zeros(grid2.shape))
        assert np.max(np.abs(gradient(f, 0).phys[0] - np.cos(x0) - 0 * x1)) < 1e-12

    def test_gradient_of_constant(self, grid2):
        f = Field.from_phys(grid2, np.full(grid2.shape, 2.0))
        assert np.max(np.abs(gradient(f, 0).phys)) < 1e-13

    def test_gradient_product_tone(self, grid2):
        x0, x1 = grid2.coords()
        f = Field.from_phys(grid2, np.sin(2 * x0) * np.cos(x1))
        exact = -np.sin(2 * x0) * np.sin(x1)
        assert np.max(np.abs(gradient(f, 1).phys[0] - exact)) < 1e-12

    def test_gradient_invalid_axis(self, grid2):
        f = random_field(grid2)
        with pytest.raises(ValueError):
            gradient(f, 2)

    def test_laplacian_tones(self, grid2):
        x0, x1 = grid2.coords()
        f = Field.from_phys(grid2, np.sin(x0) + np.zeros(grid2.shape))
        assert np.max(np.abs(laplacian(f).phys[0] + np.sin(x0) + 0 * x1)) < 1e-12
        g = Field.from_phys(grid2, np.sin(x0) * np.sin(x1))
        assert np.max(np.abs(laplacian(g).phys[0] + 2 * np.sin(x0) * np.sin(x1))) < 1e-11

    def test_laplacian_of_winding_component(self, grid2):
        x0, _ = grid2.coords()
        f = Field.from_phys(grid2, np.cos(x0) + np.zeros(grid2.shape))
        assert np.max(np.abs(laplacian(f).phys[0] + f.phys[0])) < 1e-12

    def test_hessian_trace_matches_laplacian_norm(self, grid2):
        # the Frobenius/Laplacian identity is for resolved fields; the
        # mixed multiplier k_a k_b is not even across the self-conjugate
        # Nyquist slot, so that mode must be absent
        f = dealias(random_field(grid2, seed=6))
        lap_sq = l2_norm(laplacian(f)) ** 2
        hess_sq = 0.0
        for a in range(2):
            for b in range(2):
                hess_sq += l2_norm(second_derivative(f, a, b)) ** 2
        assert abs(lap_sq - hess_sq) / lap_sq < 1e-10


    def test_mixed_derivative_is_composed_first_derivatives(self, grid3):
        # the mixed multiplier k_a k_b is odd in each wavenumber, so on a
        # Nyquist mode, its own conjugate partner, it must vanish as in the
        # first derivatives; white noise has content there on every axis
        f = random_field(grid3, seed=7)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            composed = gradient(gradient(f, a), b).phys
            assert np.max(np.abs(second_derivative(f, a, b).phys
                                 - composed)) < 1e-11


class TestVectorOps:
    def test_divergence_free_slot(self, grid2):
        x0, x1 = grid2.coords()
        v = np.zeros((2,) + grid2.shape)
        v[0] = np.sin(x1) + 0 * x0
        assert np.max(np.abs(divergence(Field.from_phys(grid2, v)).phys)) < 1e-13

    def test_div_grad_is_laplacian(self, grid2):
        x0, x1 = grid2.coords()
        phi = Field.from_phys(grid2, np.sin(x0) * np.sin(x1))
        grad = Field.from_phys(grid2, np.concatenate(
            [gradient(phi, 0).phys, gradient(phi, 1).phys]))
        exact = -2 * np.sin(x0) * np.sin(x1)
        assert np.max(np.abs(divergence(grad).phys[0] - exact)) < 1e-11

    def test_divergence_shape_error(self, grid2):
        with pytest.raises(ValueError):
            divergence(random_field(grid2, ncomp=3))

    def test_curl_taylor_green(self, grid2):
        x0, x1 = grid2.coords()
        v = np.stack([np.sin(x0) * np.cos(x1), -np.cos(x0) * np.sin(x1)])
        omega = curl(Field.from_phys(grid2, v))
        assert np.max(np.abs(omega.phys[0] - 2 * np.sin(x0) * np.sin(x1))) < 1e-11
        assert abs(linf_norm(omega) - 2.0) < 1e-11

    def test_curl_of_gradient_vanishes(self, grid2):
        x0, x1 = grid2.coords()
        phi = Field.from_phys(grid2, np.sin(x0) * np.cos(2 * x1))
        v = Field.from_phys(grid2, np.concatenate(
            [gradient(phi, 0).phys, gradient(phi, 1).phys]))
        assert np.max(np.abs(curl(v).phys)) < 1e-11

    def test_curl_3d_component(self, grid3):
        x = grid3.coords()
        v = np.zeros((3,) + grid3.shape)
        v[2] = np.sin(x[0]) + 0 * x[1] + 0 * x[2]
        omega = curl(Field.from_phys(grid3, v)).phys
        assert np.max(np.abs(omega[1] + np.cos(x[0]) + 0 * x[1] + 0 * x[2])) < 1e-12
        assert np.max(np.abs(omega[0])) < 1e-13
        assert np.max(np.abs(omega[2])) < 1e-13

    def test_divergence_of_curl_vanishes(self, grid3):
        v = random_field(grid3, ncomp=3, seed=8)
        assert np.max(np.abs(divergence(curl(v)).phys)) < 1e-11


class TestLerayProjection:
    def test_annihilates_gradients(self, grid2):
        x0, _ = grid2.coords()
        phi = Field.from_phys(grid2, np.sin(x0) + np.zeros(grid2.shape))
        v = Field.from_phys(grid2, np.concatenate(
            [gradient(phi, 0).phys, gradient(phi, 1).phys]))
        assert np.max(np.abs(leray_project(v).phys)) < 1e-12

    def test_fixes_divergence_free_fields(self, grid2):
        x0, x1 = grid2.coords()
        v = Field.from_phys(grid2, np.stack(
            [np.sin(x0) * np.cos(x1), -np.cos(x0) * np.sin(x1)]))
        assert np.max(np.abs(leray_project(v).phys - v.phys)) < 1e-12

    def test_output_divergence_free_and_idempotent(self, grid2):
        v = random_field(grid2, ncomp=2, seed=9)
        pv = leray_project(v)
        assert np.max(np.abs(divergence(pv).phys)) < 1e-12
        assert np.max(np.abs(leray_project(pv).phys - pv.phys)) < 1e-12

    def test_mode_zero_passthrough(self, grid2):
        v = Field.from_phys(grid2, np.stack(
            [np.full(grid2.shape, 1.5), np.full(grid2.shape, -0.5)]))
        assert np.max(np.abs(leray_project(v).phys - v.phys)) < 1e-14

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_out_matches_fresh_array(self, dim, res):
        grid = Grid(dim, res)
        v = random_field(grid, ncomp=dim, seed=4).spec.copy()
        fresh = project_spec(grid, v)
        assert not np.shares_memory(fresh, v)
        out = np.empty_like(v)
        assert project_spec(grid, v, out=out) is out
        assert np.array_equal(out, fresh)

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16)])
    def test_overlapping_out_raises(self, dim, res):
        grid = Grid(dim, res)
        v = random_field(grid, ncomp=dim, seed=4).spec.copy()
        kept = v.copy()
        with pytest.raises(ValueError):
            project_spec(grid, v, out=v)
        assert np.array_equal(v, kept)


class TestDealias:
    def test_low_mode_unchanged(self, grid2):
        x0, _ = grid2.coords()
        f = Field.from_phys(grid2, np.sin(x0) + np.zeros(grid2.shape))
        assert np.max(np.abs(dealias(f).phys - f.phys)) < 1e-14

    def test_nyquist_removed(self, grid2):
        x0, _ = grid2.coords()
        f = Field.from_phys(grid2, np.cos(grid2.res // 2 * x0) + np.zeros(grid2.shape))
        assert np.max(np.abs(dealias(f).phys)) < 1e-13

    def test_survivors_at_res_16(self):
        grid = Grid(2, 16)
        kept = grid.dealias_mask
        kabs = np.abs(np.fft.fftfreq(16) * 16)
        kabs_last = np.fft.rfftfreq(16) * 16
        expected = (kabs[:, None] <= 5) & (kabs_last[None, :] <= 5)
        assert np.array_equal(kept, expected)


class TestNorms:
    def test_l2_of_sine(self, grid2):
        x0, _ = grid2.coords()
        f = Field.from_phys(grid2, np.sin(x0) + np.zeros(grid2.shape))
        # integral of sin^2 over the cell is (2 pi)^2 / 2
        assert abs(l2_norm(f) - np.sqrt(2 * np.pi**2)) < 1e-12

    def test_translation_invariance(self, grid2):
        f = random_field(grid2, seed=11)
        shifted = Field.from_phys(grid2, np.roll(f.phys, (3, 7), axis=(1, 2)))
        assert abs(l2_norm(f) - l2_norm(shifted)) < 1e-12
        assert abs(linf_norm(f) - linf_norm(shifted)) < 1e-12

    def test_oversampled_linf_on_resolved_tone(self, grid2):
        x0, _ = grid2.coords()
        f = Field.from_phys(grid2, np.sin(x0) + np.zeros(grid2.shape))
        assert abs(linf_norm(f, oversample=True) - 1.0) < 1e-10

    @pytest.mark.parametrize("dim,res", [(2, 16), (3, 8)])
    def test_oversampled_matches_one_sided_padding(self, dim, res):
        # reference: the full complex spectrum zero-padded with every
        # Nyquist mode at -res/2, real part of the inverse; white noise
        # carries Nyquist content on every axis
        grid = Grid(dim, res)
        f = random_field(grid, ncomp=2, seed=12)
        axes = grid.spatial_axes
        spec = np.fft.fftshift(np.fft.fftn(f.phys, axes=axes, norm="forward"),
                               axes=axes)
        big = np.zeros((2,) + (2 * res,) * dim, dtype=complex)
        big[(slice(None),) + (slice(res // 2, res // 2 + res),) * dim] = spec
        expected = np.fft.ifftn(np.fft.ifftshift(big, axes=axes), axes=axes,
                                norm="forward").real
        assert np.max(np.abs(oversampled_phys(f) - expected)) < 1e-13


_FFT_PACKAGES = ("numpy", "scipy")


def _fft_uses(source):
    """Line numbers at which `source` names the fft submodule of numpy or
    scipy: `<alias>.fft` under any alias of either package, or an import of
    the submodule or of anything in it."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name in _FFT_PACKAGES}
    submodules = {f"{package}.fft" for package in _FFT_PACKAGES}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                node.module in submodules
                or node.module in _FFT_PACKAGES
                and any(a.name == "fft" for a in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name in submodules for a in node.names):
            lines.append(node.lineno)
    return lines


def test_fft_guard_detects_each_form():
    assert _fft_uses("import numpy as xp\nxp.fft.rfftn(a)\nxp.fft.fftfreq(4)\n"
                     "xp.linalg.norm(a)\n") == [2, 3]
    assert _fft_uses("from numpy.fft import irfftn\n") == [1]
    assert _fft_uses("from numpy.fft import fftfreq\n") == [1]
    assert _fft_uses("from numpy import fft\n") == [1]
    assert _fft_uses("import numpy.fft\n") == [1]
    assert _fft_uses("import scipy\nscipy.fft.dct(a)\n") == [2]
    assert _fft_uses("import scipy.fft as sf\n") == [1]
    assert _fft_uses("from scipy import fft\n") == [1]
    assert _fft_uses("from scipy.fft import rfftn\n") == [1]
    assert _fft_uses("import numpy as np\nnp.sum(a)\n") == []


def test_only_spectral_calls_numpy_fft():
    # one transform path: every other module goes through spectral's pair
    # and names neither numpy's nor scipy's fft
    package = Path(nematicflow.__file__).parent
    found = {path.name: _fft_uses(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("spectral.py"), "the guard no longer sees the pair"
    assert {name: lines for name, lines in found.items() if lines} == {}
