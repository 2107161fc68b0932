import mpmath
import numpy as np
import pytest

from mcgan.forward import (
    DarcyGrid,
    PipeConfig,
    darcy_sensor_op,
    darcy_state_vector,
    darcy_synth_observations,
    haaland_friction,
    observe,
    pipe_sensor_op,
    pipe_state_vector,
    pipe_synth_observations,
    solve_darcy,
    solve_pipe,
)
from mcgan.forward.darcy import CG_RTOL, P_LEFT, prolong_cellwise, restrict_cellwise
from mcgan.priors import MaternConfig, kl_decompose, matern_covariance_matrix, sample_fields, unit_square_grid


def dense_tpfa(k: np.ndarray):
    """The full n^2 x n^2 TPFA matrix and load, assembled cell by cell (cell [ix, iy]
    is row ix * n + iy)."""
    n = k.shape[0]
    a = np.zeros((n * n, n * n))
    b = np.zeros(n * n)
    for ix, iy in np.ndindex(n, n):
        row = ix * n + iy
        for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
            if 0 <= jx < n and 0 <= jy < n:
                t = 2.0 * k[ix, iy] * k[jx, jy] / (k[ix, iy] + k[jx, jy])
                a[row, row] += t
                a[row, jx * n + jy] -= t
        if ix in (0, n - 1):  # Dirichlet half-cells: p = P_LEFT left, 0 right
            a[row, row] += 2.0 * k[ix, iy]
        if ix == 0:
            b[row] = 2.0 * k[ix, iy] * P_LEFT
    return a, b


class TestDarcy:
    @pytest.mark.parametrize("n", [4, 7, 10, 16])
    def test_matches_dense_solve(self, n):
        k = np.exp(np.random.default_rng(n).normal(0.0, 1.0, size=(n, n)))
        a, b = dense_tpfa(k)
        want = np.linalg.solve(a, b).reshape(n, n)
        field = solve_darcy(k, DarcyGrid(n))
        assert np.linalg.norm(field.p - want) <= 1e-12 * np.linalg.norm(want)
        assert np.max(np.abs(field.divergence())) <= 1e-12

    def test_residual_guard_rejects_a_wrong_solve(self, monkeypatch):
        solve = np.linalg.solve
        calls = []

        def perturbed(a, b):  # the first solve only, off by ~10x the residual bound
            calls.append(1)
            return solve(a, b) * (1.0 + 1e-9 * (len(calls) == 1))

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        k = np.exp(np.random.default_rng(3).normal(0.0, 1.0, size=(10, 10)))
        with pytest.raises(RuntimeError, match="residual"):
            solve_darcy(k, DarcyGrid(10))

    @pytest.mark.parametrize("across", [False, True], ids=["along_flow", "across_flow"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_high_contrast_channels_conserve_or_raise(self, n, across):
        band = np.where(np.arange(n) // 2 % 2 == 0, 1e-4, 1e4)
        k = np.tile(band[:, None], (1, n)) if across else np.tile(band[None, :], (n, 1))
        try:
            field = solve_darcy(k, DarcyGrid(n))
        except RuntimeError as err:
            assert "residual" in str(err)
            return
        tol = 100.0 * CG_RTOL * np.linalg.norm(2.0 * field.k[0, :] * P_LEFT)
        assert np.max(np.abs(field.divergence())) <= tol

    def test_uniform_permeability_analytic(self):
        grid = DarcyGrid(16)
        field = solve_darcy(np.ones((16, 16)), grid)
        centers = (np.arange(16) + 0.5) * grid.h
        expected_p = np.tile((1.0 - centers)[:, None], (1, 16))
        np.testing.assert_allclose(field.p, expected_p, atol=1e-8)
        np.testing.assert_allclose(field.v1, 1.0, atol=1e-8)
        np.testing.assert_allclose(field.v2, 0.0, atol=1e-8)

    def test_two_band_flux_matches_series_resistance(self):
        # two vertical bands of permeability act like resistors in series:
        # total flux = dP / (0.5/k1 + 0.5/k2) = harmonic mean of (k1, k2)
        k1, k2 = 3.0, 0.4
        n = 32
        k = np.ones((n, n))
        k[: n // 2, :] = k1
        k[n // 2 :, :] = k2
        field = solve_darcy(k, DarcyGrid(n))
        total_flux = np.sum(field.flux_x[0, :]) * field.grid.h
        expected = 1.0 / (0.5 / k1 + 0.5 / k2)
        np.testing.assert_allclose(total_flux, expected, rtol=1e-9)

    def test_flux_divergence_free(self):
        rng = np.random.default_rng(4)
        n = 16
        k = np.exp(rng.normal(0, 0.5, size=(n, n)))
        field = solve_darcy(k, DarcyGrid(n))
        assert np.max(np.abs(field.divergence())) < 1e-8

    def test_maximum_principle(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            k = np.exp(np.random.default_rng(seed).normal(0, 1.0, size=(12, 12)))
            field = solve_darcy(k, DarcyGrid(12))
            assert field.p.min() >= -1e-10
            assert field.p.max() <= 1.0 + 1e-10

    def test_grid_refinement_converges(self):
        # fixed blocky log-permeability, successively refined solves
        pts = unit_square_grid(16)
        cov = matern_covariance_matrix(pts, MaternConfig())
        basis = kl_decompose(cov)
        m16 = sample_fields(basis, 64, 1, np.random.default_rng(11))[0].reshape(16, 16)
        k16 = np.exp(m16)
        p = {}
        for n in (16, 32, 64):
            f = n // 16
            p[n] = solve_darcy(prolong_cellwise(k16, f), DarcyGrid(n)).p
        d1 = np.linalg.norm(restrict_cellwise(p[32], 2) - p[16])
        d2 = np.linalg.norm(restrict_cellwise(p[64], 2) - p[32]) / 2.0  # per-cell scale
        assert d2 < d1

    def test_rejects_bad_permeability(self):
        with pytest.raises(ValueError):
            solve_darcy(np.zeros((8, 8)), DarcyGrid(8))
        with pytest.raises(ValueError):
            DarcyGrid(2)


class TestHaaland:
    def test_monotone_in_reynolds(self):
        rr = 1e-8 / 0.508
        assert haaland_friction(1e6, rr) < haaland_friction(1e4, rr)

    def test_high_precision_oracle(self):
        # value recomputed with 50-digit arithmetic
        mpmath.mp.dps = 50
        rr = mpmath.mpf("1e-8") / mpmath.mpf("0.508")
        re = mpmath.mpf("1e5")
        bracket = (rr / mpmath.mpf("3.7")) ** mpmath.mpf("1.11") + mpmath.mpf("6.9") / re
        inv_sqrt = -mpmath.mpf("1.8") / 4 * mpmath.log10(bracket)
        expected = float(1 / inv_sqrt**2)
        assert haaland_friction(1e5, 1e-8 / 0.508) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_reynolds(self):
        for reynolds in (0.0, float("nan")):
            with pytest.raises(ValueError, match="Reynolds"):
                haaland_friction(reynolds, 1e-6)

    @pytest.mark.parametrize("rel_roughness", [np.float64(-1e-6), -1e-6])
    def test_rejects_negative_roughness(self, rel_roughness):
        with pytest.raises(ValueError, match="roughness"):
            haaland_friction(1e5, rel_roughness)


class TestPipe:
    def test_default_constants(self):
        cfg = PipeConfig()
        assert cfg.sound_speed == 308.0
        assert cfg.area == 0.203
        assert cfg.leak_start == 10.0
        assert cfg.p_outflow == cfg.p_ref == 5016390.0

    def test_steady_state_preserved_without_leak_or_friction(self):
        cfg = PipeConfig(nx=32, nt=16, horizon=8.0, include_friction=False)
        state = solve_pipe(cfg.length / 2, 0.0, cfg)
        np.testing.assert_allclose(state.v, cfg.v_inflow, atol=1e-10)
        np.testing.assert_allclose(state.p, cfg.p_outflow, rtol=1e-12)

    def test_mass_budget_closes(self):
        cfg = PipeConfig(nx=32, nt=16, horizon=20.0)
        state = solve_pipe(700.0, 5e-4, cfg)
        assert state.max_mass_imbalance < 1e-8

    def test_leak_slows_downstream_flow(self):
        cfg = PipeConfig(nx=64, nt=64)
        state = solve_pipe(1000.0, 5e-4, cfg)
        v_final = state.v[:, -1]
        assert v_final[0] > v_final[-1] + 0.05

    def test_pressure_law_consistency(self):
        cfg = PipeConfig(nx=32, nt=16, horizon=16.0)
        state = solve_pipe(500.0, 3e-4, cfg)
        np.testing.assert_array_equal(state.p, cfg.pressure(state.q1 / cfg.area))

    def test_negative_radicand_raises(self):
        cfg = PipeConfig(
            p_ref=101325.0, p_outflow=101325.0, rho_ref=52.67,
            nx=16, nt=16, horizon=12.0, leak_start=0.5, include_friction=False,
        )
        with pytest.raises(RuntimeError, match="radicand|ambient"):
            solve_pipe(1000.0, 5e-4, cfg)

    def test_leak_position_validated(self):
        cfg = PipeConfig(nx=16, nt=16)
        nan = float("nan")
        for x_l, c_d, what in [
            (-5.0, 1e-4, "location"), (2000.0, 1e-4, "location"),
            (nan, 2e-4, "location"), (1000.0, nan, "discharge"),
        ]:
            with pytest.raises(ValueError, match=what):
                solve_pipe(x_l, c_d, cfg)
        with pytest.raises(ValueError, match="sound_speed"):
            PipeConfig(nx=16, nt=16, sound_speed=nan)


class TestObserve:
    def test_exact_without_noise(self):
        cfg = PipeConfig(nx=16, nt=16, horizon=8.0, include_friction=False)
        state = solve_pipe(1000.0, 0.0, cfg)
        op = pipe_sensor_op(cfg)
        y = observe(pipe_state_vector(state), op)
        assert y.shape == (2 * cfg.nt,)
        np.testing.assert_allclose(y, cfg.p_outflow, rtol=1e-12)

    def test_darcy_sensor_layout(self):
        op = darcy_sensor_op(16, n_sensors=100)
        assert op.n_obs == 100
        assert op.indices.max() < 16 * 16  # sensors live in the v1 block
        field = solve_darcy(np.ones((16, 16)), DarcyGrid(16))
        y = observe(darcy_state_vector(field), op)
        np.testing.assert_allclose(y, 1.0, atol=1e-8)

    def test_noise_is_seeded(self):
        cfg = PipeConfig(nx=16, nt=16, horizon=8.0)
        state = solve_pipe(1000.0, 2e-4, cfg)
        op = pipe_sensor_op(cfg)
        y1 = observe(pipe_state_vector(state), op, np.random.default_rng(3), 1500.0)
        y2 = observe(pipe_state_vector(state), op, np.random.default_rng(3), 1500.0)
        np.testing.assert_array_equal(y1, y2)
        exact = observe(pipe_state_vector(state), op)
        noise = np.random.default_rng(3).normal(0.0, 1500.0, op.n_obs)
        np.testing.assert_allclose(y1 - exact, noise, rtol=0, atol=1e-9 * np.abs(exact).max())

    def test_noise_std_validated(self):
        # the data's noise: the posterior's GaussianNoise checks the model's
        cfg = PipeConfig(nx=16, nt=16, horizon=8.0)
        state = pipe_state_vector(solve_pipe(1000.0, 2e-4, cfg))
        for std in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise std"):
                observe(state, pipe_sensor_op(cfg), np.random.default_rng(0), std)

    def test_out_of_range_site_rejected(self):
        from mcgan.forward import ObservationOp

        with pytest.raises(IndexError):
            ObservationOp(indices=[10], state_len=10)


class TestSyntheticObservations:
    def test_fine_factor_one_equals_direct_observe(self):
        cfg = PipeConfig(nx=16, nt=16, horizon=8.0)
        synth = pipe_synth_observations(500.0, 3e-4, cfg, fine_factor=1, rng=None)
        state = solve_pipe(500.0, 3e-4, cfg)
        direct = observe(pipe_state_vector(state), synth.op)
        np.testing.assert_allclose(synth.y, direct, rtol=1e-12)

    def test_darcy_uniform_field_resolution_free(self):
        grid = DarcyGrid(8)
        m = np.zeros((8, 8))
        a = darcy_synth_observations(m, grid, fine_factor=1)
        b = darcy_synth_observations(m, grid, fine_factor=2)
        np.testing.assert_allclose(a.y, b.y, atol=1e-8)

    def test_pipe_end_to_end_with_mismatch(self):
        cfg = PipeConfig(nx=32, nt=16, horizon=16.0)
        rng = np.random.default_rng(5)
        synth = pipe_synth_observations(700.0, 4e-4, cfg, fine_factor=2, rng=rng)
        assert synth.y.shape == (2 * cfg.nt,)
        assert synth.truth_state.shape == (2 * cfg.nx * cfg.nt,)
        np.testing.assert_array_equal(synth.truth_params, [700.0, 4e-4])
        # data is informative: the two sensors see different pressure histories
        assert np.std(synth.y[: cfg.nt] - synth.y[cfg.nt :]) > 0
