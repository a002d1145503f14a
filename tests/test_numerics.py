"""Integration kernels: grids, RK4, trapezoid sums, Volterra solver.

The Volterra scheme is checked against closed-form solutions of the
equivalent second-order ODEs (a memory kernel g constant in s turns the
integro-differential equation into y'' = a y' - y), which exercises the
history quadrature and the predictor-corrector independently of any
physics module.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from pulseguard.numerics import (
    NumericOverflowError,
    TimeGrid,
    rk4_step,
    running_trapezoid,
    volterra_solve,
)


class TestTimeGrid:
    def test_basic_layout(self):
        grid = TimeGrid(t_max=2.0, n_steps=4)
        assert grid.dt == 0.5
        assert grid.times.shape == (5,)
        assert grid.midpoints.shape == (4,)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(grid.midpoints, [0.25, 0.75, 1.25, 1.75])

    def test_endpoints(self):
        grid = TimeGrid(t_max=7.3, n_steps=997)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(7.3, abs=1e-12)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.inf, np.nan])
    def test_bad_t_max(self, t_max):
        with pytest.raises(ValueError):
            TimeGrid(t_max=t_max, n_steps=10)

    def test_bad_n_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(t_max=1.0, n_steps=0)

    @given(
        t_max=st.floats(min_value=1e-3, max_value=1e3),
        n_steps=st.integers(min_value=1, max_value=2000),
    )
    def test_midpoints_bisect_cells(self, t_max, n_steps):
        grid = TimeGrid(t_max=t_max, n_steps=n_steps)
        times = grid.times
        mids = grid.midpoints
        assert np.all(mids > times[:-1])
        assert np.all(mids < times[1:])


class TestRk4:
    def test_exponential_decay(self):
        y, dt = 1.0, 0.01
        for k in range(100):
            y = rk4_step(lambda t, v: -v, k * dt, y, dt)
        assert abs(y - np.exp(-1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        errs = []
        for n in (50, 100):
            y, dt = 1.0, 1.0 / n
            for k in range(n):
                y = rk4_step(lambda t, v: -v, k * dt, y, dt)
            errs.append(abs(y - np.exp(-1.0)))
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_vector_state_rotation(self):
        # y'' = -y as a 2-vector; one period returns to the start
        def deriv(t, y):
            return np.array([y[1], -y[0]])

        y = np.array([1.0, 0.0])
        n = 2000
        dt = 2.0 * np.pi / n
        for k in range(n):
            y = rk4_step(deriv, k * dt, y, dt)
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-10)

    def test_non_finite_raises(self):
        with pytest.raises(NumericOverflowError):
            rk4_step(lambda t, y: np.inf, 0.0, 1.0, 0.1)


class TestTrapezoid:
    def test_running_starts_at_zero(self):
        out = running_trapezoid(np.array([1.0, 2.0, 3.0]), 0.5)
        assert out[0] == 0.0

    def test_running_linear_exact(self):
        t = np.linspace(0.0, 2.0, 41)
        out = running_trapezoid(t, t[1] - t[0])
        np.testing.assert_allclose(out, t**2 / 2.0, atol=1e-14)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=64),
            elements=st.floats(min_value=-1e3, max_value=1e3),
        )
    )
    def test_running_final_matches_total(self, values):
        out = running_trapezoid(values, 0.11)
        assert out[-1] == pytest.approx(np.trapezoid(values, dx=0.11), rel=1e-12, abs=1e-12)

    def test_running_complex_dtype(self):
        out = running_trapezoid(np.array([1j, 2j, 3j]), 1.0)
        assert np.iscomplexobj(out)
        assert out[-1] == pytest.approx(4j)


def _quadratic_volterra_reference(local_rate, kernel, grid, y0, overflow_limit=1.0e6):
    """The history-resumming O(n^2) solver the separable one replaced, kept
    verbatim as a reference: kernel(t, s_array) returns g(t, s) and the
    whole trapezoid history is summed again at every step."""
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    y = np.empty(n + 1, dtype=complex)
    y[0] = y0

    def a(t: float) -> complex:
        return 0.0 if local_rate is None else local_rate(t)

    # trapezoid weights are built once and sliced; w[0] stays 1/2 throughout
    for i in range(n):
        t_i = times[i]
        t_next = times[i + 1]
        if i == 0:
            mem_i = 0.0
        else:
            integrand = kernel(t_i, times[: i + 1]) * y[: i + 1]
            mem_i = dt * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[i]))
        f_i = a(t_i) * y[i] - mem_i

        y_pred = y[i] + dt * f_i
        row = kernel(t_next, times[: i + 2])
        integrand = row[: i + 1] * y[: i + 1]
        # history part keeps full weight on the last known point; the new
        # endpoint enters with the predictor value and trapezoid weight 1/2
        mem_next = dt * (
            np.sum(integrand) - 0.5 * integrand[0] + 0.5 * row[i + 1] * y_pred
        )
        f_next = a(t_next) * y_pred - mem_next
        y[i + 1] = y[i] + 0.5 * dt * (f_i + f_next)

        if not np.isfinite(y[i + 1]) or abs(y[i + 1]) > overflow_limit:
            raise NumericOverflowError(
                f"Volterra solution exceeded {overflow_limit:g} at t = {t_next:.6g}"
            )
    return y


def _quadratic_memory_reference(y, kernel, grid):
    """Signed trapezoid int_0^t g(t, s) y(s) ds per node, summed from
    the start at every node (the former defect pass, without the modulus)."""
    times = grid.times
    dt = grid.dt
    out = np.zeros(grid.n_steps + 1, dtype=complex)
    for i in range(1, grid.n_steps + 1):
        integrand = kernel(times[i], times[: i + 1]) * y[: i + 1]
        out[i] = dt * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[i]))
    return out


def _node_kernel(u, v, grid):
    """g(t, s) = u(t) v(s) as the callable the reference solver takes."""
    dt = grid.dt

    def kernel(t, s_arr):
        i = int(round(t / dt))
        j = np.rint(np.asarray(s_arr) / dt).astype(int)
        return u[i] * v[j]

    return kernel


class TestVolterra:
    def test_zero_kernel_matches_heun_bitwise(self):
        """With no memory the scheme must collapse to plain Heun."""
        grid = TimeGrid(t_max=2.0, n_steps=200)

        def rate(t):
            return -0.7 + 0.2j

        nodes = grid.n_steps + 1
        y, memory = volterra_solve(
            np.zeros(nodes),
            np.ones(nodes),
            grid,
            1.0 + 0j,
            local_rate=np.full(nodes, rate(0.0)),
        )

        ref = np.empty(grid.n_steps + 1, dtype=complex)
        ref[0] = 1.0
        dt = grid.dt
        for i in range(grid.n_steps):
            f_i = rate(grid.times[i]) * ref[i]
            y_pred = ref[i] + dt * f_i
            f_next = rate(grid.times[i + 1]) * y_pred
            ref[i + 1] = ref[i] + 0.5 * dt * (f_i + f_next)
        np.testing.assert_array_equal(y, ref)
        np.testing.assert_array_equal(memory, 0.0)

    def test_cosine_oracle(self):
        """g = 1 turns the equation into y'' = -y, so y(t) = cos t."""
        grid = TimeGrid(t_max=2.0 * np.pi, n_steps=2000)
        ones = np.ones(grid.n_steps + 1)
        y, _ = volterra_solve(ones, ones, grid, 1.0 + 0j)
        assert np.max(np.abs(y.real - np.cos(grid.times))) < 1e-5
        assert np.max(np.abs(y.imag)) < 1e-12

    def test_second_order_convergence(self):
        errs = []
        for n in (500, 1000):
            grid = TimeGrid(t_max=2.0 * np.pi, n_steps=n)
            ones = np.ones(n + 1)
            y, _ = volterra_solve(ones, ones, grid, 1.0 + 0j)
            errs.append(np.max(np.abs(y.real - np.cos(grid.times))))
        assert 3.4 < errs[0] / errs[1] < 4.6

    def test_damped_oscillator(self):
        """Constant local rate a plus g = 1 gives y'' - a y' + y = 0."""
        a = -0.1
        grid = TimeGrid(t_max=10.0, n_steps=2000)
        ones = np.ones(grid.n_steps + 1)
        y, _ = volterra_solve(ones, ones, grid, 1.0 + 0j, local_rate=a * ones)
        wt = np.sqrt(1.0 - 0.0025)
        t = grid.times
        ref = np.exp(-0.05 * t) * (np.cos(wt * t) - (0.05 / wt) * np.sin(wt * t))
        assert np.max(np.abs(y.real - ref)) < 3e-5

    def test_overflow_reports_time(self):
        # g = -1 gives y'' = +y, growing like cosh until the limit trips
        grid = TimeGrid(t_max=20.0, n_steps=2000)
        ones = np.ones(grid.n_steps + 1)
        with pytest.raises(NumericOverflowError, match="exceeded"):
            volterra_solve(-ones, ones, grid, 1.0 + 0j, overflow_limit=10.0)

    def test_factor_shape_checked(self):
        grid = TimeGrid(t_max=1.0, n_steps=10)
        with pytest.raises(ValueError, match="v must have shape"):
            volterra_solve(np.ones(11), np.ones(10), grid, 1.0 + 0j)

    def _assert_matches_reference(self, u, v, grid, local_rate=None):
        y, memory = volterra_solve(u, v, grid, 1.0 + 0j, local_rate=local_rate)
        kernel = _node_kernel(u, v, grid)
        rate = None if local_rate is None else (lambda t: local_rate[int(round(t / grid.dt))])
        ref_y = _quadratic_volterra_reference(rate, kernel, grid, 1.0 + 0j)
        ref_memory = _quadratic_memory_reference(ref_y, kernel, grid)
        assert np.max(np.abs(y - ref_y)) <= 1e-12
        assert np.max(np.abs(memory - ref_memory)) <= 1e-12

    def test_matches_quadratic_reference_on_sweep_kernel(self):
        from pulseguard.adiabatic import SweepSpec, _kernel_factors

        grid = TimeGrid(t_max=5.0, n_steps=500)
        u, v = _kernel_factors(SweepSpec(passage_time=5.0, base_freq=0.3), None, grid)
        self._assert_matches_reference(u, v, grid)

    def test_matches_quadratic_reference_on_random_kernel(self):
        rng = np.random.default_rng(1412)
        grid = TimeGrid(t_max=3.0, n_steps=500)
        nodes = grid.n_steps + 1
        u, v, rate = (
            rng.normal(size=nodes) + 1j * rng.normal(size=nodes) for _ in range(3)
        )
        self._assert_matches_reference(u, v, grid, local_rate=-0.5 + 0.2 * rate)
