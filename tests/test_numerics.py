"""Integration kernels: grids, RK4, trapezoid sums, Volterra solver.

The Volterra scheme is checked against closed-form solutions of the
equivalent second-order ODEs (a memory kernel g = 1 turns the
integro-differential equation into y'' = -y), which exercises the
history quadrature and the predictor-corrector independently of any
physics module.  The prefix scan that solves it is also held against the
step-by-step loop it replaced, kept below as a reference, and against that
loop run in extended precision.
"""

import pickle
import re
from pathlib import Path

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

ROOT = Path(__file__).resolve().parents[1]

# numpy before 2.0, the floor pyproject admits, names it trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


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

    def test_midpoints_formed_once_per_grid(self):
        """One read-only array per grid, equal bit for bit to the formula, and
        kept off the grid, whose pickle does not grow."""
        grid = TimeGrid(t_max=7.3, n_steps=997)
        payload = pickle.dumps(grid)
        mids = grid.midpoints
        assert TimeGrid(t_max=7.3, n_steps=997).midpoints is mids
        assert mids.tobytes() == ((np.arange(997) + 0.5) * grid.dt).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            mids[0] = 0.0
        assert pickle.dumps(grid) == payload

    def test_sampling_format(self):
        """on_cells takes n_steps midpoint samples, on_nodes n_steps + 1 node
        values, converted to the dtype asked for."""
        grid = TimeGrid(t_max=1.0, n_steps=4)
        cells = grid.on_cells([1, 2, 3, 4], "E")
        assert cells.dtype == float and cells.shape == (4,)
        nodes = grid.on_nodes(np.ones(5), "u", complex)
        assert nodes.dtype == complex and nodes.shape == (5,)
        batch = np.zeros((3, 5))
        assert grid.on_nodes(batch, "kernel", batched=True) is batch
        assert grid.on_nodes(np.zeros(5), "kernel", batched=True).shape == (5,)

    @pytest.mark.parametrize("method, shape, batched, message", [
        ("on_cells", (5,), False,
         r"^E must have shape \(4,\), one midpoint sample per cell \(length 4\), got \(5,\)$"),
        ("on_nodes", (4,), False,
         r"^E must have shape \(5,\), one value per node \(length 5\), got \(4,\)$"),
        ("on_cells", (2, 4), False, r"shape \(4,\), .* got \(2, 4\)$"),
        ("on_cells", (2, 5), True, r"shape \(4,\) or \(B, 4\), .* got \(2, 5\)$"),
        ("on_nodes", (2, 2, 5), True, r"got \(2, 2, 5\)$"),
        ("on_nodes", (), True, r"got \(\)$"),
    ], ids=["cells-too-long", "nodes-too-short", "cells-batch-unasked", "cells-batch-too-long",
            "nodes-3d", "nodes-0d"])
    def test_sampling_format_violation_names_the_field(self, method, shape, batched, message):
        grid = TimeGrid(t_max=1.0, n_steps=4)
        with pytest.raises(ValueError, match=message):
            getattr(grid, method)(np.zeros(shape), "E", batched=batched)


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
        assert out[-1] == pytest.approx(trapezoid(values, dx=0.11), rel=1e-12, abs=1e-12)

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


def _step_loop_reference(u, v, grid, y0, local_rate=None, overflow_limit=1.0e6,
                         dtype=complex):
    """The O(n) step loop the prefix scan replaced, kept verbatim as a
    reference: one Heun step per node on Python complex, carrying the
    running sum S_i.  dtype=np.clongdouble runs the same loop on extended
    precision numpy scalars, which measures the rounding of both solvers."""

    def _node_values(values, grid, name):
        values = np.asarray(values, dtype=complex)
        assert values.shape == (grid.n_steps + 1,), name
        return values.tolist() if dtype is complex else list(values.astype(dtype))

    n = grid.n_steps
    dt = grid.dt
    u = _node_values(u, grid, "u")
    v = _node_values(v, grid, "v")
    if local_rate is None:
        a = [0.0] * (n + 1)
    else:
        a = _node_values(local_rate, grid, "local_rate")

    y = [0j] * (n + 1)
    memory = [0j] * (n + 1)
    y_i = complex(y0)
    y[0] = y_i
    head = 0.5 * v[0] * y_i
    total = v[0] * y_i  # S_i
    for i in range(n):
        # mem_0 is an empty integral; the formula gives it exactly
        mem_i = u[i] * dt * (total - head - 0.5 * v[i] * y_i)
        memory[i] = mem_i
        f_i = a[i] * y_i - mem_i

        y_pred = y_i + dt * f_i
        # history keeps full weight on the last known point; the new
        # endpoint enters with the predictor value and trapezoid weight 1/2
        mem_next = u[i + 1] * dt * (total - head + 0.5 * v[i + 1] * y_pred)
        f_next = a[i + 1] * y_pred - mem_next
        y_i = y_i + 0.5 * dt * (f_i + f_next)

        # the negated comparison also catches nan
        if not abs(y_i) <= overflow_limit:
            raise NumericOverflowError(
                f"Volterra solution exceeded {overflow_limit:g} at t = {(i + 1) * dt:.6g}"
            )
        y[i + 1] = y_i
        total += v[i + 1] * y_i
    memory[n] = u[n] * dt * (total - head - 0.5 * v[n] * y_i)
    return np.array(y, dtype=dtype), np.array(memory, dtype=dtype)


def _fig4_factors(n_steps):
    """u, v of fig4's free sweep (None) and of its shot sweeps 0, 1, 2."""
    from pulseguard.adiabatic import _kernel_factors
    from pulseguard.runner import load_config
    from pulseguard.signals import substream

    config = load_config(ROOT / "configs" / "fig4.json")
    grid = TimeGrid(config.grid.t_max, n_steps)
    out = {None: _kernel_factors(config.sweep, None, grid)}
    for k in range(3):
        control = config.signal.sample(substream(config.master_seed, k), grid)
        out[k] = _kernel_factors(config.sweep, control, grid)
    return grid, out


def _node_kernel(u, v, grid):
    """g(t, s) = u(t) v(s) as the callable the reference solver takes."""
    dt = grid.dt

    def kernel(t, s_arr):
        i = int(round(t / dt))
        j = np.rint(np.asarray(s_arr) / dt).astype(int)
        return u[i] * v[j]

    return kernel


class TestVolterra:
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

    def test_overflow_reports_time(self):
        # g = -1 gives y'' = +y, growing like cosh until the 1e6 limit trips
        grid = TimeGrid(t_max=20.0, n_steps=2000)
        ones = np.ones(grid.n_steps + 1)
        with pytest.raises(NumericOverflowError, match=r"exceeded 1e\+06 at t = ") as loop:
            _step_loop_reference(-ones, ones, grid, 1.0 + 0j)
        with pytest.raises(NumericOverflowError, match=re.escape(str(loop.value)) + "$"):
            volterra_solve(-ones, ones, grid, 1.0 + 0j)

    def test_nan_reports_the_first_node_it_reaches(self):
        # u[700] enters the corrector of the step onto node 700, t = 7
        grid = TimeGrid(t_max=20.0, n_steps=2000)
        ones = np.ones(grid.n_steps + 1)
        u = ones.copy()
        u[700] = np.nan
        message = r"exceeded 1e\+06 at t = 7$"
        with pytest.raises(NumericOverflowError, match=message):
            volterra_solve(u, ones, grid, 1.0 + 0j)
        with pytest.raises(NumericOverflowError, match=message):
            _step_loop_reference(u, ones, grid, 1.0 + 0j)

    def test_factor_shape_checked(self):
        grid = TimeGrid(t_max=1.0, n_steps=10)
        with pytest.raises(ValueError, match="v must have shape"):
            volterra_solve(np.ones(11), np.ones(10), grid, 1.0 + 0j)

    def _assert_matches_reference(self, u, v, grid):
        y, memory = volterra_solve(u, v, grid, 1.0 + 0j)
        kernel = _node_kernel(u, v, grid)
        ref_y = _quadratic_volterra_reference(None, kernel, grid, 1.0 + 0j)
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
        u, v = (rng.normal(size=nodes) + 1j * rng.normal(size=nodes) for _ in range(2))
        self._assert_matches_reference(u, v, grid)


class TestVolterraScan:
    """The prefix scan against the step loop it replaced."""

    @pytest.mark.parametrize("shot", [None, 0, 1, 2])
    def test_matches_step_loop_on_fig4_sweeps(self, shot):
        grid, factors = _fig4_factors(5000)
        u, v = factors[shot]
        y, memory = volterra_solve(u, v, grid, 1.0 + 0j)
        ref_y, ref_memory = _step_loop_reference(u, v, grid, 1.0 + 0j)
        assert np.max(np.abs(y - ref_y)) <= 1e-14
        assert np.max(np.abs(memory - ref_memory)) <= 1e-14

    # the edges of the scan's levels: 1 map, powers of two and one past,
    # odd lengths whose last map goes up unpaired
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 1000, 4097])
    def test_matches_step_loop_on_random_factors(self, n_steps):
        rng = np.random.default_rng(n_steps)
        grid = TimeGrid(t_max=3.0, n_steps=n_steps)
        nodes = n_steps + 1
        u, v = (rng.normal(size=nodes) + 1j * rng.normal(size=nodes) for _ in range(2))
        y, memory = volterra_solve(u, v, grid, 0.6 - 0.8j)
        ref_y, ref_memory = _step_loop_reference(u, v, grid, 0.6 - 0.8j)
        assert np.max(np.abs(y - ref_y)) <= 1e-13
        assert np.max(np.abs(memory - ref_memory)) <= 1e-13
        assert memory[0] == 0.0

    # u[j] and v[j] enter the steps onto nodes j and j + 1.  j = n changes
    # only the last step, which at odd n goes up unpaired from level 0; at
    # n = 12 the last four steps go up unpaired from level 2 (3 maps of 4)
    @pytest.mark.parametrize("n_steps, j", [
        (n, j) for n in (5, 12, 17, 4097) for j in sorted({1, n // 2, n - 1, n})
    ])
    def test_node_j_sees_no_map_after_it(self, n_steps, j):
        rng = np.random.default_rng(n_steps + j)
        grid = TimeGrid(t_max=3.0, n_steps=n_steps)
        nodes = n_steps + 1
        u, v = (rng.normal(size=nodes) + 1j * rng.normal(size=nodes) for _ in range(2))
        y, memory = volterra_solve(u, v, grid, 0.6 - 0.8j)
        for which in (0, 1):
            factors = [u.copy(), v.copy()]
            factors[which][j] = 2.0 * factors[which][j] + (0.5 - 0.25j)
            y_new, memory_new = volterra_solve(*factors, grid, 0.6 - 0.8j)
            assert y_new[:j].tobytes() == y[:j].tobytes()
            assert memory_new[:j].tobytes() == memory[:j].tobytes()
            assert y_new[j] != y[j]

        u_nan = u.copy()
        u_nan[j] = np.nan
        with pytest.raises(NumericOverflowError) as loop:
            _step_loop_reference(u_nan, v, grid, 0.6 - 0.8j)
        message = f"Volterra solution exceeded 1e+06 at t = {j * grid.dt:.6g}"
        assert str(loop.value) == message
        with pytest.raises(NumericOverflowError, match=re.escape(message) + "$"):
            volterra_solve(u_nan, v, grid, 0.6 - 0.8j)

    @pytest.mark.skipif(
        not np.finfo(np.longdouble).eps < np.finfo(float).eps,
        reason="long double is no wider than float64 here",
    )
    @pytest.mark.parametrize("shot", [None, 2])
    def test_at_least_as_accurate_as_step_loop(self, shot):
        grid, factors = _fig4_factors(5000)
        u, v = factors[shot]
        exact, _ = _step_loop_reference(u, v, grid, 1.0 + 0j, dtype=np.clongdouble)
        y, _ = volterra_solve(u, v, grid, 1.0 + 0j)
        loop_y, _ = _step_loop_reference(u, v, grid, 1.0 + 0j)
        scan_error = np.max(np.abs(y - exact))
        loop_error = np.max(np.abs(loop_y - exact))
        assert scan_error <= loop_error
