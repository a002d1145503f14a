"""The scalar hot loops and the scans that replaced them, against references.

The jittered pulse draw runs on chunked numpy draws for speed.  The
reference below is the loop as first written, one size-3 draw per pulse;
every train must equal it exactly, not to a tolerance, because it consumes
the random stream in the same order.

The Born j(u) recursion is a two-level decayed sum, which adds in another
order than the loop it replaced, so it has no bitwise original.  The Born
curve is held to the same recursion in extended precision, to within the
error of the numpy-scalar loop, which stays here as a reference.

The Riccati kernel is a scan over exact per-cell Moebius maps, so it has no
bitwise original.  It is held to the same maps applied one by one in
extended precision, to 1e-13, and to the classical RK4 loop it replaced, to
within that loop's own error, estimated by halving its step.  A row's
kernel is bit for bit the same whatever batch it is solved in, and whether
it is solved from its cell values or from the runs its sampler built.
Pass 1 of the scan multiplies one closed-form map per constant stretch of
a chunk, not one per cell; the stretch drives below put stretches where it
cuts, merges or splits them, and hold the kernel to the same 1e-13.
"""

import math

import numpy as np
import pytest

from pulseguard.bath import BathSpec
from pulseguard.me2 import accumulated_phase, me2_fidelity
from pulseguard.numerics import NumericOverflowError, TimeGrid, running_trapezoid
from pulseguard import qsd
from pulseguard.qsd import (
    DEFAULT_STATES,
    _KERNEL_BOUND,
    _chunk_products,
    _map_table,
    solve_kernel_riccati,
)
from pulseguard.signals import (
    _MIN_DUTY,
    _draw_jittered_pulses,
    _rng,
    ChaoticSpec,
    JitterSpec,
    PulseTrainSpec,
    ShotNoiseSpec,
    SignalFamily,
    effective_frequency,
    sample_family,
    substream,
)

GRID = TimeGrid(t_max=10.0, n_steps=10000)
FIG1_BATH = BathSpec(coupling=1.0, cutoff=0.5)
FIG2_BATH = BathSpec(coupling=1.0, cutoff=0.3)
FIG2_PULSE = PulseTrainSpec(period=0.02, duration=0.005, area=0.2)
FIG2_JITTER = JitterSpec(period_dev=0.004, duration_dev=0.004, area_dev=0.18)
REGULAR = PulseTrainSpec(period=0.02, duration=0.01, area=0.2)
# drawn periods spread so widely that many trains outrun the first chunk of draws
WIDE_JITTER = JitterSpec(period_dev=0.0199, duration_dev=0.004, area_dev=0.18)


def rk4_kernel(E, bath, grid):
    """The kernel by classical RK4, one step per cell, on Python complex.

    The production loop before the exact scan; a diverged F runs on to inf
    or nan.
    """
    dt = grid.dt
    w = bath.weight
    sixth = dt / 6.0
    half = 0.5 * dt
    f = 0j
    values = [f]
    for rate in (1j * np.asarray(E) - bath.cutoff).tolist():
        k1 = w + (rate + f) * f
        y = f + half * k1
        k2 = w + (rate + y) * y
        y = f + half * k2
        k3 = w + (rate + y) * y
        y = f + dt * k3
        k4 = w + (rate + y) * y
        f = f + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        values.append(f)
    return np.array(values)


def extended_kernel(E, bath, grid):
    """solve_kernel_riccati's cell maps, built from their closed form and
    applied one by one in np.clongdouble.

    Raises at the first node after a cell with Re(a - b F) <= 0, or
    beyond the kernel bound, as the scan does.
    """
    dt = np.longdouble(grid.dt)
    w = np.longdouble(bath.weight)
    r = 1j * np.asarray(E, dtype=np.longdouble) - np.longdouble(bath.cutoff)
    delta = np.sqrt(r * r / 4 - w)
    C = np.cosh(delta * dt)
    with np.errstate(invalid="ignore", divide="ignore"):
        S = np.where(delta == 0, dt, np.sinh(delta * dt) / delta)
    maps = zip(C - r * S / 2, S, -w * S, C + r * S / 2)
    values = np.zeros(grid.n_steps + 1, dtype=np.clongdouble)
    f = values[0]
    for k, (a, b, c, d) in enumerate(maps):
        den = a - b * f
        f = (d * f - c) / den
        if not (den.real > 0 and abs(f) <= _KERNEL_BOUND):
            raise NumericOverflowError(f"memory kernel diverged at t = {grid.times[k + 1]:.6g}")
        values[k + 1] = f
    return values


def reference_born(states, E, bath, grid):
    """me2_fidelity as first written: its j(u) recursion on numpy scalars."""
    dt = grid.dt
    phase = accumulated_phase(E, grid)
    decay = np.exp(-bath.cutoff * dt)
    emi = np.exp(-1j * phase)
    j = np.empty(grid.n_steps + 1, dtype=complex)
    j[0] = 0.0
    for k in range(grid.n_steps):
        j[k + 1] = decay * j[k] + 0.5 * dt * (decay * emi[k] + emi[k + 1])
    amp = np.array([p**2 for p in states])
    inner = (amp[:, None] * bath.weight) * np.exp(1j * phase) * j
    exponent = 2.0 * running_trapezoid(np.real(inner), dt)
    return np.mean(np.exp(-exponent), axis=0)


def extended_born(states, E, bath, grid):
    """me2_fidelity from the same phase, with the j(u) recursion run cell by
    cell and everything after the phase in np.clongdouble."""
    dt = np.longdouble(grid.dt)
    emi = np.exp(-1j * accumulated_phase(E, grid).astype(np.longdouble))
    decay = np.exp(-np.longdouble(bath.cutoff) * dt)
    j = np.zeros(grid.n_steps + 1, dtype=np.clongdouble)
    for k in range(grid.n_steps):
        j[k + 1] = decay * j[k] + dt / 2 * (decay * emi[k] + emi[k + 1])
    inner = np.longdouble(bath.weight) * np.real(np.conj(emi) * j)
    exponent = np.zeros(grid.n_steps + 1, dtype=np.longdouble)
    exponent[1:] = 2 * np.cumsum(dt / 2 * (inner[1:] + inner[:-1]))
    p2 = np.array(states, dtype=np.longdouble) ** 2
    return np.mean(np.exp(-p2[:, None] * exponent), axis=0)


def reference_jittered(spec, jitter, seed, t_max):
    """_draw_jittered_pulses with one size-3 draw per pulse."""
    rng = _rng(seed)
    ends = []
    durations = []
    heights = []
    dev_sum = 0.0
    n = 0
    while True:
        n += 1
        u = rng.uniform(-1.0, 1.0, size=3)
        period = spec.period + jitter.period_dev * u[0]
        if not period > 0.0:
            raise ValueError(
                "period_dev admits non-positive pulse periods; reduce it below the base period"
            )
        duration = spec.duration + jitter.duration_dev * u[1]
        area = spec.area + jitter.area_dev * u[2]
        dev_sum += jitter.period_dev * u[0]
        end = n * spec.period + dev_sum
        duration = min(max(duration, _MIN_DUTY * period), period)
        area = max(area, 0.0)
        ends.append(end)
        durations.append(duration)
        heights.append(area / duration)
        if end - duration > t_max:
            break
    return np.asarray(ends), np.asarray(durations), np.asarray(heights)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual.view(np.float64), expected.view(np.float64))


def splitting(family, seed=0, grid=GRID):
    return effective_frequency(family.sample(seed, grid), 1.0)


CONTROLS = {
    "free": SignalFamily("none"),
    "regular": SignalFamily("regular", pulse=REGULAR),
    "chaotic": SignalFamily("chaotic", pulse=REGULAR, chaos=ChaoticSpec()),
    "jittered": SignalFamily("jittered", pulse=FIG2_PULSE, jitter=FIG2_JITTER),
    "shot": SignalFamily("shot", shot=ShotNoiseSpec(strength=0.1, rate=100.0)),
}
# shot rows that are one run, and rows of about 3 arrivals a cell on GRID's dt
SHOT_EDGES = {
    "shot-zero-strength": SignalFamily("shot", shot=ShotNoiseSpec(strength=0.0, rate=100.0)),
    "shot-past-one-count-a-cell": SignalFamily("shot", shot=ShotNoiseSpec(strength=1e-4, rate=3000.0)),
}
# the master seeds of the fig2 (jittered) and fig3 (shot) presets
SEEDS = {"jittered": 11, "shot": 13}


def drive(name, k=3):
    """Trajectory k's splitting under control `name`, and its bath."""
    bath = FIG2_BATH if name == "jittered" else FIG1_BATH
    return splitting(CONTROLS[name], substream(SEEDS.get(name, 11), k)), bath


# the grid of GRID's dt whose last chunk is half identity padding
PADDED = TimeGrid(t_max=1.25, n_steps=1250)
# memory time 1 / cutoff = 10 cells: a stretch of up to 13 cells merges into
# one map, one of 14 or more would be rescaled, so it stays single cells
SHORT_MEMORY_BATH = BathSpec(coupling=1.0, cutoff=100.0)
# 5-cell pulses every 37 cells on GRID
SPANS = SignalFamily("regular", pulse=PulseTrainSpec(period=0.037, duration=0.005, area=0.2))


def controls(name, ks, grid=GRID):
    """The sampled controls of trajectories ks under control `name`, each alone."""
    family = {"spans": SPANS, **SHOT_EDGES, **CONTROLS}[name]
    return [family.sample(substream(SEEDS.get(name, 11), k), grid) for k in ks]


def block_runs(name, ks, grid=GRID):
    """The runs of E = 1 + c of trajectories ks under control `name`,
    sampled as one block, as the runner samples them."""
    family = {"spans": SPANS, **SHOT_EDGES, **CONTROLS}[name]
    return sample_family(family, [substream(SEEDS.get(name, 11), k) for k in ks], grid, 1.0)


def cell_index(runs, grid):
    """The level table and (B, n_steps) cell index of `runs`, as
    solve_kernel_riccati forms them for _map_table."""
    level, column, length = runs
    return level, np.repeat(column, length).reshape(-1, grid.n_steps)


def stretch_drive(name):
    """A drive, its bath and its grid, with stretches where pass 1 cuts,
    merges or splits them."""
    n = GRID.n_steps
    if name == "free":  # one stretch, cut at every chunk start
        return np.ones(n), FIG1_BATH, GRID
    if name == "constant":
        return np.full(n, 3.7), FIG2_BATH, GRID
    if name == "across-chunk-starts":  # 40-cell pulses over cells 90..129, 790..829, ...
        E = np.ones(n)
        for first in range(90, n - 40, 700):
            E[first : first + 40] = 21.0
        return E, FIG1_BATH, GRID
    if name == "one-cell":  # every cell its own level
        return np.random.default_rng(5).uniform(0.5, 1.5, n), FIG1_BATH, GRID
    if name == "padded-last-chunk":
        E, bath = drive("jittered")
        return E[: PADDED.n_steps], bath, PADDED
    if name == "spans-around-the-memory-time":
        # 5-cell pulses every 37 cells: the pulses merge, and so does a gap
        # piece that a chunk start cuts below 14 cells; the rest of the
        # 32-cell gaps stay single cells
        return splitting(SPANS), SHORT_MEMORY_BATH, GRID
    raise KeyError(name)


STRETCH_DRIVES = ("free", "constant", "across-chunk-starts", "one-cell", "padded-last-chunk",
                  "spans-around-the-memory-time")


# E = 0 on FIG1_BATH has a pole of F at t ~ 4.8368; each grid's dt puts the
# cell that holds it at one edge of a chunk of 100 cells, and names the node
# after that cell
POLE_GRIDS = {
    "first-cell": (TimeGrid(t_max=8.058, n_steps=2000), 1201),  # cell 1200, k = 0
    "last-cell": (TimeGrid(t_max=8.065, n_steps=2000), 1200),  # cell 1199, k = 99
    # cell 1230 of 1250: the last chunk is half identity padding
    "padded-last-chunk": (TimeGrid(t_max=4.9135, n_steps=1250), 1231),
}


class TestRiccatiKernel:
    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_matches_the_maps_one_by_one_in_extended_precision(self, name):
        E, bath = drive(name)
        kernel = solve_kernel_riccati(E, bath, GRID)
        assert np.max(np.abs(kernel.values - extended_kernel(E, bath, GRID))) <= 1e-13

    @pytest.mark.parametrize("name", STRETCH_DRIVES)
    def test_stretch_maps_match_the_maps_one_by_one(self, name):
        E, bath, grid = stretch_drive(name)
        kernel = solve_kernel_riccati(E, bath, grid)
        assert np.max(np.abs(kernel.values - extended_kernel(E, bath, grid))) <= 1e-13

    def test_a_stretch_merges_unless_its_map_would_be_rescaled(self):
        level, cells = cell_index(block_runs("spans", [0]), GRID)
        table, _, cells, index, active = _map_table(level, cells, SHORT_MEMORY_BATH, GRID)
        # pass 3's cell index is chunk-major: row 0's chunks are cells[:, 0].T
        stretches = 1 + np.count_nonzero(np.diff(cells[:, 0, :-1].T), axis=1)
        pieces = np.count_nonzero(active, axis=0)[0]
        # every chunk has pulses that merge and gaps that stay single cells
        assert np.all((stretches < pieces) & (pieces < cells.shape[0]))
        # a map that pass 1 reads is finite and needs no rescaling, so its I + D
        # has entries up to 2; the table also keeps the maps of the keys that split
        eye = np.array([[1.0], [0.0], [0.0], [1.0]])
        assert np.all(np.abs(table[:, index[active]] + eye) <= 2.0)

    def test_pieces_are_the_runs_of_equal_cells_in_each_chunk(self):
        """On 300 cells, chunk 0 is one piece of level 0, chunk 1 a piece of
        level 0 and one of level 1, 50 cells each, and the last chunk has
        none.  The table holds the two levels, the identity, then one map per
        (level id, L) in key order: (0, 50), (0, 100), (1, 50)."""
        grid = TimeGrid(0.3, 300)
        cells = np.repeat([0, 1, 0], [150, 50, 100])[np.newaxis]
        table, maps, padded, index, active = _map_table(np.array([1.0, 3.0]), cells,
                                                        FIG1_BATH, grid)
        assert table.shape == (4, 6) and maps.shape == (4, 3)
        # pass 3's index: cell j * 100 + k of row b at [k, b, j]
        assert padded.shape == (100, 1, 3)
        assert np.array_equal(padded.transpose(1, 2, 0).reshape(1, -1), cells)
        assert np.array_equal(index[:, 0], [[4, 3], [2, 5]])
        assert np.array_equal(active[:, 0], [[True, True], [False, True]])

    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_within_rk4_error_of_the_rk4_loop(self, name):
        E, bath = drive(name)
        kernel = solve_kernel_riccati(E, bath, GRID)
        rk4 = rk4_kernel(E, bath, GRID)
        # E is constant in each cell, so halving the step halves the cells
        halved = rk4_kernel(np.repeat(E, 2), bath, TimeGrid(GRID.t_max, 2 * GRID.n_steps))
        # Richardson: a fourth-order loop's error is 16/15 of what halving changes
        error = 16.0 / 15.0 * np.max(np.abs(rk4 - halved[::2]))
        assert np.max(np.abs(kernel.values - rk4)) <= 1.1 * error + 1e-15

    def test_divergence_reported_at_the_same_time(self):
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        E = np.zeros(grid.n_steps)
        with pytest.raises(NumericOverflowError) as expected:
            extended_kernel(E, FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as actual:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert str(actual.value) == str(expected.value)
        # the RK4 loop first leaves the kernel bound at the same node
        node = np.argmax(~(np.abs(rk4_kernel(E, FIG1_BATH, grid)) <= _KERNEL_BOUND))
        assert str(actual.value).endswith(f"t = {grid.times[node]:.6g}")

    def test_off_zero_splitting_the_rule_is_a_threshold_on_re_f(self):
        """For E != 0, z never reaches zero, and the rule fires on Re F ~ 1/dt.

        At E = 1e-4, F runs past 1/dt within a cell of the E = 0 pole, and
        the error names the same node; at E = 1e-3, F peaks below 1/dt and
        the scan carries it on as the maps do in extended precision.
        """
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        with pytest.raises(NumericOverflowError) as at_zero:
            solve_kernel_riccati(np.zeros(grid.n_steps), FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as near_zero:
            solve_kernel_riccati(np.full(grid.n_steps, 1e-4), FIG1_BATH, grid)
        assert str(near_zero.value) == str(at_zero.value)
        E = np.full(grid.n_steps, 1e-3)
        values = solve_kernel_riccati(E, FIG1_BATH, grid).values
        assert 50.0 < np.max(values.real) < 1.0 / grid.dt
        assert np.max(np.abs(values - extended_kernel(E, FIG1_BATH, grid))) <= 1e-9

    @pytest.mark.parametrize("where", sorted(POLE_GRIDS))
    def test_pole_at_a_chunk_edge_reported_at_its_node(self, where):
        grid, node = POLE_GRIDS[where]
        E = np.zeros(grid.n_steps)
        with pytest.raises(NumericOverflowError) as expected:
            extended_kernel(E, FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as actual:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert str(actual.value) == str(expected.value)
        assert str(expected.value) == f"memory kernel diverged at t = {grid.times[node]:.6g}"

    def test_nan_splitting_fails_at_the_first_step(self):
        E = np.ones(GRID.n_steps)
        E[0] = np.nan
        with pytest.raises(NumericOverflowError, match=f"t = {GRID.dt:.6g}$"):
            solve_kernel_riccati(E, FIG1_BATH, GRID)


# pass 3's failures: each case's batch, bath and grid, and the row and
# message of the error it raises
PASS_THREE_FAILURES = {
    # E = 0 puts a pole in cell 1200, the first cell of chunk 12
    "first-cell-of-a-chunk": (lambda: np.stack([np.ones(2000), np.ones(2000), np.zeros(2000)]),
                              FIG1_BATH, POLE_GRIDS["first-cell"][0],
                              2, "memory kernel diverged at t = 4.83883"),
    # F jumps to about w dt = 1e7 in the first cell, whose a - b F stays near 1
    "kernel-bound-only": (lambda: np.ones((1, 1000)), BathSpec(coupling=2e15, cutoff=1.0),
                          TimeGrid(t_max=1e-5, n_steps=1000), 0, "memory kernel diverged at t = 1e-08"),
    "nan": (lambda: np.stack([np.ones(1000), np.where(np.arange(1000) == 500, np.nan, 1.0),
                              np.ones(1000)]),
            FIG1_BATH, TimeGrid(t_max=2.0, n_steps=1000), 1, "memory kernel diverged at t = 1.002"),
    # cell 1230 of 1250: the last chunk is half identity padding
    "padded-last-chunk": (lambda: np.stack([np.ones(1250), np.zeros(1250), np.zeros(1250)]),
                          FIG1_BATH, POLE_GRIDS["padded-last-chunk"][0],
                          1, "memory kernel diverged at t = 4.83881"),
}


class TestPassThreeChecks:
    @pytest.mark.parametrize("case", sorted(PASS_THREE_FAILURES))
    def test_failures_keep_their_row_and_message(self, case):
        E, bath, grid, row, message = PASS_THREE_FAILURES[case]
        with pytest.raises(NumericOverflowError) as failure:
            solve_kernel_riccati(E(), bath, grid)
        assert (failure.value.row, str(failure.value)) == (row, message)

    def test_the_bound_case_is_caught_by_the_kernel_bound_alone(self, monkeypatch):
        """Without the bound, the denominator rule first fires four cells on."""
        E, bath, grid, _, _ = PASS_THREE_FAILURES["kernel-bound-only"]
        monkeypatch.setattr(qsd, "_KERNEL_BOUND", np.inf)
        with pytest.raises(NumericOverflowError, match="^memory kernel diverged at t = 5e-08$"):
            solve_kernel_riccati(E(), bath, grid)


def drives(name, count):
    """Splittings of `count` trajectories of control `name`, stacked, and the bath."""
    rows = [drive(name, k) for k in range(count)]
    return np.stack([E for E, _ in rows]), rows[0][1]


class TestBatchedKernel:
    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_rows_match_their_scalar_kernels(self, name):
        """The jittered and shot drives are fig2's and fig3's trajectories 0 .. 31."""
        E, bath = drives(name, 32)
        full = solve_kernel_riccati(E, bath, GRID).values
        assert full.shape == (32, GRID.n_steps + 1)
        for size in (1, 2, 7, 8, 31):
            assert_bitwise(solve_kernel_riccati(E[:size], bath, GRID).values, full[:size])
        assert_bitwise(solve_kernel_riccati(E[-1], bath, GRID).values, full[-1])

    def test_a_batch_of_one_is_the_single_drive_bit_for_bit(self):
        E, bath = drives("shot", 1)
        assert_bitwise(solve_kernel_riccati(E, bath, GRID).values,
                       solve_kernel_riccati(E[0], bath, GRID).values[np.newaxis])

    def test_diverging_row_reported_with_the_scalar_time(self):
        grid = TimeGrid(t_max=20.0, n_steps=4000)
        E = np.ones((5, grid.n_steps))
        E[[2, 4]] = 0.0  # omega = 0 without control diverges; omega = 1 does not
        with pytest.raises(NumericOverflowError) as expected:
            solve_kernel_riccati(E[2], FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as actual:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert actual.value.row == 2
        assert str(actual.value) == str(expected.value)

    def test_first_diverging_row_named_before_an_earlier_node(self):
        grid, node = POLE_GRIDS["first-cell"]
        E = np.ones((4, grid.n_steps))
        E[2] = 0.0  # a pole at the first cell of a chunk
        E[3, 5] = np.nan  # fails at node 6, but in a later row
        with pytest.raises(NumericOverflowError) as expected:
            extended_kernel(E[2], FIG1_BATH, grid)
        with pytest.raises(NumericOverflowError) as actual:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert actual.value.row == 2
        assert str(actual.value) == str(expected.value)
        assert str(actual.value).endswith(f"t = {grid.times[node]:.6g}")

    @pytest.mark.parametrize("grid", [GRID, PADDED], ids=["whole-chunks", "padded-last-chunk"])
    def test_rows_with_different_stretch_counts_are_independent_of_the_batch(self, grid):
        """A chunk of free decay has 1 piece, of a regular train 10, of fig2's
        jittered trains about 11 and of fig3's shot noise up to 37; pass 1
        pads each chunk to the block's most with a masked identity.  The
        bath has no pole at E = 0, so a row of real maps joins the block."""
        bath = BathSpec(coupling=0.1, cutoff=0.3)
        E = np.stack(
            [np.zeros(GRID.n_steps), splitting(CONTROLS["free"]), splitting(CONTROLS["regular"])]
            + [drive("jittered", k)[0] for k in range(3)]
            + [drive("shot", k)[0] for k in range(3)]
        )[:, : grid.n_steps]
        full = solve_kernel_riccati(E, bath, grid).values
        for row, F in zip(E, full):
            assert solve_kernel_riccati(row, bath, grid).values.tobytes() == F.tobytes()
        for size in (1, 2, 7):
            for first in range(0, len(E), size):
                batch = solve_kernel_riccati(E[first : first + size], bath, grid).values
                assert batch.tobytes() == full[first : first + size].tobytes()

    def test_rows_whose_pieces_split_are_independent_of_the_batch(self):
        """On the short-memory bath, the train of 5-cell pulses every 37 cells
        splits its long gap pieces and free decay its chunk-long pieces, while
        the regular and chaotic trains' 10-cell pieces merge.  A split is
        decided once per (level, L) of the block, for every row that has it,
        so a row must not depend on which rows share its block."""
        spans, bath, grid = stretch_drive("spans-around-the-memory-time")
        free = splitting(CONTROLS["free"])
        E = np.stack([spans, free, splitting(CONTROLS["regular"]), splitting(CONTROLS["chaotic"]),
                      spans[::-1], spans + 0.5, 2.0 * free, spans])
        level, cells = np.unique(E, return_inverse=True)
        table, maps, _, index, active = _map_table(level, cells.reshape(E.shape), bath, grid)
        # the maps of the keys that split stay in the table, unread by pass 1
        unread = np.setdiff1d(np.arange(maps.shape[1], table.shape[1]), index[active])
        assert 0 < len(unread) < table.shape[1] - maps.shape[1]
        full = solve_kernel_riccati(E, bath, grid).values
        for row, F in zip(E, full):
            assert solve_kernel_riccati(row, bath, grid).values.tobytes() == F.tobytes()
        for size in (1, 2, 7):
            for first in range(0, len(E), size):
                batch = solve_kernel_riccati(E[first : first + size], bath, grid).values
                assert batch.tobytes() == full[first : first + size].tobytes()

    def test_a_padded_slot_leaves_a_product_bit_for_bit(self):
        """Chunk 0 has two pieces and chunk 1 one, so slot 1 pads chunk 1 with
        the identity, masked: its product keeps the first map's -0 entries,
        which 0 + (-0) = +0 would not."""
        first = np.array([complex(-0.0, -0.0), 0.25, complex(0.0, -0.0), 0.1])
        second = np.array([0.01, 0.02, -0.03, 0.04j])
        table = np.stack([first, second, np.zeros(4)], axis=1)
        index = np.array([[[0, 0]], [[1, 2]]], dtype=np.int32)
        active = np.array([[[True, True]], [[True, False]]])
        Q = np.empty((4, 1, 2), dtype=complex)
        _chunk_products(Q, table, index, active)
        assert Q[:, 0, 1].tobytes() == first.tobytes()
        # I + Q is the product (I + second)(I + first), the later map on the left
        product = (np.eye(2) + second.reshape(2, 2)) @ (np.eye(2) + first.reshape(2, 2))
        np.testing.assert_allclose(Q[:, 0, 0], (product - np.eye(2)).ravel(), rtol=0, atol=1e-16)

    def test_one_table_column_per_structural_level_of_the_block(self):
        ks = range(4)
        level, cells = cell_index(block_runs("jittered", ks, PADDED), PADDED)  # half padding
        table, maps, cells, _, _ = _map_table(level, cells, FIG2_BATH, PADDED)
        # pass 3 reads a copy of the table's cell maps and identity
        assert np.array_equal(maps, table[:, : maps.shape[1]])
        # omega, which every row's gaps share, then each pulse of each row
        seeds = [substream(SEEDS["jittered"], k) for k in ks]
        *_, heights, counts = _draw_jittered_pulses(FIG2_PULSE, FIG2_JITTER, seeds, PADDED.t_max)
        assert level.tobytes() == (1.0 + np.concatenate([[0.0], heights])).tobytes()
        assert maps.shape == (4, 1 + counts.sum() + 1)
        index = cells.transpose(1, 2, 0).reshape(len(ks), -1)
        E = np.stack([effective_frequency(signal, 1.0) for signal in controls("jittered", ks, PADDED)])
        assert np.array_equal(level[index[:, : PADDED.n_steps]], E)
        # the padding indexes the identity I + 0, the column after the cell maps
        assert np.all(index[:, PADDED.n_steps :] == len(level)) and not maps[:, -1].any()

    @pytest.mark.parametrize("grid", [GRID, PADDED], ids=["whole-chunks", "padded-last-chunk"])
    @pytest.mark.parametrize("name, ks, bath", [
        ("regular", [0], FIG1_BATH),  # fig1's drive
        ("jittered", range(20), FIG2_BATH),  # fig2's blocks of 20 and 32
        ("jittered", range(20, 52), FIG2_BATH),
        ("shot", range(32), FIG1_BATH),  # a fig3 block
        ("spans", [0], SHORT_MEMORY_BATH),  # pieces that split
        ("shot-zero-strength", range(4), FIG1_BATH),
        ("shot-past-one-count-a-cell", range(4), FIG1_BATH),
    ], ids=["fig1", "fig2-20", "fig2-32", "fig3-32", "spans-around-the-memory-time",
            "shot-zero-strength", "shot-past-one-count-a-cell"])
    def test_runs_give_the_kernels_of_the_cell_values(self, name, ks, bath, grid):
        signals = controls(name, ks, grid)
        E = np.stack([effective_frequency(signal, 1.0) for signal in signals])
        expected = solve_kernel_riccati(E, bath, grid).values
        assert solve_kernel_riccati(block_runs(name, ks, grid), bath, grid).values.tobytes() == \
            expected.tobytes()

    def test_runs_at_one_splitting_are_joined(self):
        """Pulses of area 1e-20 shift E = 1 by less than its rounding, so a
        pulse's run and the gaps around it are one stretch of E."""
        family = SignalFamily("jittered", pulse=PulseTrainSpec(0.02, 0.005, 1e-20),
                              jitter=JitterSpec(0.004, 0.004, 1e-20))
        seeds = [substream(5, k) for k in range(3)]
        signals = [family.sample(seed, PADDED) for seed in seeds]
        assert all(len(signal._runs[1]) > 1 for signal in signals)
        _, column, length = runs = sample_family(family, seeds, PADDED, 1.0)
        assert len(column) == 3 and np.all(length == PADDED.n_steps)
        E = np.stack([effective_frequency(signal, 1.0) for signal in signals])
        assert solve_kernel_riccati(runs, FIG2_BATH, PADDED).values.tobytes() == \
            solve_kernel_riccati(E, FIG2_BATH, PADDED).values.tobytes()

    def test_negative_zero_cells_give_the_kernel_of_positive_zero(self):
        grid = TimeGrid(t_max=2.0, n_steps=1000)
        E = np.ones(grid.n_steps)
        E[100:300] = 0.0
        expected = solve_kernel_riccati(E, FIG1_BATH, grid).values
        E[200:300] = -0.0
        assert solve_kernel_riccati(E, FIG1_BATH, grid).values.tobytes() == expected.tobytes()
        assert solve_kernel_riccati(np.stack([E, -E]), FIG1_BATH, grid).values[0].tobytes() == \
            expected.tobytes()

    def test_a_nan_cell_fails_at_its_node(self):
        """Cell values reach the kernel unchecked, so a nan is its own run,
        and the scan reports the node after it."""
        grid = TimeGrid(t_max=2.0, n_steps=1000)
        E = np.ones(grid.n_steps)
        E[500] = np.nan
        with pytest.raises(NumericOverflowError) as failure:
            solve_kernel_riccati(E, FIG1_BATH, grid)
        assert str(failure.value) == "memory kernel diverged at t = 1.002"

    @pytest.mark.parametrize("grid", [GRID, PADDED], ids=["whole-chunks", "padded-last-chunk"])
    @pytest.mark.parametrize("name", ["jittered", "shot"])
    def test_rows_of_runs_are_independent_of_the_batch(self, name, grid):
        """The gap's level, omega, is one column for the whole block, and its
        pieces' maps one per (level, L), so a row must not depend on which
        rows share its block."""
        bath = FIG2_BATH if name == "jittered" else FIG1_BATH
        full = solve_kernel_riccati(block_runs(name, range(9), grid), bath, grid).values
        for size in (1, 2, 7):
            for first in range(0, 9, size):
                ks = range(first, min(first + size, 9))
                batch = solve_kernel_riccati(block_runs(name, ks, grid), bath, grid)
                assert batch.values.tobytes() == full[first : first + size].tobytes()


class TestBornRecursion:
    @pytest.mark.parametrize("name", ["free", "regular", "chaotic"])
    def test_within_the_loop_error_of_extended_precision(self, name):
        """The scan errs by at most 1.5 times what the loop it replaced errs
        (4.7e-15 on free decay, 5e-16 to 9e-16 under control): the two add
        in different orders, so either may come out slightly ahead."""
        E = splitting(CONTROLS[name])
        extended = extended_born(DEFAULT_STATES, E, FIG1_BATH, GRID)
        scan = me2_fidelity(DEFAULT_STATES, E, FIG1_BATH, GRID).values
        loop = reference_born(DEFAULT_STATES, E, FIG1_BATH, GRID)
        loop_error = np.max(np.abs(loop - extended))
        assert loop_error <= 5e-15
        assert np.max(np.abs(scan - extended)) <= 1.5 * loop_error


def row_slices(block, counts):
    """Each row's part of arrays laid out row after row, `counts` to a row."""
    cuts = np.cumsum(counts)[:-1]
    return list(zip(*(np.split(a, cuts) for a in block)))


class TestJitteredDraw:
    @pytest.mark.parametrize(
        "pulse, jitter",
        [
            (FIG2_PULSE, FIG2_JITTER),
            (FIG2_PULSE, JitterSpec()),
            (FIG2_PULSE, WIDE_JITTER),
        ],
        ids=["fig2", "zero-deviations", "multi-chunk"],
    )
    def test_bitwise_equal_to_per_pulse_draws(self, pulse, jitter):
        """Each train of a block of 30, and each drawn alone, is the loop's."""
        seeds = [substream(11, seed) for seed in range(30)]
        *block, counts = _draw_jittered_pulses(pulse, jitter, seeds, GRID.t_max)
        for stream, row in zip(seeds, row_slices(block, counts)):
            expected = reference_jittered(pulse, jitter, stream, GRID.t_max)
            alone = _draw_jittered_pulses(pulse, jitter, [stream], GRID.t_max)[:3]
            for a, b, e in zip(row, alone, expected):
                assert_bitwise(a, e)
                assert_bitwise(b, e)

    def test_multi_chunk_case_outruns_one_chunk(self):
        seeds = [substream(11, seed) for seed in range(30)]
        counts = _draw_jittered_pulses(FIG2_PULSE, WIDE_JITTER, seeds, GRID.t_max)[3]
        assert max(counts) > int(GRID.t_max / FIG2_PULSE.period) + 2

    def test_non_positive_period_raises_exactly_when_the_loop_did(self):
        # periods reach -0.002, so some trains meet one before t_max and some do not
        jitter = JitterSpec(period_dev=0.022)
        outcomes = set()
        drawn = []
        for seed in range(40):
            stream = substream(5, seed)
            try:
                expected = reference_jittered(FIG2_PULSE, jitter, stream, 0.2)
            except ValueError:
                with pytest.raises(ValueError, match="non-positive pulse periods"):
                    _draw_jittered_pulses(FIG2_PULSE, jitter, [stream], 0.2)
                outcomes.add("raised")
            else:
                for a, e in zip(_draw_jittered_pulses(FIG2_PULSE, jitter, [stream], 0.2), expected):
                    assert_bitwise(a, e)
                outcomes.add("drawn")
                drawn.append(stream)
        assert outcomes == {"raised", "drawn"}
        # a block raises if any of its trains does, and draws the others as the loop does
        with pytest.raises(ValueError, match="^period_dev admits non-positive pulse periods; "
                                             "reduce it below the base period$"):
            _draw_jittered_pulses(FIG2_PULSE, jitter, [substream(5, seed) for seed in range(40)], 0.2)
        *block, counts = _draw_jittered_pulses(FIG2_PULSE, jitter, drawn, 0.2)
        for stream, row in zip(drawn, row_slices(block, counts)):
            for a, e in zip(row, reference_jittered(FIG2_PULSE, jitter, stream, 0.2)):
                assert_bitwise(a, e)


def reference_train(family, seed, t_max):
    """A pulse family's train pulse by pulse, as first written."""
    if family.kind == "jittered":
        return reference_jittered(family.pulse, family.jitter, seed, t_max)
    ends, durations, heights = [], [], []
    if family.kind != "none":
        spec = family.pulse
        x = family.chaos.seed_intensity if family.kind == "chaotic" else None
        for n in range(1, math.ceil(t_max / spec.period) + 2):
            height = spec.area / spec.duration
            if x is not None:
                x = family.chaos.logistic_r * (x - x * x)
                height *= x
            ends.append(n * spec.period)
            durations.append(spec.duration)
            heights.append(height)
    return np.array(ends), np.array(durations), np.array(heights)


def reference_splitting(family, seed, grid, omega):
    """E = omega + c cell by cell: a pulse family's train tested midpoint by
    midpoint against the window of the first pulse that ends at or after
    it, or shot noise's arrival count in each cell times its height."""
    if family.kind == "shot":
        counts = np.random.default_rng(seed).poisson(family.shot.rate * grid.dt, size=grid.n_steps)
        return omega + counts * (family.shot.strength / grid.dt)
    ends, durations, heights = (a.tolist() for a in reference_train(family, seed, grid.t_max))
    values, i = [], 0
    for t in grid.midpoints.tolist():
        while i < len(ends) and ends[i] < t:
            i += 1
        on = i < len(ends) and ends[i] - durations[i] < t
        values.append(omega + heights[i] if on else omega + 0.0)
    return np.array(values)


def row_runs(runs, n):
    """Each row's runs of a block, as (E of each run, lengths)."""
    level, column, length = runs
    cuts = np.flatnonzero(np.cumsum(length) % n == 0)[:-1] + 1
    return [(level.take(ids), lengths) for ids, lengths in zip(np.split(column, cuts),
                                                               np.split(length, cuts))]


CLAMPED = SignalFamily("jittered", pulse=PulseTrainSpec(0.02, 0.005, 0.1),
                       jitter=JitterSpec(0.004, 0.004, 0.3))
# name: family, grid, master seed and trajectories of a block
BLOCKS = {
    "none": (CONTROLS["free"], GRID, 0, range(3)),
    "regular": (CONTROLS["regular"], GRID, 0, range(3)),
    "chaotic": (CONTROLS["chaotic"], GRID, 0, range(3)),
    # fig2's first block, of which about a quarter of the trains draw a second chunk
    "jittered": (CONTROLS["jittered"], GRID, 11, range(32)),
    "jittered-multi-chunk": (SignalFamily("jittered", pulse=FIG2_PULSE, jitter=WIDE_JITTER),
                             GRID, 11, range(8)),
    # area_dev > area: a third of the pulses are clamped to zero height
    "jittered-clamped": (CLAMPED, PADDED, 3, range(8)),
    "shot": (CONTROLS["shot"], GRID, 13, range(32)),
    "shot-zero-strength": (SHOT_EDGES["shot-zero-strength"], PADDED, 13, range(4)),
    # about 1000 arrivals a cell: past n_steps counts, levels are numbered by value
    "shot-by-value": (SignalFamily("shot", shot=ShotNoiseSpec(strength=0.1, rate=1e4)),
                      TimeGrid(t_max=1.0, n_steps=10), 3, range(6)),
}


class TestBlockSampler:
    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_each_row_is_its_trajectory_alone_and_the_scalar_reference(self, name):
        family, grid, seed, ks = BLOCKS[name]
        seeds = [substream(seed, k) for k in ks]
        rows = row_runs(sample_family(family, seeds, grid, 1.0), grid.n_steps)
        assert len(rows) == len(seeds)
        for stream, (E, lengths) in zip(seeds, rows):
            [(alone, alone_lengths)] = row_runs(sample_family(family, [stream], grid, 1.0),
                                               grid.n_steps)
            assert E.tobytes() == alone.tobytes() and np.array_equal(lengths, alone_lengths)
            # maximal: none empty, no two neighbours at equal E
            assert np.all(lengths > 0) and np.all(E[1:] != E[:-1])
            expected = reference_splitting(family, stream, grid, 1.0)
            assert np.repeat(E, lengths).tobytes() == expected.tobytes()

    def test_the_blocks_reach_the_cases_they_are_named_for(self):
        chunk = int(GRID.t_max / FIG2_PULSE.period) + 2
        for name in ("jittered", "jittered-multi-chunk"):
            family, grid, seed, ks = BLOCKS[name]
            counts = _draw_jittered_pulses(family.pulse, family.jitter,
                                           [substream(seed, k) for k in ks], grid.t_max)[3]
            assert 0 < np.count_nonzero(counts > chunk) < len(ks), name
        family, grid, seed, ks = BLOCKS["jittered-clamped"]
        heights = _draw_jittered_pulses(family.pulse, family.jitter,
                                        [substream(seed, k) for k in ks], grid.t_max)[2]
        assert 0 < np.count_nonzero(heights == 0.0) < len(heights)
        family, grid, seed, ks = BLOCKS["shot-by-value"]
        peak = max(reference_splitting(family, substream(seed, k), grid, 0.0).max() for k in ks)
        level, _, _ = sample_family(family, [substream(seed, k) for k in ks], grid, 1.0)
        # more distinct counts than cells: numbered by value, a level per distinct value
        assert peak / (family.shot.strength / grid.dt) >= grid.n_steps
        assert len(level) <= 1 + grid.n_steps * len(ks) and level[-1] == 1.0 + peak

    def test_a_block_of_one_is_the_signal_of_sample(self):
        for name, (family, grid, seed, _) in BLOCKS.items():
            level, column, length = sample_family(family, [substream(seed, 0)], grid)
            signal = family.sample(substream(seed, 0), grid)
            assert signal.values.tobytes() == np.repeat(level.take(column), length).tobytes(), name
            assert np.array_equal(signal._runs[1], column) and np.array_equal(signal._runs[2], length)

    def test_a_non_finite_height_keeps_its_message(self):
        family = SignalFamily("regular", pulse=PulseTrainSpec(period=0.02, duration=0.01, area=1e307))
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            sample_family(family, [0], GRID)

    def test_a_shot_overflow_names_the_first_row_that_overflows(self):
        """Heights of 1e307: 18 arrivals in a cell pass the float range.  In
        fig3-like trajectories 0 .. 7 of seed 0, trajectory 6 is the first
        whose fullest cell does, with 20, and trajectory 7 does too."""
        family = SignalFamily("shot", shot=ShotNoiseSpec(strength=1e305, rate=900.0))
        grid = TimeGrid(t_max=1.0, n_steps=100)
        seeds = [substream(0, k) for k in range(8)]
        with pytest.raises(NumericOverflowError) as failure:
            sample_family(family, seeds, grid)
        assert failure.value.row == 6
        assert str(failure.value) == ("20 shot arrivals in one cell of dt = 0.01 at "
                                      "signal.strength = 1e+305 give a height beyond the float range")
        sample_family(family, seeds[:6], grid)


