"""The finite-volume hot path works on the occupied window only.

The velocity is scanned on the window and filled in geometrically outside
it; ``step``, the peak finders and the run diagnostics touch the window
only, and ``step`` hands its successor the window it finds on the slice it
wrote.  These tests check the windowed velocity against the O(N^2) direct
sum over the whole grid, and the windowed step, the peak finders and a
whole run bit for bit against the full-grid versions written out below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin.fv import (
    FluxField,
    GridState,
    Peak,
    _ContactTracker,
    _quantized_outflows,
    _runs,
    assemble_velocity,
    cfl_dt,
    extract_peaks,
    make_flux,
    run,
    species_peaks,
    step,
)
from aggrekin.kernel import exponential_kernel
from aggrekin.lattice import mass_quantum, snap
from aggrekin.measures import ModelParams
from aggrekin.scenarios import initial_grid_state, preset

KERNEL = exponential_kernel()
PARAMS = ModelParams(chi1=3.0, chi2=0.5, theta1=1.0, theta2=2.0)


def state_on(n, lo, hi, rng, dx=5e-3, species=(1, 2), holes=0.0):
    """Random masses on cells [lo, hi) of an n-cell grid; ``holes`` is the
    share of cells inside the support left empty (never cells lo, hi-1)."""
    rho = []
    for sp in (1, 2):
        r = np.zeros(n)
        if sp in species and hi > lo:
            r[lo:hi] = rng.uniform(0.0, 1.0, hi - lo) * (rng.uniform(size=hi - lo) >= holes)
            r[lo] = r[hi - 1] = rng.uniform(0.5, 1.0)
        rho.append(r)
    return GridState(-0.5 * n * dx, dx, rho[0], rho[1])


def padded(state):
    lo, hi = state.window
    return max(lo - 1, 0), min(hi + 1, state.n_cells)


def window_of(rho1, rho2):
    """The occupied window recomputed from the cell arrays."""
    occupied = np.flatnonzero((rho1 > 0) | (rho2 > 0))
    if occupied.size == 0:
        return 0, 0
    return int(occupied[0]), int(occupied[-1]) + 1


# the update and the peak finders as they ran on the whole grid


def full_grid_step(state, flux, dt):
    c = dt / state.dx
    new = []
    for chi, rho, q in ((flux.chi1, state.rho1, state.q1), (flux.chi2, state.rho2, state.q2)):
        v = chi * flux.a_hat
        out_r = c * np.maximum(v, 0.0) * rho
        out_l = c * np.maximum(-v, 0.0) * rho
        if q > 0.0:
            out_r = np.floor(out_r / q) * q
            out_l = np.floor(out_l / q) * q
        out_r[-1] = 0.0
        out_l[0] = 0.0
        out_l = np.minimum(out_l, rho)
        out_r = np.minimum(out_r, rho - out_l)
        nxt = rho - out_r - out_l
        nxt[1:] += out_r[:-1]
        nxt[:-1] += out_l[1:]
        new.append(nxt)
    return new


def full_grid_species_peaks(state, species, mass_threshold=0.01, cell_floor_frac=1e-6):
    rho = state.rho1 if species == 1 else state.rho2
    total = float(np.sum(rho))
    if total <= 0.0:
        return []
    x = state.centers
    peaks = []
    for s, e in _runs(rho, cell_floor_frac * total):
        run_mass = float(np.sum(rho[s:e]))
        if run_mass > mass_threshold * total:
            centroid = float(np.sum(x[s:e] * rho[s:e]) / run_mass)
            m1 = run_mass if species == 1 else 0.0
            m2 = run_mass if species == 2 else 0.0
            peaks.append(Peak(centroid, m1, m2))
    return peaks


def full_grid_extract_peaks(state, mass_threshold=0.01, cell_floor_frac=1e-9):
    comb = state.rho1 + state.rho2
    total = float(np.sum(comb))
    if total <= 0.0:
        return []
    x = state.centers
    peaks = []
    for s, e in _runs(comb, cell_floor_frac * total):
        run_mass = float(np.sum(comb[s:e]))
        if run_mass > mass_threshold * total:
            centroid = float(np.sum(x[s:e] * comb[s:e]) / run_mass)
            peaks.append(
                Peak(centroid, float(np.sum(state.rho1[s:e])), float(np.sum(state.rho2[s:e])))
            )
    return peaks


# supports (lo, hi) on a 1500-cell grid: narrow and inside, touching cell 0,
# touching cell n-1, the whole grid, and single cells at both ends and inside
N = 1500
SUPPORTS = [(600, 680), (0, 40), (1430, N), (0, N), (0, 1), (N - 1, N), (750, 751), (3, 1497)]


class TestWindow:
    @pytest.mark.parametrize("lo, hi", SUPPORTS)
    def test_window_is_first_and_one_past_last_occupied_cell(self, lo, hi):
        st = state_on(N, lo, hi, np.random.default_rng(lo + hi), holes=0.5)
        assert st.window == (lo, hi)

    def test_one_species_and_empty(self):
        rng = np.random.default_rng(1)
        assert state_on(N, 200, 300, rng, species=(2,)).window == (200, 300)
        assert GridState(0.0, 0.1, np.zeros(5), np.zeros(5)).window == (0, 0)


class TestWindowVelocity:
    @pytest.mark.parametrize("lo, hi", SUPPORTS)
    @pytest.mark.parametrize("species", [(1, 2), (1,), (2,)])
    def test_scan_matches_direct_on_the_whole_grid(self, lo, hi, species):
        st = state_on(N, lo, hi, np.random.default_rng(7 * lo + hi), species=species, holes=0.3)
        fast = assemble_velocity(st, KERNEL, PARAMS, method="scan")
        slow = assemble_velocity(st, KERNEL, PARAMS, method="direct")
        scale = np.max(np.abs(slow))
        assert np.max(np.abs(fast - slow)) <= 1e-12 * scale
        # the tails outside the scanned cells, cell by cell
        a, b = padded(st)
        for tail in (slice(0, a), slice(b, N)):
            assert np.all(np.abs(fast[tail] - slow[tail]) <= 1e-12 * np.abs(slow[tail]))
        # the largest speed sits on the scanned cells
        assert np.max(np.abs(fast[a:b])) == np.max(np.abs(fast))
        assert abs(np.max(np.abs(fast)) - scale) <= 1e-12 * scale

    def test_fine_grid_with_long_tails(self):
        # the benchmark's spacing: the tails span thousands of cells
        n, dx = 4000, 5e-4
        st = state_on(n, 1700, 2300, np.random.default_rng(3), dx=dx, holes=0.2)
        fast = assemble_velocity(st, KERNEL, PARAMS, method="scan")
        slow = assemble_velocity(st, KERNEL, PARAMS, method="direct")
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))
        assert np.all(np.abs(fast[:1699] - slow[:1699]) <= 1e-12 * np.abs(slow[:1699]))
        assert np.all(np.abs(fast[2301:] - slow[2301:]) <= 1e-12 * np.abs(slow[2301:]))

    def test_empty_state_gives_zero_velocity(self):
        st = GridState(-1.0, 2.0 / 600, np.zeros(600), np.zeros(600))
        a_hat = assemble_velocity(st, KERNEL, PARAMS, method="scan")
        assert a_hat.shape == (600,)
        assert np.all(a_hat == 0.0)

    def test_run_reports_the_full_grid_maximum_speed(self):
        st = state_on(N, 600, 680, np.random.default_rng(11))
        res = run(st, KERNEL, PARAMS, T=0.02, track_peaks=False)
        state = res.final
        a_hat = make_flux(state, KERNEL, PARAMS).a_hat
        assert res.diagnostics["max_velocity"][-1] == np.max(np.abs(a_hat))
        assert res.diagnostics["min_cell"][-1] == 0.0


def random_states(rng, n=120, count=40):
    """Quantized states with supports anywhere, including both grid ends
    and single cells, some with holes, some with one species."""
    fixed = [(0, 10), (n - 10, n), (0, n), (0, 1), (n - 1, n), (n // 2, n // 2 + 1)]
    for i in range(count):
        if i < len(fixed):
            lo, hi = fixed[i]
        else:
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo + 1, n + 1))
        species = [(1, 2), (1,), (2,)][i % 3]
        yield state_on(n, lo, hi, rng, dx=4.0 / n, species=species, holes=float(rng.uniform(0, 0.7)))


class TestWindowedStepBitIdentical:
    def test_step_matches_full_grid_update(self):
        rng = np.random.default_rng(2024)
        p = ModelParams(chi1=4.0, chi2=0.7)
        for st in random_states(rng):
            dt = cfl_dt(st.dx, KERNEL, p, 0.9, st.total_masses())
            for _ in range(5):
                flux = make_flux(st, KERNEL, p)
                ref1, ref2 = full_grid_step(st, flux, dt)
                st = step(st, flux, dt)
                assert np.array_equal(st.rho1, ref1)
                assert np.array_equal(st.rho2, ref2)

    def test_peaks_match_full_grid_peak_finders(self):
        rng = np.random.default_rng(77)
        for st in random_states(rng, count=60):
            for species in (1, 2):
                assert species_peaks(st, species) == full_grid_species_peaks(st, species)
                assert species_peaks(st, species, 0.2, 0.3) == full_grid_species_peaks(st, species, 0.2, 0.3)
            assert extract_peaks(st) == full_grid_extract_peaks(st)


def steps_hand_over_their_window(st, rng):
    # the attracting velocity points inwards at the window's edges, so it
    # never moves them; a random field also spreads mass outwards
    for _ in range(3):
        flux = FluxField(rng.normal(size=st.n_cells), 4.0, 0.7)
        dt = 0.9 * st.dx / (4.0 * np.max(np.abs(flux.a_hat)))
        st = step(st, flux, dt)
        assert st.window == window_of(st.rho1, st.rho2)


class TestHandedOverWindow:
    @settings(max_examples=200, deadline=None)
    @given(
        n=hs.integers(1, 60),
        species=hs.sampled_from([(1, 2), (1,), (2,)]),
        seed=hs.integers(0, 2**32 - 1),
        data=hs.data(),
    )
    def test_step_hands_over_the_window_of_its_arrays(self, n, species, seed, data):
        # supports anywhere, mass in cell 0 or n-1 included, one species
        # empty in two of three draws
        lo = data.draw(hs.integers(0, n - 1), label="lo")
        hi = data.draw(hs.integers(lo + 1, n), label="hi")
        holes = data.draw(hs.floats(0.0, 0.7), label="holes")
        rng = np.random.default_rng(seed)
        st = state_on(n, lo, hi, rng, dx=4.0 / n, species=species, holes=holes)
        steps_hand_over_their_window(st, rng)

    def test_step_hands_over_the_window_on_edge_supports(self):
        # supports on cells [0, 10), [30, 40), all cells, cell 0 alone and
        # cell 39 alone, with one species empty in two of three states
        rng = np.random.default_rng(31)
        for st in random_states(rng, n=40, count=12):
            steps_hand_over_their_window(st, rng)

    def test_empty_state_hands_over_an_empty_window(self):
        st = GridState(-1.0, 0.1, np.zeros(20), np.zeros(20))
        flux = make_flux(st, KERNEL, PARAMS)
        assert step(st, flux, 0.01).window == (0, 0)


class TestQuantizedOutflows:
    @pytest.mark.parametrize("total", [1e-300, 1.0, 1e300])
    def test_multiplying_by_the_reciprocal_is_dividing(self, total):
        # 1e-300 has a subnormal quantum whose reciprocal overflows, so the
        # outflows fall back to dividing; the others multiply by 1/q
        rng = np.random.default_rng(8)
        n = 500
        q = mass_quantum(total)
        assert math.isinf(1.0 / q) == (total == 1e-300)
        rho = snap(rng.uniform(size=n) * (total / n), q)
        v = rng.normal(size=n)
        c = 0.9 / np.max(np.abs(v))
        out_r, out_l = _quantized_outflows(rho, v, c, q)
        ref_r = np.floor(c * np.maximum(v, 0.0) * rho / q) * q
        ref_l = np.floor(c * np.maximum(-v, 0.0) * rho / q) * q
        ref_r[-1] = 0.0
        ref_l[0] = 0.0
        assert np.count_nonzero(out_r) > n // 3 and np.count_nonzero(out_l) > n // 3
        assert np.array_equal(out_r, ref_r)
        assert np.array_equal(out_l, ref_l)


DIAGNOSTICS = ("t", "mass1", "mass2", "weighted_center", "max_velocity", "min_cell")


def full_grid_run(initial, p, T):
    """``run`` written out on the whole grid: the full-grid step and peak
    finders, every state rebuilt through the public constructor, its window
    recomputed from the arrays, and the diagnostics taken over all cells."""
    dt = cfl_dt(initial.dx, KERNEL, p, 0.9, initial.total_masses())
    n_steps = int(math.floor(T / dt + 1e-12))
    tracker = _ContactTracker(initial.dx)
    diag = {k: [] for k in DIAGNOSTICS}
    st = initial
    for k in range(n_steps + 1):
        if k:
            rho1, rho2 = full_grid_step(st, flux, dt)
            st = GridState(st.xmin, st.dx, rho1, rho2, st.time + dt, st.q1, st.q2)
        tracker.update(st.time, full_grid_species_peaks(st, 1), full_grid_species_peaks(st, 2))
        flux = make_flux(st, KERNEL, p)
        lo, hi = window_of(st.rho1, st.rho2)
        x = st.centers[lo:hi]
        diag["t"].append(st.time)
        diag["mass1"].append(float(np.sum(st.rho1)))
        diag["mass2"].append(float(np.sum(st.rho2)))
        diag["weighted_center"].append(
            (p.theta1 / p.chi1) * float(np.sum(x * st.rho1[lo:hi]))
            + (p.theta2 / p.chi2) * float(np.sum(x * st.rho2[lo:hi]))
        )
        diag["max_velocity"].append(float(np.max(np.abs(flux.a_hat))))
        diag["min_cell"].append(float(min(np.min(st.rho1), np.min(st.rho2))))
    return diag, tracker.events, st, n_steps


class TestRunMatchesFullGridRun:
    def test_example1_through_its_first_contact(self):
        # 3200 cells, so the velocity is scanned; example 1's first contact
        # comes at t ~ 0.95, near the end of the run's ~890 steps
        s = preset("example1", solver="fv", dx=1.25e-3)
        initial = initial_grid_state(s)
        res = run(initial, KERNEL, s.params, T=1.0)
        diag, events, final, n_steps = full_grid_run(initial, s.params, 1.0)
        assert res.n_steps == n_steps >= 300
        assert initial.n_cells > 512
        assert [e.kind for e in res.events] == ["contact"]
        assert res.events == events
        for key in DIAGNOSTICS:
            assert res.diagnostics[key].tobytes() == np.asarray(diag[key]).tobytes(), key
        assert res.final.time == final.time
        assert res.final.rho1.tobytes() == final.rho1.tobytes()
        assert res.final.rho2.tobytes() == final.rho2.tobytes()
