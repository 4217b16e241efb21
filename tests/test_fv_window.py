"""The finite-volume hot path works on the occupied window only.

The velocity is scanned on the window and filled in geometrically outside
it; ``step``, the peak finders and the run diagnostics touch the window
only.  These tests check the windowed velocity against the O(N^2) direct
sum over the whole grid, and the windowed step and peak finders bit for
bit against the full-grid versions written out below.
"""

import numpy as np
import pytest

from aggrekin.fv import (
    GridState,
    Peak,
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
from aggrekin.measures import ModelParams

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
