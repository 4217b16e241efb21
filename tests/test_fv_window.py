"""The finite-volume hot path works on the occupied window only.

The velocity field is held on the padded window only; ``step``, the peak
finders and the run diagnostics touch the window only, and ``step`` hands
its successor the window it finds on the slice it wrote.  These tests
check the windowed velocity against the O(N^2) direct sum over the whole
grid, and the windowed step, the peak finders and a whole run bit for bit
against the full-grid versions written out below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from aggrekin import fv
from aggrekin.expconv import exp_velocity_scan
from aggrekin.fv import (
    FluxField,
    GridState,
    Peak,
    _ContactTracker,
    _quantized_outflows,
    cfl_dt,
    extract_peaks,
    make_flux,
    run,
    species_peaks,
    step,
)
from aggrekin.kernel import exponential_kernel, regularize
from aggrekin.lattice import mass_quantum, snap
from aggrekin.measures import ModelParams
from aggrekin.scenarios import initial_grid_state, preset
from oracle import direct_velocity

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


def weights(state, p=PARAMS):
    return p.theta1 * state.rho1 + p.theta2 * state.rho2


def direct_on_grid(state, p=PARAMS, kernel=KERNEL):
    """The O(N^2) direct velocity sum on every cell of the grid."""
    return direct_velocity(state.centers, weights(state, p), kernel)


def window_of(rho1, rho2):
    """The occupied window recomputed from the cell arrays."""
    occupied = np.flatnonzero((rho1 > 0) | (rho2 > 0))
    if occupied.size == 0:
        return 0, 0
    return int(occupied[0]), int(occupied[-1]) + 1


# the update and the peak finders as they ran on the whole grid


def on_grid(state, flux):
    """The field's velocity on every cell, 0 outside its span: those cells
    are empty, so no velocity there moves any mass."""
    a_hat = np.zeros(state.n_cells)
    a_hat[slice(*flux.span)] = flux.velocity
    return a_hat


def full_grid_step(state, flux, dt):
    c = dt / state.dx
    new = []
    for chi, rho, q in ((flux.chi1, state.rho1, state.q1), (flux.chi2, state.rho2, state.q2)):
        t = (c * chi) * on_grid(state, flux) * rho
        out_r = np.maximum(t, 0.0)
        out_l = np.maximum(-t, 0.0)
        # each outflow rounded up to whole quanta
        if q > 0.0:
            out_r = np.ceil(out_r / q) * q
            out_l = np.ceil(out_l / q) * q
        out_r[-1] = 0.0
        out_l[0] = 0.0
        out_l = np.minimum(out_l, rho)
        out_r = np.minimum(out_r, rho - out_l)
        nxt = rho - out_r - out_l
        nxt[1:] += out_r[:-1]
        nxt[:-1] += out_l[1:]
        new.append(nxt)
    return new


def _runs(values, floor):
    """[s, e) of each maximal run of ``values`` above ``floor``."""
    active = values > floor
    edges = (np.flatnonzero(active[1:] != active[:-1]) + 1).tolist()
    if active[0]:
        edges.insert(0, 0)
    if active[-1]:
        edges.append(active.size)
    return list(zip(edges[::2], edges[1::2]))


def full_grid_species_peaks(state, mass_threshold=0.01, cell_floor_frac=1e-6):
    """Each species' [centroid, mass] peak pairs, found on the whole grid."""
    x = state.centers
    both = []
    for rho in (state.rho1, state.rho2):
        total = float(np.sum(rho))
        peaks = []
        if total > 0.0:
            for s, e in _runs(rho, cell_floor_frac * total):
                run_mass = float(np.sum(rho[s:e]))
                if run_mass > mass_threshold * total:
                    peaks.append([float(np.sum(x[s:e] * rho[s:e]) / run_mass), run_mass])
        both.append(peaks)
    return tuple(both)


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
        flux = make_flux(st, KERNEL, PARAMS)
        slow = direct_on_grid(st)
        scale = np.max(np.abs(slow))
        a, b = padded(st)
        assert np.max(np.abs(flux.velocity - slow[a:b])) <= 1e-12 * scale
        # the largest speed on the whole grid sits on the scanned cells
        assert a <= np.argmax(np.abs(slow)) < b
        assert abs(flux.amax - scale) <= 1e-12 * scale

    def test_fine_grid_with_long_tails(self):
        # the benchmark's spacing: the empty cells span thousands of cells
        n, dx = 4000, 5e-4
        st = state_on(n, 1700, 2300, np.random.default_rng(3), dx=dx, holes=0.2)
        flux = make_flux(st, KERNEL, PARAMS)
        slow = direct_on_grid(st)
        assert flux.span == (1699, 2301)
        assert np.max(np.abs(flux.velocity - slow[1699:2301])) <= 1e-12 * np.max(np.abs(slow))
        assert np.max(np.abs(slow[:1699])) < flux.amax and np.max(np.abs(slow[2301:])) < flux.amax

    def test_empty_state_gives_zero_velocity(self):
        st = GridState(-1.0, 2.0 / 600, np.zeros(600), np.zeros(600))
        flux = make_flux(st, KERNEL, PARAMS)
        assert flux.span == (0, 1)
        assert np.all(flux.velocity == 0.0) and flux.amax == 0.0

    def test_run_reports_the_full_grid_maximum_speed(self):
        # max_velocity is max|a_hat| over the padded window: the grid's
        # maximum for E, and at most that under K_n, whose largest pull can
        # sit within 1/n outside the occupied cells
        st = state_on(N, 600, 680, np.random.default_rng(11))
        for kernel in (KERNEL, regularize(KERNEL, 50)):
            res = run(st, kernel, PARAMS, T=0.02, track_peaks=False)
            state = res.final
            assert res.diagnostics["max_velocity"][-1] == make_flux(state, kernel, PARAMS).amax
            scale = np.max(np.abs(direct_on_grid(state, kernel=kernel)))
            if kernel.inv_n:
                assert res.diagnostics["max_velocity"][-1] <= scale * (1 + 1e-12)
            else:
                assert abs(res.diagnostics["max_velocity"][-1] - scale) <= 1e-12 * scale
            assert res.diagnostics["min_cell"][-1] == 0.0


class TestWindowFlux:
    """``make_flux`` holds the velocity of its state's padded window and
    that window's max|a_hat|: scanned for the exponential kernel, summed
    directly on the window for any other."""

    @pytest.mark.parametrize("lo, hi", SUPPORTS + [(0, 0)])
    def test_lazy_velocity_is_the_scanned_velocity_bit_for_bit(self, lo, hi):
        st = state_on(N, lo, hi, np.random.default_rng(3 * lo + hi), holes=0.3)
        flux = make_flux(st, KERNEL, PARAMS)
        a, b = padded(st)
        ref = exp_velocity_scan(weights(st)[a:b], st.dx)
        assert flux.span == (a, b)
        assert (flux.chi1, flux.chi2) == (PARAMS.chi1, PARAMS.chi2)
        assert flux.velocity.tobytes() == ref.tobytes()
        assert flux.amax == np.abs(ref).max()

    def test_small_exponential_grid_is_scanned(self):
        # 120 cells: the exponential kernel is scanned at every grid size
        rng = np.random.default_rng(5)
        for st in random_states(rng, count=12):
            flux = make_flux(st, KERNEL, PARAMS)
            a, b = padded(st)
            assert flux.velocity.tobytes() == exp_velocity_scan(weights(st)[a:b], st.dx).tobytes()

    def test_direct_path_holds_the_direct_sum(self):
        # the regularized kernel's field on the padded window: the scan plus
        # its near-field stencil, within 1e-12 of the direct sum
        rng = np.random.default_rng(6)
        p = ModelParams(chi1=4.0, chi2=0.7)
        kernel = regularize(KERNEL, 50)
        for st in random_states(rng, count=12):
            flux = make_flux(st, kernel, p)
            a, b = padded(st)
            direct = direct_velocity(st.centers[a:b], weights(st, p)[a:b], kernel)
            assert flux.span == (a, b)
            assert np.max(np.abs(flux.velocity - direct)) <= 1e-12 * np.max(np.abs(direct))
            assert flux.amax == np.abs(flux.velocity).max()
            whole = direct_on_grid(st, p, kernel)
            assert np.max(np.abs(flux.velocity - whole[a:b])) <= 1e-12 * np.max(np.abs(whole))
            dt = cfl_dt(st.dx, kernel, p, 0.9, st.total_masses())
            ref1, ref2 = full_grid_step(st, flux, dt)
            nxt = step(st, flux, dt)
            assert np.array_equal(nxt.rho1, ref1) and np.array_equal(nxt.rho2, ref2)
            # the CFL check reads the held max|a_hat|
            with pytest.raises(ValueError, match="CFL"):
                step(st, flux, st.dx / (4.0 * flux.amax))

    def test_step_refuses_a_field_of_another_window(self):
        rng = np.random.default_rng(9)
        st = state_on(N, 600, 680, rng)
        other = make_flux(state_on(N, 590, 680, rng), KERNEL, PARAMS)
        with pytest.raises(ValueError, match=r"\(589, 681\).*\(599, 681\)"):
            step(st, other, 1e-6)
        v = rng.normal(size=N)
        whole = FluxField(4.0, 0.7, (0, N), v)
        with pytest.raises(ValueError, match=r"\(0, 1500\).*\(599, 681\)"):
            step(st, whole, 1e-6)


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


def scaled_to(st, total):
    """``st`` with each nonempty species scaled to the total ``total``."""
    r1, r2 = ((r * (total / r.sum()) if r.sum() > 0 else r) for r in (st.rho1, st.rho2))
    return GridState(st.xmin, st.dx, r1, r2, time=st.time)


class TestWindowedStepBitIdentical:
    def test_step_matches_full_grid_update(self):
        # each state as drawn, and scaled to totals whose quanta are
        # subnormal (no finite reciprocal) and near 1e300; compared byte for
        # byte, so a -0.0 cell where the reference holds 0.0 fails
        rng = np.random.default_rng(2024)
        p = ModelParams(chi1=4.0, chi2=0.7)
        for drawn in random_states(rng):
            for st in (drawn, scaled_to(drawn, 1e-300), scaled_to(drawn, 1e300)):
                dt = cfl_dt(st.dx, KERNEL, p, 0.9, st.total_masses())
                for _ in range(5):
                    flux = make_flux(st, KERNEL, p)
                    ref1, ref2 = full_grid_step(st, flux, dt)
                    st = step(st, flux, dt)
                    assert st.rho1.tobytes() == ref1.tobytes()
                    assert st.rho2.tobytes() == ref2.tobytes()

    def test_peaks_match_full_grid_peak_finders(self):
        rng = np.random.default_rng(77)
        for st in random_states(rng, count=60):
            assert species_peaks(st) == full_grid_species_peaks(st)
            assert extract_peaks(st) == full_grid_extract_peaks(st)


def steps_hand_over_their_window(st, rng):
    # the attracting velocity points inwards at the window's edges, so it
    # never moves them; a random field also spreads mass outwards
    for _ in range(3):
        a, b = padded(st)
        v = rng.normal(size=b - a)
        flux = FluxField(4.0, 0.7, (a, b), v)
        dt = 0.9 * st.dx / (4.0 * flux.amax)
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
        # outflows fall back to dividing; the others multiply by 1/q.  Both
        # species go through at once, the second on a quantum 2^10 larger
        rng = np.random.default_rng(8)
        n = 500
        q = (mass_quantum(total), mass_quantum(total) * 1024)
        assert math.isinf(1.0 / q[0]) == (total == 1e-300)
        rho = np.array([snap(rng.uniform(size=n) * (total / n), qa) for qa in q])
        a_hat = rng.normal(size=n)
        c = 0.9 / np.max(np.abs(a_hat))
        speeds = (c, 0.37 * c)
        out_r, out_l = _quantized_outflows(rho, a_hat, speeds, q)
        for k, qa in enumerate(q):
            t = speeds[k] * a_hat * rho[k]
            ref_r = np.ceil(np.maximum(t, 0.0) / qa) * qa
            ref_l = np.ceil(np.maximum(-t, 0.0) / qa) * qa
            ref_r[-1] = 0.0
            ref_l[0] = 0.0
            assert np.count_nonzero(out_r[k]) > n // 3 and np.count_nonzero(out_l[k]) > n // 3
            assert np.array_equal(out_r[k], ref_r)
            assert np.array_equal(out_l[k], ref_l)

    # quanta: an empty species, a subnormal one whose reciprocal overflows,
    # 1.0, and a power of two near 1e300
    QUANTA = (0.0, 2.0**-1060, 1.0, 2.0**996)

    @settings(max_examples=300, deadline=None)
    @given(
        w=hs.integers(2, 60),
        q=hs.tuples(hs.sampled_from(QUANTA), hs.sampled_from(QUANTA)),
        chi=hs.tuples(hs.floats(0.01, 10.0), hs.floats(0.01, 10.0)),
        safety=hs.floats(0.05, 0.99),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_each_outflow_is_the_transfer_rounded_up_to_whole_quanta(self, w, q, chi, safety, seed):
        # cells of 0 to 2^20 quanta, few-quanta cells and empty cells
        # included, under a velocity with zeros and both signs at a CFL
        # number of ``safety``
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 2 ** rng.integers(1, 21), size=(2, w)) * (rng.uniform(size=(2, w)) > 0.2)
        rho = counts * np.array([[q[0]], [q[1]]])
        a_hat = rng.normal(size=w) * (rng.uniform(size=w) > 0.1)
        amax = float(np.abs(a_hat).max())
        c = safety / (max(chi) * amax) if amax else 1.0
        speeds = (c * chi[0], c * chi[1])
        out_r, out_l = _quantized_outflows(rho, a_hat, speeds, q)
        assert not np.any((out_r != 0.0) & (out_l != 0.0))
        assert np.all(out_r[:, -1] == 0.0) and np.all(out_l[:, 0] == 0.0)
        for k, qa in enumerate(q):
            t = speeds[k] * a_hat * rho[k]
            for out, sent, face in ((out_r[k], np.maximum(t, 0.0), -1), (out_l[k], np.maximum(-t, 0.0), 0)):
                sent[face] = 0.0
                assert np.all(out >= 0.0) and np.all(out <= rho[k])
                if qa == 0.0:
                    assert np.all(out == 0.0)
                    continue
                # a multiple of q, at least the transfer unless capped at
                # rho, and less than one quantum above it
                assert np.array_equal(np.floor(out / qa), out / qa)
                assert np.all((out >= sent) | (out == rho[k]))
                assert np.all((out == 0.0) | (out - qa < sent))
        # the update conserves each species to 0 ulp and keeps cells nonnegative
        nxt = rho - out_r - out_l
        nxt[:, 1:] += out_r[:, :-1]
        nxt[:, :-1] += out_l[:, 1:]
        assert np.all(nxt >= 0.0)
        assert np.array_equal(nxt.sum(axis=1), rho.sum(axis=1))


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
            st = GridState(st.xmin, st.dx, rho1, rho2, time=st.time + dt)
        tracker.update(st.time, *full_grid_species_peaks(st))
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
        diag["max_velocity"].append(float(np.max(np.abs(on_grid(st, flux)))))
        diag["min_cell"].append(float(min(np.min(st.rho1), np.min(st.rho2))))
    return diag, tracker.events, st, n_steps


class TestRunMatchesFullGridRun:
    def test_example1_through_its_first_contact(self):
        # 3200 cells; example 1's first contact comes at t ~ 0.95, near the
        # end of the run's ~890 steps
        s = preset("example1", solver="fv", dx=1.25e-3)
        initial = initial_grid_state(s)
        res = run(initial, KERNEL, s.params, T=1.0)
        diag, events, final, n_steps = full_grid_run(initial, s.params, 1.0)
        assert res.n_steps == n_steps >= 300
        assert [e.kind for e in res.events] == ["contact"]
        assert res.events == events
        # the run without peak tracking writes the same diagnostics and no event
        untracked = run(initial, KERNEL, s.params, T=1.0, track_peaks=False)
        assert untracked.events == []
        for key in DIAGNOSTICS:
            assert res.diagnostics[key].tobytes() == np.asarray(diag[key]).tobytes(), key
            assert untracked.diagnostics[key].tobytes() == np.asarray(diag[key]).tobytes(), key
        for got in (res.final, untracked.final):
            assert got.time == final.time
            assert got.rho1.tobytes() == final.rho1.tobytes()
            assert got.rho2.tobytes() == final.rho2.tobytes()


class TestOnePeakPassPerState:
    def test_run_finds_each_states_peaks_in_one_call_and_keeps_none(self, monkeypatch):
        # species_peaks wrapped through the module global that run looks up,
        # as the benchmark's tracer wraps it
        calls = []

        def counted(*args):
            calls.append((args[0], species_peaks(*args)))
            return calls[-1][1]

        monkeypatch.setattr(fv, "species_peaks", counted)
        s = preset("example1", solver="fv", dx=1.25e-3)
        res = run(initial_grid_state(s), KERNEL, s.params, T=1.0)
        assert len(calls) == res.n_steps + 1
        assert not any("peaks" in key for state, _ in calls for key in vars(state))
        # an event carries the pairs of the state that fired it, as lists
        assert [e.kind for e in res.events] == ["contact"]
        fired = {state.time: peaks for state, peaks in calls}
        for ev in res.events:
            assert (ev.peaks1, ev.peaks2) == fired[ev.time]
            assert all(type(pair) is list for pair in ev.peaks1 + ev.peaks2)


class TestWindowFollowsTheMass:
    def test_example1_window_shrinks_by_its_first_contact(self):
        # rounded up, every outflow of a moving cell is at least one quantum,
        # so the tails of the aggregates empty: on the preset grid (8,000
        # cells) the window starts at 2,318 cells and is 838 at t = 1.0
        s = preset("example1", solver="fv")
        initial = initial_grid_state(s)
        res = run(initial, KERNEL, s.params, T=1.0, snapshot_times=(0.0, 0.5, 1.0), track_peaks=False)
        widths = [st.window[1] - st.window[0] for _, st in res.snapshots]
        assert widths[0] > 2000
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] <= 900
        assert res.final.total_masses() == initial.total_masses()


class TestRegularizedRun:
    """A run on the regularized kernel, whose field is the direct sum on
    the padded window."""

    def test_conserves_each_species_and_holds_the_whole_grid_field(self, monkeypatch):
        kernel = regularize(KERNEL, 50)
        # 300 cells of 0.01: the kernel's linear part spans two cells each way
        st = state_on(300, 120, 180, np.random.default_rng(13), dx=0.01, holes=0.2)
        fluxes = []

        def held(state, kernel, p):
            flux = make_flux(state, kernel, p)
            fluxes.append((state, flux))
            return flux

        monkeypatch.setattr(fv, "make_flux", held)
        dt = cfl_dt(st.dx, kernel, PARAMS, 0.9, st.total_masses())
        res = run(st, kernel, PARAMS, T=60 * dt, snapshot_times=(0.0, 30 * dt, 60 * dt))
        assert res.n_steps == 60 and len(fluxes) == 61
        assert not np.array_equal(res.final.rho1, st.rho1)
        assert res.final.total_masses() == st.total_masses()
        assert np.all(res.diagnostics["mass1"] == st.total_masses()[0])
        assert np.all(res.diagnostics["mass2"] == st.total_masses()[1])
        for _, snap in res.snapshots:
            assert min(snap.rho1.min(), snap.rho2.min()) >= 0.0
        for state, flux in fluxes:
            a, b = padded(state)
            whole = direct_on_grid(state, PARAMS, kernel)
            assert flux.span == (a, b)
            assert np.max(np.abs(flux.velocity - whole[a:b])) <= 1e-12 * np.max(np.abs(whole))
