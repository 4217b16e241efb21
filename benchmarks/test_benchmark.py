"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import math

import pytest

import run

run.load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from aggrekin import fv  # noqa: E402
from aggrekin.fv import mass_quantum  # noqa: E402
from tracing import Span, Tracer, installed, self_time_by_name, self_times  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
        Span("a", 9.5, 10.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 3.0, 3.0, 1.0, 0.5])
    by_name = self_time_by_name(spans)
    assert by_name == pytest.approx({"root": 2.5, "a": 3.5, "b": 3.0, "c": 1.0})
    assert sum(by_name.values()) == pytest.approx(10.0)


def test_self_times_clip_children_to_the_parent_and_merge_overlaps():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 8.0, 0),  # overlaps x: only 6..8 is new
        Span("z", 9.0, 12.0, 0),  # runs past the parent: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda v: v + 1, observe=lambda counts, args, result: counts.__setitem__("seen", result))
    outer = tracer.wrap("outer", lambda v: inner(v) * 2)
    assert outer(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert tracer.counts["seen"] == 2
    assert all(s.end >= s.start for s in tracer.spans)


def test_installed_rebinds_and_restores():
    original = fv.make_flux
    tracer = Tracer()
    with installed(tracer, {}):
        assert fv.make_flux is not original
        assert fv.make_flux.__wrapped__ is original
    assert fv.make_flux is original
    assert {name for _, _, name in tracing.TRACE_POINTS} >= {"expconv.scan", "fv.step", "particles.advance"}


def test_scaled_times_are_reference_host_seconds():
    # a host running the probe at half the reference speed doubles raw times
    probes = [2 * run.HOST_PROBE_REF_S, 3 * run.HOST_PROBE_REF_S, 1 * run.HOST_PROBE_REF_S]
    assert run.scaled(4.0, probes) == pytest.approx(2.0)
    assert run.scaled(4.0, [run.HOST_PROBE_REF_S]) == pytest.approx(4.0)


def test_conservation_check_catches_one_quantum_of_drift():
    total = 0.15039769647785983
    clean = {"mass1_drift": 0.0, "mass2_drift": 0.0, "min_cell": 0.0}
    assert workloads.check_conservation(clean) == []
    drifted = dict(clean, mass2_drift=mass_quantum(total))
    assert workloads.check_conservation(drifted)
    negative = dict(clean, min_cell=-mass_quantum(total))
    assert workloads.check_conservation(negative)


def test_first_contact_check_catches_a_perturbed_event_time():
    events = [{"kind": "contact", "time": 0.9559654394119301, "position": -0.17529979658718953}]
    assert workloads.check_first_contact(events) == []
    late = [dict(events[0], time=events[0]["time"] + 0.06)]
    assert workloads.check_first_contact(late)
    separated = events + [{"kind": "separate", "time": 0.97, "position": -0.17}]
    assert workloads.check_first_contact(separated)


def test_event_error_pairs_events_by_class_and_order():
    reference = [("glue", 0.957), ("merge_same_species", 1.3), ("glue", 1.3), ("final_collapse", 1.3)]
    measured = [("contact", 0.956), ("separate", 0.99), ("merge_same_species", 1.31)]
    assert workloads.max_event_time_error(reference, measured) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        workloads.max_event_time_error(reference, [("separate", 1.0)])


def test_w2_check_requires_strict_decrease():
    assert workloads.check_w2_decreasing([(0.5, 0.3, 0.3), (0.1, 0.2, 0.2), (0.02, 0.1, 0.1)]) == []
    assert workloads.check_w2_decreasing([(0.5, 0.3, 0.3), (0.1, 0.2, 0.2), (0.02, 0.2, 0.1)])
    assert workloads.check_w2_decreasing([(0.5, 0.3, math.nan), (0.1, 0.2, 0.2)])


def test_jitter_keeps_seed_zero_exact_and_changes_other_seeds():
    bumps = [[4.0, -0.5], [2.0, 0.5]]
    assert workloads.jitter_bumps(bumps, workloads.seed_rng(0)) == bumps
    a = workloads.jitter_bumps(bumps, workloads.seed_rng(7))
    assert a == workloads.jitter_bumps(bumps, workloads.seed_rng(7))
    assert a != bumps
    for (amp, c), (amp0, c0) in zip(a, bumps):
        assert abs(amp / amp0 - 1) <= workloads.AMPLITUDE_JITTER
        assert abs(c - c0) <= workloads.CENTRE_JITTER


def test_particle_pass_passes_its_checks_and_catches_perturbations(tmp_path):
    wl = workloads.ParticlePresets()
    inputs = wl.build(5, tmp_path)
    reports = wl.run_pass(inputs)
    assert wl.check(inputs, reports, tmp_path) == []
    assert 0.0 < wl.event_err(inputs, reports, tmp_path) < 1e-6

    example2 = reports[1]
    assert example2.events[0]["kind"] == "cross"
    example2.events[0]["time"] += 0.01
    assert wl.check(inputs, reports, tmp_path)
    example2.events[0]["time"] -= 0.01

    m1 = example2.conservation["mass1_final"]
    example2.conservation["mass1_drift"] = mass_quantum(m1)
    assert wl.check(inputs, reports, tmp_path)
