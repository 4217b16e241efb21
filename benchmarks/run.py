"""aggrekin benchmark: time to solution and result accuracy of the solvers.

Usage, from the repository root:

    python3 benchmarks/run.py --workload fv-contact --seed 1 --seconds 25 --trace 0

One single-threaded process drives the public API in a closed loop with
one client: each pass starts after the previous one has finished and
been checked.  ``--trace 0`` reports the end-to-end metrics with tracing
off; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See benchmarks/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 9
MIN_PASSES = 3  # timed passes per mode, so each median has a middle value
OCCUPANCY_STRIDE = 16  # make_flux calls between occupied-window samples
# The host probe's two halves: a pure-Python loop of this many iterations,
# and this many scan-like numpy rounds on this many cells.
PROBE_LOOP_ITERATIONS = 600_000
PROBE_ARRAY_ROUNDS = 400
PROBE_ARRAY_CELLS = 8000
# A fixed nominal probe time; a time t measured while the probe takes p is
# reported as t * HOST_PROBE_REF_S / p, in seconds of a host that runs the
# probe in exactly HOST_PROBE_REF_S.
HOST_PROBE_REF_S = 0.1


def load_package():
    """Import aggrekin from this checkout's ``src``, never from site-packages."""
    if not (SRC / "aggrekin" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: aggrekin sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import aggrekin

    if Path(aggrekin.__file__).resolve().parent != (SRC / "aggrekin").resolve():
        raise SystemExit(f"benchmark: imported aggrekin from {aggrekin.__file__}, not {SRC}")
    return aggrekin


def setup_probe(workload: str, seed: int, out: Path) -> None:
    """Child-process body: time ``import aggrekin`` plus building the inputs."""
    t0 = time.perf_counter()
    load_package()
    import workloads

    workloads.WORKLOADS[workload].build(seed, out)
    print(repr(time.perf_counter() - t0))


def host_probe() -> float:
    """Seconds a fixed piece of work takes that uses nothing of aggrekin:
    a pure-Python integer loop, then numpy rounds on arrays of a grid's
    size (exponential, two one-sided cumulative sums, clipping).

    The shared host's speed drifts by tens of percent over minutes, and
    the timed passes slow down with it.  Probes interleaved with the timed
    work measure that speed, so that times can be reported in seconds of a
    host of fixed speed (see ``scaled``).  The two halves mirror the
    solvers' mix of interpreter and small-array work; either alone tracked
    the passes less well.
    """
    import numpy as np

    base = np.linspace(0.0, 1.0, PROBE_ARRAY_CELLS)
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP_ITERATIONS):
        acc += i * i
    x = base
    for _ in range(PROBE_ARRAY_ROUNDS):
        e = np.exp(-x)
        x = base + 1e-3 * np.clip(np.cumsum(e) - np.cumsum(e[::-1])[::-1], 0.0, 1.0)
    return time.perf_counter() - t0


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while the host probe took ``mean(probes)`` on
    average, in seconds of the reference host."""
    return seconds * HOST_PROBE_REF_S / statistics.fmean(probes)


def measure_setup(workload: str, seed: int, out: Path) -> tuple[list[float], list[float]]:
    """``SETUP_REPEATS`` cold set-ups, each in a fresh interpreter, and the
    host probes taken before the first and after each."""
    times = []
    probes = [host_probe()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        probes.append(host_probe())
    return times, probes


def dir_digest(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def output_size(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


# --- observers: work counts taken at the span boundaries ------------------


def _observe_scan(counts, args, result):
    n = args[0].size
    # arrays of n float64 at the scan's interface: w, the two one-sided
    # sums, and one output (velocity) or two (potential and gradient)
    outputs = len(result) if isinstance(result, tuple) else 1
    counts["scan_cells"] += n
    counts["scan_bytes"] += 8 * n * (3 + outputs)


def _observe_flux(counts, args, result):
    counts["flux_calls"] += 1
    if int(counts["flux_calls"]) % OCCUPANCY_STRIDE == 1:
        import numpy as np

        state = args[0]
        occupied = np.flatnonzero(state.rho1 + state.rho2)
        if occupied.size:
            counts["occupied_sum"] += (occupied[-1] - occupied[0] + 1) / state.n_cells
            counts["occupied_samples"] += 1


def _observe_advance(counts, args, result):
    events = result[1]
    counts["advance_events"] += len(events)
    counts["advances_at_event"] += bool(events)


OBSERVERS = {"expconv.scan": _observe_scan, "fv.flux": _observe_flux, "particles.advance": _observe_advance}


def layer_metrics(spans, counts, out: Path) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    st = tracing.self_time_by_name(spans)
    calls = tracing.calls_by_name(spans)

    def s(name):
        return st.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def us(name):
        return 1e6 * s(name) / n(name) if n(name) else 0.0

    scans = n("expconv.scan")
    bytes_written, files_written = output_size(out)
    return {
        "expconv.scan_calls": scans,
        "expconv.scan_s": s("expconv.scan"),
        "expconv.scan_us": us("expconv.scan"),
        "expconv.cells_per_call": counts["scan_cells"] / scans if scans else 0.0,
        "expconv.bytes_computed": counts["scan_bytes"],
        "fv.steps": n("fv.step"),
        "fv.step_s": s("fv.step"),
        "fv.step_us": us("fv.step"),
        "fv.flux_s": s("fv.flux"),
        "fv.peaks_calls": n("fv.peaks"),
        "fv.peaks_s": s("fv.peaks"),
        "fv.run_self_s": s("fv.run"),
        "fv.occupied_frac": (
            counts["occupied_sum"] / counts["occupied_samples"] if counts["occupied_samples"] else 0.0
        ),
        "particles.advance_calls": n("particles.advance"),
        "particles.advance_s": s("particles.advance"),
        "particles.advance_us": us("particles.advance"),
        "particles.events": counts["advance_events"],
        "particles.event_ratio": (
            counts["advances_at_event"] / n("particles.advance") if n("particles.advance") else 0.0
        ),
        "kinetic.steps": n("kinetic.step"),
        "kinetic.step_s": s("kinetic.step"),
        "kinetic.step_us": us("kinetic.step"),
        "kinetic.field_s": s("kinetic.field"),
        "kinetic.run_self_s": s("kinetic.limit_experiment") + s("kinetic.write_limit_csv"),
        "measures.w2_calls": n("measures.w2"),
        "measures.w2_s": s("measures.w2"),
        "scenarios.write_s": s("scenarios.run_scenario"),
        "scenarios.bytes_written": bytes_written,
        "scenarios.files_written": files_written,
        "trace.spans": len(spans),
        "trace.layer_sum_s": sum(st.values()) - s("pass"),
        "trace.unattributed_s": s("pass"),
    }


# --- the closed loop ----------------------------------------------------


@dataclass
class PassRecord:
    traced: bool
    wall_s: float
    failures: list[str]
    warmup: bool = False
    layers: dict = field(default_factory=dict)


def run_passes(wl, inputs, out: Path, seconds: float, modes: tuple[bool, ...], tracer):
    """One untraced warm-up pass, checked but not timed; then alternate
    ``modes`` (False untraced, True traced) until the next pass would end
    past the deadline and each mode has ``MIN_PASSES`` timed passes.  A
    host probe follows every pass.

    Returns the pass records, the host probes and the result of the first
    passing pass.
    """
    deadline = time.perf_counter() + seconds
    records: list[PassRecord] = []
    probes: list[float] = []
    loop_times: list[float] = []
    first_digest = None
    first_ok = None
    while True:
        warmup = not records
        traced = False if warmup else modes[(len(records) - 1) % len(modes)]
        loop_start = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        tracer.clear()
        wall = float("nan")
        result = None
        try:
            if traced:
                with tracing.installed(tracer, OBSERVERS):
                    t0 = time.perf_counter()
                    with tracer.span("pass"):
                        result = wl.run_pass(inputs)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                result = wl.run_pass(inputs)
                wall = time.perf_counter() - t0
            failures = wl.check(inputs, result, out)
            digest = dir_digest(out)
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                failures.append("a rerun at the same seed wrote different files or bytes")
        except Exception as exc:  # a failing pass is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            failures = [f"raised {exc!r}"]
        record = PassRecord(traced, wall, failures, warmup)
        if traced and not failures:
            record.layers = layer_metrics(tracer.spans, tracer.counts, out)
        records.append(record)
        if not failures and first_ok is None:
            first_ok = result
        probes.append(host_probe())
        status = "ok" if not failures else "FAILED: " + "; ".join(failures)
        kind = "warm-up" if warmup else "traced" if traced else "untraced"
        print(f"pass {len(records)} {kind} wall_s={wall:.6f} probe_s={probes[-1]:.6f} {status}", flush=True)
        loop_times.append(time.perf_counter() - loop_start)
        timed = [r for r in records if not r.warmup]
        enough = all(sum(r.traced == m for r in timed) >= MIN_PASSES for m in modes)
        if enough and time.perf_counter() + statistics.median(loop_times) > deadline:
            return records, probes, first_ok


# --- environment ----------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def environment(wl, inputs, result) -> dict:
    import numpy as np

    described = wl.describe(inputs, result)
    n_cells = described["n_cells"]
    l3 = l3_bytes()
    # the largest single arrays are per-cell float64 vectors
    largest = 8 * n_cells if n_cells else 0
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_omp_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "n_cells": n_cells,
        "steps": described["steps"],
        "l3_bytes": l3,
        "largest_array_bytes": largest,
        "note": (
            "last-level cache size unknown" if l3 is None
            else "every array fits in the last-level cache" if largest <= l3
            else "arrays exceed the last-level cache"
        ) + "; no memory-bandwidth number is claimed",
        "waits_retries": "none: one thread, no queue, nothing waits or retries",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one directory per process, so that concurrent runs never share files
    out = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        setup_probe(args.workload, args.seed, out)
        return 0

    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    try:
        setup_times, probes = ([], []) if args.trace else measure_setup(args.workload, args.seed, out)
        inputs = wl.build(args.seed, out)
        tracer = tracing.Tracer()
        modes = (False, True) if args.trace else (False,)
        records, pass_probes, first_ok = run_passes(wl, inputs, out, args.seconds, modes, tracer)
        probes += pass_probes
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not any(not (r.warmup or r.failures) for r in records):
            print("benchmark: every timed pass failed", file=sys.stderr)
            return 1
        env = environment(wl, inputs, first_ok)
        if args.trace:
            metrics = traced_extras(wl, inputs, args.seed, out, records, probes, tracer)
        else:
            # a mean, not a median: the host switches between a fast and a
            # slow state for minutes at a time, and a median over passes
            # jumps between the two while a mean follows the mix of both
            wall = statistics.fmean(r.wall_s for r in records if not (r.failures or r.warmup))
            print(f"measured: wall_s {wall:.6f} s, setup_s {statistics.median(setup_times):.6f} s, "
                  f"host probe {statistics.fmean(probes):.6f} s (reference {HOST_PROBE_REF_S} s)")
            metrics = {
                "wall_s": scaled(wall, probes),
                "setup_s": scaled(statistics.median(setup_times), probes),
                "peak_rss_mb": peak_rss_mb,
                # outside every timed region; the output files are the last
                # pass's, which the byte-identity check compared with the first
                "event_err": wl.event_err(inputs, first_ok, out),
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = sum(1 for r in records if r.failures)
    spec = bench_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(records)} passes; "
          f"set-up samples {[round(t, 4) for t in setup_times]}")
    print(f"fail_ratio = {failed}/{len(records)} = {failed / len(records):.6g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.9g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_extras(wl, inputs, seed, out, records, probes, tracer) -> dict[str, float]:
    """Per-layer medians over traced passes, the set-up's sampling time,
    the tracing overhead against the untraced passes of the same run, and
    the host probe.  These times are this host's, not scaled."""
    traced = [r for r in records if r.traced and not r.failures]
    plain = [r.wall_s for r in records if not (r.traced or r.warmup or r.failures)]
    layers = {name: statistics.median([r.layers[name] for r in traced]) for name in traced[0].layers}

    sample_times = []
    with tracing.installed(tracer, {}):
        for _ in range(SETUP_REPEATS):
            tracer.clear()
            with tracer.span("setup"):
                wl.build(seed, out)
            sample_times.append(tracing.self_time_by_name(tracer.spans).get("measures.sample", 0.0))
    layers["measures.sample_s"] = statistics.median(sample_times)

    traced_wall = statistics.median([r.wall_s for r in traced])
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = statistics.median(plain)
    layers["trace.overhead_s"] = traced_wall - statistics.median(plain)
    layers["trace.span_cost_s"] = tracing.span_cost() * layers["trace.spans"]
    layers["host.probe_s"] = statistics.fmean(probes)
    return layers


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
