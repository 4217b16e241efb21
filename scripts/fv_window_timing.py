"""Time FV runs up to and past blow-up, where the occupied window shrinks with the mass.

Runs example1 to T = 1.0 (through its first contact, before blow-up: the
time per step at 8000 cells), example1 to T = 2.5 and example4 to T = 3.5
with the FV solver on the presets' grid (dx = 5e-4) and prints, per run,
the number of steps, the wall time of ``fv.run`` (its own clock, without
the import and set-up), the time per step and the width of the occupied
window at five equally spaced times.  Each run is a fresh interpreter.

With ``--against OTHER_SRC`` it times a second source tree as well, in
alternating pairs: the first side of each pair alternates, so both sides
see the same drift in the host's load.  The last lines give each side's
median wall time and time per step per run.

    python3 scripts/fv_window_timing.py --pairs 2 --against /path/to/other/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = (("example1", 1.0), ("example1", 2.5), ("example4", 3.5))

CHILD = """
import json, sys
from aggrekin.fv import run
from aggrekin.scenarios import initial_grid_state, make_kernel, preset
name, T = sys.argv[1], float(sys.argv[2])
s = preset(name, solver="fv")
times = tuple(T * k / 5 for k in range(1, 6))
res = run(initial_grid_state(s), make_kernel(s.kernel_spec), s.params, T, snapshot_times=times)
print(json.dumps({
    "steps": res.n_steps,
    "wall_s": res.elapsed,
    "widths": [[t, st.window[1] - st.window[0]] for t, (_, st) in zip(times, res.snapshots)],
    "events": [e.kind for e in res.events],
}))
"""


def time_run(src: Path, name: str, T: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, name, str(T)], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=2, help="runs per side and preset")
    parser.add_argument("--against", type=Path, help="a second src directory to time in alternating pairs")
    args = parser.parse_args(argv)
    sides = {"this": Path(__file__).resolve().parent.parent / "src"}
    if args.against is not None:
        sides["other"] = args.against.resolve()
    walls = {(name, T, side): [] for name, T in RUNS for side in sides}
    for k in range(args.pairs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for name, T in RUNS:
            for side in order:
                r = time_run(sides[side], name, T)
                walls[name, T, side].append((r["wall_s"], r["steps"]))
                widths = " ".join(f"{t:g}:{w}" for t, w in r["widths"])
                print(
                    f"{name} T={T:g} side={side} steps={r['steps']} wall_s={r['wall_s']:.3f} "
                    f"us_per_step={1e6 * r['wall_s'] / r['steps']:.0f} window={widths} "
                    f"events={','.join(r['events'])}",
                    flush=True,
                )
    for (name, T, side), runs in walls.items():
        wall = statistics.median(w for w, _ in runs)
        print(
            f"median {name} T={T:g} side={side} wall_s={wall:.3f} "
            f"us_per_step={1e6 * wall / runs[0][1]:.0f} over {len(runs)} runs"
        )


if __name__ == "__main__":
    main()
