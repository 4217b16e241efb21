"""The particle solver's synchronisation map for a three-body family, against the closed-form threshold.

Species 1 holds atoms A m0 at -0.5 and (M1 - A) m0 at 0.5 with M1 = 6,
species 2 one atom m2 m0 at -0.15, theta1 = theta2 = 1 and
m0 = sqrt(pi / 5000); the particle solver runs each to T = 4.  The
outcome of a run is

- ``cross`` when its first cross-species event is a cross,
- ``temporary`` when it glues and some glue later unglues,
- ``permanent`` when it glues and nothing ever unglues.

For each (chi1, chi2, m2) case the script prints the outcome over A in
[2, 4], then bisects the A* between the last temporary A of that scan
and the permanent A after it to 1e-5, and prints it next to the closed
form A* = M1 (1 - chi2/chi1) - (theta2/theta1) m2: the synchronising
condition |(chi1 - chi2) gamma| <= (chi1 theta2 m2 + chi2 theta1 m1)/2
with the far species-1 aggregate's pull gamma = theta1 (M1 - A)/2 at
zero distance.  ``--check`` exits 1 unless every bisected A* lies within
1e-4 of the formula.

    python3 scripts/sync_map.py [--check]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aggrekin.kernel import exponential_kernel  # noqa: E402
from aggrekin.measures import ModelParams, bump_mass_unit  # noqa: E402
from aggrekin.particles import Cluster, ClusterSet, run  # noqa: E402

CASES = ((10.0, 0.5, 2.0), (10.0, 1.0, 2.0), (10.0, 2.0, 2.0), (5.0, 1.0, 2.0), (10.0, 1.0, 1.5), (10.0, 3.0, 1.0),
         (20.0, 2.0, 2.0))
M1, T, THETA1, THETA2 = 6.0, 4.0, 1.0, 1.0
A_SCAN = tuple(2.0 + 0.125 * k for k in range(17))
A_TOL, CHECK_TOL = 1e-5, 1e-4
KERNEL = exponential_kernel()
M0 = bump_mass_unit()


def outcome(a: float, chi1: float, chi2: float, m2: float) -> str:
    """The particle outcome of the family at ``a``: cross, temporary or permanent."""
    cs = ClusterSet([Cluster(-0.5, a * M0, 0.0), Cluster(-0.15, 0.0, m2 * M0), Cluster(0.5, (M1 - a) * M0, 0.0)])
    p = ModelParams(chi1=chi1, chi2=chi2, theta1=THETA1, theta2=THETA2)
    kinds = [e.kind for e in run(cs, KERNEL, p, T).events]
    first = next((k for k in kinds if k in ("glue", "cross")), None)
    if first != "glue":
        return "cross"
    return "temporary" if "unglue" in kinds else "permanent"


def bisect_threshold(scan: list[str], chi1: float, chi2: float, m2: float) -> float | None:
    """The A between the scan's last temporary A and the permanent A after it, to ``A_TOL``."""
    pairs = [i for i in range(len(scan) - 1) if scan[i : i + 2] == ["temporary", "permanent"]]
    if not pairs:
        return None
    lo, hi = A_SCAN[pairs[-1]], A_SCAN[pairs[-1] + 1]
    while hi - lo > A_TOL:
        mid = 0.5 * (lo + hi)
        if outcome(mid, chi1, chi2, m2) == "permanent":
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def formula(chi1: float, chi2: float, m2: float) -> float:
    return M1 * (1.0 - chi2 / chi1) - THETA2 / THETA1 * m2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 unless |A* - formula| <= 1e-4 in every case")
    args = parser.parse_args(argv)
    print(f"particle outcome over A (c cross, t temporary, p permanent); M1 = {M1:g}, T = {T:g}, theta = (1, 1)")
    print(f"{'chi1':>5s} {'chi2':>5s} {'m2':>5s}  " + " ".join(f"{a:5.3f}" for a in A_SCAN))
    rows = []
    for chi1, chi2, m2 in CASES:
        scan = [outcome(a, chi1, chi2, m2) for a in A_SCAN]
        print(f"{chi1:5g} {chi2:5g} {m2:5g}  " + " ".join(f"{o[0]:>5s}" for o in scan))
        rows.append((chi1, chi2, m2, bisect_threshold(scan, chi1, chi2, m2)))
    print()
    print(f"{'chi1':>5s} {'chi2':>5s} {'m2':>5s} {'A* bisected':>12s} {'A* formula':>12s} {'|diff|':>9s}")
    worst = 0.0
    for chi1, chi2, m2, a_star in rows:
        exact = formula(chi1, chi2, m2)
        diff = abs(a_star - exact) if a_star is not None else float("inf")
        worst = max(worst, diff)
        shown = f"{a_star:12.6f}" if a_star is not None else f"{'none':>12s}"
        print(f"{chi1:5g} {chi2:5g} {m2:5g} {shown} {exact:12.6f} {diff:9.2e}")
    print(f"largest |A* - formula| = {worst:.2e} (tolerance {CHECK_TOL:g})")
    return int(args.check and not worst <= CHECK_TOL)


if __name__ == "__main__":
    sys.exit(main())
