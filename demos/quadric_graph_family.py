"""Reproduce the quadric-graph invariant table for the fast columns.

For each n the scenario is the graph of n+1 random quadrics in n chart
variables, intersected with the axis plane of the graph directions.  The
intersection is one fat point whose length, defect ratio q, and mu are
independent of the random seed; the script recomputes them for n = 2..5
and checks them against the known values.  (n = 6..8 follow the same
pattern but take up to about 20 s; the CLI exposes them via
`qfiber table --n-max 8`.)

Run:  python3 demos/quadric_graph_family.py
"""

import time

from qfiber import Seed, gen_quadric_graph, q_module

KNOWN = {2: (3, 3, 3), 3: (6, 6, 3), 4: (10, 5, 5), 5: (20, 20, 6)}

print(f"{'n':>2}  {'deg Z':>5}  {'q':>5}  {'mu':>3}  {'seconds':>7}  status")
for n, expected in KNOWN.items():
    t0 = time.perf_counter()
    scen = gen_quadric_graph(n, Seed(0))
    rep = q_module(scen)
    dt = time.perf_counter() - t0
    got = (rep.deg_z, rep.q, rep.mu_q)
    status = "ok" if got == expected else f"MISMATCH, expected {expected}"
    print(f"{n:>2}  {rep.deg_z:>5}  {str(rep.q):>5}  {rep.mu_q:>3}"
          f"  {dt:>7.2f}  {status}")

print()
print("seed independence: the invariants do not move when the quadrics do")
for seed in (1, 2):
    rep = q_module(gen_quadric_graph(3, Seed(seed)))
    print(f"  n=3, seed {seed}: deg Z = {rep.deg_z}, q = {rep.q}, "
          f"mu = {rep.mu_q}")
