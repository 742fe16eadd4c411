"""The counting experiment behind the corank fiber bound, kept as the
oracle of qfiber.invariants.corank_fiber_lower_bound.

A point of tangential corank d forces a fiber of length at least
C(d+1, ceil(d/2)), the peak of the binomial row C(d+1, m).  The
experiment checks the two counting claims behind that floor on seeded
random quadrics: d+1 general quadrics in d+1 variables form a complete
intersection whose graded Hilbert function is the full row, and the same
count of general quadrics in only d variables leaves an artinian quotient
of total length the row's peak.
"""

from dataclasses import dataclass
from math import comb

from qfiber.algebra import FieldSpec, PolyRing, random_poly
from qfiber.groebner import Ideal, hilbert_data
from qfiber.rng import Stream

P = 32003


@dataclass(frozen=True)
class Prop22Result:
    """Evidence record for the corank fiber bound's two counting claims."""

    d: int
    seed: int
    ci_hilbert: tuple
    binomials: tuple
    peak_index: int
    dropped_length: int
    expected_length: int
    attempts: int
    passed: bool


def prop22_experiment(d: int, seed: int) -> Prop22Result:
    """Seeded Hilbert-function experiment at corank d over F_32003.

    Degenerate samples are redrawn, budget 8 per claim.
    """
    if not 1 <= d <= 6:
        raise ValueError("desk scale covers 1 <= d <= 6")
    field = FieldSpec(P)
    stream = Stream(seed)
    peak = (d + 1) // 2
    binomials = tuple(comb(d + 1, m) for m in range(d + 2))

    def sample(nvars: int, label: int, ok):
        ring = PolyRing(field, tuple(f"y{i}" for i in range(1, nvars + 1)))
        for trial in range(8):
            st = stream.fork(label + trial)
            gens = [random_poly(ring, 2, st.fork(i), homogeneous=True)
                    for i in range(d + 1)]
            hd = hilbert_data(Ideal(ring, gens))
            if hd.krull_dim == 0 and ok(hd.degree):
                return hd, trial + 1
        raise RuntimeError(f"degenerate quadric samples from seed {seed}")

    ci, tries_ci = sample(d + 1, 0, lambda deg: deg == 2 ** (d + 1))
    ci_hf = tuple(ci.hf(m) for m in range(d + 2))
    dropped, tries_drop = sample(d, 64, lambda deg: deg == binomials[peak])
    passed = ci_hf == binomials and dropped.degree == binomials[peak]
    return Prop22Result(d, seed, ci_hf, binomials, peak, dropped.degree,
                        binomials[peak], tries_ci + tries_drop, passed)
