"""Seeded fuzz gate for `qfiber compute`.

Every session the parser accepts either computes a report or exits with
its documented code (1 input, 2 math, 3 budget), and never with a
traceback.  X is cut out by codim X generators x_i - (terms of degree 2
and 3 in the other variables), so it is smooth at the origin; Y gets
enough random generators of degree at most 3 for an excess intersection,
sometimes one more, sometimes with a constant term.  Many draws meet in
no point or in a curve; the rest give reports of one to several factors,
rational points and clusters.  Each report is checked against identities
that hold whatever the verdicts are.
"""

import json
import random

import pytest

from qfiber.cli import main
from qfiber.groebner import Ideal
from qfiber.parser import parse_session

PRIMES = (3, 5, 7, 101, 32003)
NAMES = ("x", "y", "z", "w")
SESSIONS = 300


def _poly(rng, names, degrees, nterms, lead=None, const=False) -> str:
    terms = [lead] if lead else []
    for _ in range(nterms):
        coeff = rng.randint(1, 9) * rng.choice((1, -1))
        mono = sorted(rng.choice(names) for _ in range(rng.choice(degrees)))
        terms.append(f"{coeff}*{'*'.join(mono)}")
    if const:
        terms.append(str(rng.randint(1, 5)))
    return " + ".join(terms).replace("+ -", "- ")


def random_session(rng) -> str:
    p = rng.choice(PRIMES)
    n = rng.randint(2, 4)
    names = NAMES[:n]
    codim_x = rng.randint(1, n - 1)
    xs = [_poly(rng, names[:i] + names[i + 1:], (2, 3), rng.randint(0, 2),
                lead=names[i])
          for i in range(codim_x)]
    codim_y = rng.randint(n - codim_x + 1, n)
    ys = [_poly(rng, names, (1, 2, 3), rng.randint(1, 3),
                const=rng.random() < 0.1)
          for _ in range(codim_y + rng.choice((0, 0, 1)))]
    return (f"ring R = Fp({p})[{', '.join(names)}], grevlex;\n"
            f"ideal X = {', '.join(xs)};\nideal Y = {', '.join(ys)};\n")


def test_random_sessions_compute_or_exit_cleanly(capsys, tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "session.txt"
    codes = {}
    for _ in range(SESSIONS):
        text = random_session(rng)
        path.write_text(text)
        try:
            code = main(["compute", "--input", str(path)])
        except Exception as exc:  # any escape is a traceback
            pytest.fail(f"traceback on\n{text}{exc!r}")
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), text
        codes[code] = codes.get(code, 0) + 1
        if code != 0:
            continue
        doc = json.loads(out)
        parts = doc["components"]
        assert sum(c["length"] for c in parts) == doc["deg_Z"], text
        assert sum(c["dim_Q"] for c in parts) == doc["dim_Q"], text
        ring, ideals, _ = parse_session(text)
        if len(Ideal(ring, ideals["Y"]).gens) == doc["codim_Y"]:
            # I_Y a complete intersection: the identity perfbench/run.py
            # checks on its own compute reports
            assert doc["dim_Q"] == (doc["deg_Z"] * doc["codim_Y"]
                                    - doc["hilb_tangent_dim"]), text
    # the draws reach both reports and input errors
    assert codes.get(0, 0) >= SESSIONS // 4 and codes.get(1, 0) > 0
