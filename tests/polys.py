"""One polynomial in an existing ring, for the tests: a generator list of
qfiber.parser.parse_ideal that must hold exactly one entry."""

from qfiber.parser import parse_ideal


def parse_polynomial(text, ring):
    [f] = parse_ideal(text, ring)
    return f
