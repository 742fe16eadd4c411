"""Polynomial layer: orders, arithmetic laws, string round-trips."""

import random

import pytest

from qfiber import algebra
from qfiber.algebra import (
    FieldSpec,
    GREVLEX,
    LEX,
    PolyRing,
    block_order,
    is_prime,
    poly_to_string,
    random_poly,
)
from qfiber.parser import ParseError, _Parser, _tokenize, parse_session
from qfiber.scenarios import (Seed, gen_fatpoint_model, gen_quadric_graph,
                              scenario_text)
from polys import parse_polynomial


class SequentialParser(_Parser):
    """Sums a polynomial's terms one Polynomial addition at a time: the
    route parse_poly replaced, kept as its oracle."""

    def parse_poly(self):
        if self.ring is None:
            self.fail("no ring declared")
        if self.peek().kind == "-":
            self.next()
            out = -self.parse_term()
        else:
            out = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            out = out + rhs if op == "+" else out - rhs
        return out


# the session files of the benchmark's compute workload
BENCHMARK_SESSIONS = [
    *(scenario_text(make(Seed(0))) for make in (
        lambda s: gen_quadric_graph(3, s), lambda s: gen_quadric_graph(4, s),
        gen_fatpoint_model)),
    "ring R = Fp(32003)[x, y], grevlex;\n"
    "ideal X = y, x^2 - 1;\nideal Y = y;\n",
    "ring R = Fp(32003)[x, y, z], grevlex;\n"
    "ideal X = z, x + y - 1;\nideal Y = x*y, y*z, x*z;\n",
    "ring R = Fp(32003)[x, y, z], grevlex;\n"
    "ideal X = z;\nideal Y = x^2 - x, y^2, x*y, z;\n",
]


def scanned_tokens(src):
    """The tokenizer that scanned one character at a time, kept as the
    oracle of parser._tokenize: (kind, text, line, col) of each token, or
    the ParseError's (message, line, col)."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            i, col = i + 1, col + 1
        elif ch == "#":
            while i < n and src[i] != "\n":
                i += 1
        elif ch.isdigit() or ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isdigit() if ch.isdigit()
                             else src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("int" if ch.isdigit() else "name", src[i:j], line,
                         col))
            col, i = col + j - i, j
        elif ch in "+-*^(),;=[]":
            toks.append((ch, ch, line, col))
            i, col = i + 1, col + 1
        else:
            return ("error", f"line {line}, col {col}: unexpected character "
                    f"{ch!r}", line, col)
    return toks + [("end", "", line, col)]


def regex_tokens(src):
    """parser._tokenize in scanned_tokens' shape."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _tokenize(src)]
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


def parse_outcome(parser):
    """Generators by ideal name and the loose polynomials, as term tuples,
    or the position of the ParseError."""
    try:
        _, ideals, loose = parser.parse_session()
    except ParseError as e:
        return ("error", e.line, e.col, str(e))
    return ({name: [f.terms for f in gens] for name, gens in ideals.items()},
            [f.terms for f in loose])


def ring3(p=32003, order=GREVLEX):
    return PolyRing(FieldSpec(p), ("x", "y", "z"), order)


class TestField:
    def test_prime_check(self):
        assert is_prime(2) and is_prime(3) and is_prime(32003)
        assert not is_prime(1) and not is_prime(32001) and not is_prime(0)
        # strong pseudoprime to several small bases
        assert not is_prime(3215031751)

    def test_rejects_bad_characteristic(self):
        with pytest.raises(ValueError):
            FieldSpec(32001)
        with pytest.raises(ValueError):
            FieldSpec(2)

    def test_prime_bound(self):
        # the largest prime below 2^31 is accepted, the first above is not
        assert FieldSpec(2147483647).p == 2**31 - 1
        with pytest.raises(ValueError, match="2\\^31"):
            FieldSpec(2147483659)

    def test_inverse(self):
        F = FieldSpec(101)
        for a in range(1, 101):
            assert a * F.inv(a) % F.p == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


class TestOrders:
    def test_grevlex_vs_lex_disagree(self):
        # x^2*y*z vs x*y^3: same degree, grevlex favors the smaller z power
        a, b = (2, 1, 1), (1, 3, 0)
        assert GREVLEX.key(a) < GREVLEX.key(b)
        assert LEX.key(a) > LEX.key(b)
        assert GREVLEX.key((2, 0, 0)) < GREVLEX.key((1, 1, 1))
        assert LEX.key((2, 0, 0)) > LEX.key((1, 1, 1))

    def test_grevlex_classic(self):
        # same degree: the one with the smaller last exponent wins
        assert GREVLEX.key((2, 1, 0)) > GREVLEX.key((1, 2, 0))
        assert GREVLEX.key((1, 1, 1)) < GREVLEX.key((0, 3, 0))
        assert GREVLEX.key((1, 0, 1)) < GREVLEX.key((0, 2, 0))

    def test_block_order_eliminates(self):
        # block(1) on (t, x, y): any t beats any power of x, y
        o = block_order(1)
        assert o.key((1, 0, 0)) > o.key((0, 5, 7))
        # tail block is grevlex on (x, y): x^2 > x*y > y^2
        assert o.key((0, 2, 0)) > o.key((0, 1, 1))
        assert o.key((0, 1, 1)) > o.key((0, 0, 2))

    def test_block_tail_is_grevlex(self):
        o = block_order(1)
        assert o.key((0, 2, 0)) < o.key((0, 0, 3))

    def test_total_order(self):
        R = ring3()
        monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
        for order in (GREVLEX, LEX, block_order(2)):
            s = sorted(monos, key=order.key)
            for a, b in zip(s, s[1:]):
                assert order.key(a) < order.key(b)
        assert R.order is GREVLEX

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_block_key_matches_the_nested_one(self, k):
        # the key the block order had: one grevlex key per block, nested
        def nested(m):
            head, tail = m[:k], m[k:]
            return ((sum(head), tuple(-e for e in reversed(head))),
                    (sum(tail), tuple(-e for e in reversed(tail))))

        rnd = random.Random(k)
        order = block_order(k)
        monos = [tuple(rnd.randrange(4) for _ in range(k + 3))
                 for _ in range(80)]
        for a in monos:
            for b in monos:
                assert (order.key(a) < order.key(b)) == (nested(a) < nested(b))
                assert (order.key(a) == order.key(b)) == (a == b)


class TestArithmetic:
    def test_leading_term_sorted(self):
        R = ring3()
        f = parse_polynomial("x^2*y + x*y^2 + y^3 + 1", R)
        assert f.leading_monomial() == (2, 1, 0)
        assert [m for m, _ in f.terms] == [(2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 0, 0)]

    def test_ring_laws_random(self):
        R = ring3(101)
        rng = random.Random(7)
        for _ in range(40):
            f = random_poly(R, 2, rng, homogeneous=False)
            g = random_poly(R, 2, rng, homogeneous=False)
            h = random_poly(R, 1, rng, homogeneous=False)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == R.zero()
            assert f * R.one() == f

    def test_pow_matches_repeated_mul(self):
        R = ring3(101)
        f = parse_polynomial("x + y + 1", R)
        acc = R.one()
        for k in range(6):
            assert f ** k == acc
            acc = acc * f

    def test_diff(self):
        R = ring3()
        f = parse_polynomial("x^3*y + 7*x*z^2 + 5", R)
        assert f.diff("x") == parse_polynomial("3*x^2*y + 7*z^2", R)
        assert f.diff("y") == parse_polynomial("x^3", R)
        assert f.diff(2) == parse_polynomial("14*x*z", R)

    def test_diff_kills_pth_powers(self):
        R = ring3(5)
        f = parse_polynomial("x^5 + x^2", R)
        assert f.diff("x") == parse_polynomial("2*x", R)

    def test_evaluate(self):
        R = ring3(101)
        f = parse_polynomial("x^2 + 2*y*z + 3", R)
        assert f.evaluate((2, 3, 4)) == (4 + 24 + 3) % 101

    def test_substitute_graph_style(self):
        # substitution commutes with multiplication
        R = ring3(101)
        S = PolyRing(FieldSpec(101), ("a", "b"))
        images = {"x": parse_polynomial("a^2", S), "y": parse_polynomial("a*b", S), "z": parse_polynomial("b^2", S)}
        f = parse_polynomial("x*z + y^2", R)
        g = parse_polynomial("x + z", R)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
        assert f.substitute(images) == parse_polynomial("2*a^2*b^2", S)

    def test_to_ring_matches_by_name(self):
        R = ring3(101)
        S = PolyRing(FieldSpec(101), ("w", "z", "x", "y"))
        f = parse_polynomial("x^2*z + 3*y + 5", R)
        assert f.to_ring(S) == parse_polynomial("x^2*z + 3*y + 5", S)
        assert f.to_ring(S).to_ring(R) == f
        assert f.to_ring(R) is f

    @pytest.mark.parametrize("order", [LEX, block_order(1)],
                             ids=["lex", "block1"])
    def test_to_ring_sorts_in_the_target_order(self, order):
        R = ring3(101)
        S = PolyRing(FieldSpec(101), ("z", "y", "x"), order)
        g = parse_polynomial("x^3 + y^2*z + z^2 + x*y + 7", R).to_ring(S)
        assert g.terms == S.poly(dict(g.terms)).terms
        assert g == parse_polynomial("x^3 + y^2*z + z^2 + x*y + 7", S)

    def test_to_ring_refuses_a_missing_variable(self):
        R = ring3(101)
        S = PolyRing(FieldSpec(101), ("x", "y"))
        assert parse_polynomial("x*y + 2", R).to_ring(S) == \
            parse_polynomial("x*y + 2", S)
        with pytest.raises(ValueError, match="not in"):
            parse_polynomial("x + z", R).to_ring(S)
        with pytest.raises(ValueError, match="fields"):
            parse_polynomial("x", R).to_ring(ring3(103))

    def test_shift_translates_origin(self):
        R = ring3(101)
        f = parse_polynomial("x^2 + y", R)
        g = f.shift((1, 2, 0))
        assert g.evaluate((0, 0, 0)) == f.evaluate((1, 2, 0))
        assert g.evaluate((5, 5, 5)) == f.evaluate((6, 7, 5))

    def test_homogeneous(self):
        R = ring3()
        assert parse_polynomial("x*y + z^2", R).is_homogeneous()
        assert not parse_polynomial("x*y + z", R).is_homogeneous()
        assert R.zero().is_homogeneous()
        f = parse_polynomial("x^2 + y + 3", R)
        assert f.homogeneous_part(1) == parse_polynomial("y", R)


def _exponents(nvars: int, degree: int) -> list:
    """(exponent vector, degree left over) for every exponent vector of
    total degree at most degree, in lexicographic order: the first
    exponent slowest, each ascending."""
    out = [((), degree)]
    for _ in range(nvars):
        out = [(m + (e,), left - e) for m, left in out
               for e in range(left + 1)]
    return out


def dict_random_poly(ring, degree, rng, homogeneous=True):
    """random_poly through a dict of the nonzero draws and ring.poly's
    keyed sort, every call: the route the memoised draw plan replaced,
    kept as its oracle."""
    d = {}
    for m, left in _exponents(ring.nvars, degree):
        if homogeneous and left:
            continue
        c = rng.randrange(ring.p)
        if c:
            d[m] = c
    return ring.poly(d)


class TestRandomPoly:
    @pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(2)],
                             ids=str)
    @pytest.mark.parametrize("p", [3, 32003])
    def test_matches_the_dict_route(self, order, p):
        # one stream per ring for both routes, so every draw also starts
        # where the other route left it; at p = 3 a third of the draws are
        # zero and drop out
        for nvars in (3, 4):
            R = PolyRing(FieldSpec(p), tuple(f"x{i}" for i in range(nvars)),
                         order)
            mine, theirs = Seed(nvars).stream(), Seed(nvars).stream()
            for degree in range(4):
                for homogeneous in (True, False):
                    for _ in range(4):
                        got = random_poly(R, degree, mine, homogeneous)
                        want = dict_random_poly(R, degree, theirs,
                                                homogeneous)
                        assert got.terms == want.terms

    def test_plan_memo_is_bounded(self):
        plan = algebra._draw_plan
        bound = plan.cache_info().maxsize
        assert bound == 32
        rng = Seed(0).stream()
        for nvars in range(1, 4):
            R = PolyRing(FieldSpec(5), tuple(f"x{i}" for i in range(nvars)))
            for degree in range(2 * bound // 3 + 1):
                random_poly(R, degree, rng)
        assert plan.cache_info().currsize == bound
        # a plan is read, not rebuilt, on the next draw of its shape
        hits = plan.cache_info().hits
        random_poly(R, degree, rng)
        assert plan.cache_info().hits == hits + 1


class TestStrings:
    def test_canonical_form(self):
        R = ring3()
        f = parse_polynomial("3*x^2*y + 5", R)
        assert poly_to_string(f) == "3*x^2*y + 5"
        assert poly_to_string(R.zero()) == "0"
        assert poly_to_string(R.one()) == "1"

    def test_negative_residues_normalized(self):
        R = ring3(7)
        f = parse_polynomial("x - 3*y", R)
        assert poly_to_string(f) == "x + 4*y"

    def test_roundtrip_random(self):
        R = ring3(101)
        rng = random.Random(11)
        for _ in range(30):
            f = random_poly(R, 3, rng, homogeneous=False)
            assert parse_polynomial(poly_to_string(f), R) == f


class TestParser:
    def test_no_implicit_multiplication(self):
        R = ring3()
        with pytest.raises(ParseError):
            parse_polynomial("3x", R)
        with pytest.raises(ParseError):
            parse_polynomial("x y", R)

    def test_unknown_variable(self):
        R = ring3()
        with pytest.raises(ParseError) as ei:
            parse_polynomial("x + w", R)
        assert ei.value.line == 1 and ei.value.col == 5

    def test_error_position_multiline(self):
        R = ring3()
        with pytest.raises(ParseError) as ei:
            parse_polynomial("x +\n  (y * )", R)
        assert ei.value.line == 2

    def test_parens_and_unary_minus(self):
        R = ring3(101)
        f = parse_polynomial("-(x - y)*(x + y)", R)
        g = parse_polynomial("y^2 - x^2", R)
        assert f == g

    def test_comments(self):
        R = ring3()
        f = parse_polynomial("x + # the linear part\n y", R)
        assert f == parse_polynomial("x + y", R)

    def test_session(self):
        from qfiber.parser import parse_session

        src = """
        ring R = Fp(32003)[x, y, z], grevlex;
        ideal I = x^2 + y, z;   # two generators
        ideal J = x*y;
        """
        ring, ideals, loose = parse_session(src)
        assert ring.variables == ("x", "y", "z")
        assert ring.p == 32003
        assert len(ideals["I"]) == 2 and len(ideals["J"]) == 1
        assert loose == []

    def test_session_single_ring(self):
        from qfiber.parser import parse_session

        with pytest.raises(ParseError):
            parse_session("ring R = Fp(7)[x]; ring S = Fp(7)[y]")

    @pytest.mark.parametrize("idx", range(len(BENCHMARK_SESSIONS)))
    def test_one_sum_per_polynomial_matches_sequential_sums(self, idx):
        # the whole session and every prefix of it, most of which end in a
        # ParseError, parse alike; with a negated and a cancelling sum added
        text = BENCHMARK_SESSIONS[idx]
        v = text[text.index("[") + 1:].split(",")[0].strip()
        text += f"-{v}^2 + 2*{v}^2 - ({v} - 1)^2 + {v}^2;"
        assert parse_outcome(_Parser(_tokenize(text)))[0] != "error"
        for k in range(len(text) + 1):
            assert parse_outcome(_Parser(_tokenize(text[:k]))) == \
                parse_outcome(SequentialParser(_tokenize(text[:k])))

    @pytest.mark.parametrize("idx", range(len(BENCHMARK_SESSIONS)))
    def test_tokens_match_the_character_scan(self, idx):
        # the session, each prefix of it, and the session behind a comment
        # that runs to the end of input
        text = BENCHMARK_SESSIONS[idx]
        for src in (*(text[:k] for k in range(len(text) + 1)),
                    text + "# trailing", text.rstrip("\n") + "  # x\n#"):
            assert regex_tokens(src) == scanned_tokens(src)

    def test_tokens_match_the_character_scan_on_odd_input(self):
        # digits that are not decimal (superscripts), numerals that are not
        # digits, letters outside ASCII, underscores, carriage returns,
        # tabs, comments and characters no token starts with
        alphabet = ("x1_9 \t\r\n#;,=()[]+-*^" "\u00b2\u00bd\u03b1\u0661"
                    "\u2460\u216b\u4e94\u00e9.\f$")
        rng = random.Random(17)
        for _ in range(3000):
            src = "".join(rng.choice(alphabet)
                          for _ in range(rng.randrange(12)))
            assert regex_tokens(src) == scanned_tokens(src), repr(src)
        for src in ("x\u00b2", "2x3_y", "\u00bdx", "3\u00bd", "\u03b1\u0661",
                    "ab # c", "a\r\n b", "\u00e9t\u00e9 = 2", ""):
            assert regex_tokens(src) == scanned_tokens(src), repr(src)

    def test_session_block_order(self):
        from qfiber.parser import parse_session

        ring, _, _ = parse_session("ring R = Fp(31)[t, x, y], block(1)")
        assert ring.order.kind == "block" and ring.order.split == 1

    def test_session_lex_order(self):
        ring, ideals, _ = parse_session(
            "ring R = Fp(31)[x, y], lex; ideal I = y^2 + x, x^3")
        assert ring.order is LEX
        assert ring.order.key((1, 0)) > ring.order.key((0, 5))
        assert [f.leading_monomial() for f in ideals["I"]] == [(1, 0),
                                                              (3, 0)]

    # (ring statement, the token the error points at)
    RING_ERRORS = {
        "block0": ("ring R = Fp(101)[x, y, z], block(0);", "0);"),
        "block_nvars": ("ring R = Fp(101)[x, y, z], block(3);", "3);"),
        "block_one_variable": ("ring R = Fp(101)[x], block(1);", "1);"),
        "duplicate": ("ring R = Fp(101)[x, y, x];", "x];"),
        "duplicate_neighbour": ("ring R = Fp(101)[x, y, y, z];", "y, z]"),
    }

    @pytest.mark.parametrize("case", sorted(RING_ERRORS))
    def test_ring_errors_point_at_their_token(self, case):
        # the block's integer, or the repeated name, rather than the prime
        src, token = self.RING_ERRORS[case]
        with pytest.raises(ParseError) as ei:
            parse_session(src)
        assert ei.value.line == 1
        assert ei.value.col == src.rindex(token) + 1
