"""Groebner engine and ideal calculus, checked against hand reductions."""

import heapq
import pickle
import random
from collections import Counter
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from qfiber.algebra import (
    FieldSpec,
    GREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    block_order,
    mono_divides,
    mono_mul,
    random_poly,
)
from qfiber import groebner as groebner_module
from qfiber.excess import q_module
from qfiber.groebner import (
    GroebnerBasis,
    HilbertData,
    Ideal,
    ResourceAbort,
    _Enc,
    _Repack,
    _linear_witnesses,
    _max_independent,
    groebner,
    hilbert_data,
    pair_budget,
)
from qfiber.parser import parse_ideal
from qfiber.scenarios import (Seed, gen_EI_model, gen_fatpoint_model,
                              gen_quadric_graph)
from polys import parse_polynomial
from test_zerodim import random_zero_dim


def ring(names="x,y,z", p=32003, order=GREVLEX):
    return PolyRing(FieldSpec(p), tuple(names.split(",")), order)


def ideal(R, text):
    return Ideal(R, parse_ideal(text, R))


def basis_dim(I):
    """Krull dimension read off a fresh Groebner basis, the general route."""
    gb = groebner(I.ring, I.gens)
    if gb.is_trivial():
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e)
                for m in gb.leading_monomials()]
    return _max_independent(I.ring.nvars, supports)


class TestBasis:
    def test_hand_reduction(self):
        # classic two-generator example, worked by hand:
        # S(xy-1, y^2-1) -> x - y, then everything reduces
        R = ring("x,y")
        gb = ideal(R, "x*y - 1, y^2 - 1").groebner()
        want = parse_ideal("x - y, y^2 - 1", R)
        assert list(gb.polys) == want

    def test_lex_elimination_shape(self):
        R = ring("x,y", order=LEX)
        gb = ideal(R, "x^2 + y^2 - 1, x - y").groebner()
        # lex basis is triangular: one poly in y alone, one involving x
        inv2 = pow(2, 32003 - 2, 32003)
        want = parse_ideal(f"y^2 + {(-inv2) % 32003}, x - y", R)
        assert sorted(map(str, gb.polys)) == sorted(map(str, want))

    def test_already_groebner(self):
        R = ring("x,y")
        gb = ideal(R, "x^2, y^3").groebner()
        assert [str(g) for g in gb.polys] == ["x^2", "y^3"]

    def test_trivial_detection(self):
        R = ring("x,y")
        assert ideal(R, "x, x + 1").is_trivial()
        assert not ideal(R, "x, y").is_trivial()

    def test_normal_form(self):
        R = ring("x,y")
        I = ideal(R, "x*y - 1, y^2 - 1")
        f = parse_polynomial("x^2*y^2 + x*y + y^2 + 3", R)
        nf = I.normal_form(f)
        # modulo the basis x = y and y^2 = 1, so every summand is constant
        assert nf == parse_polynomial("6", R)
        assert I.normal_form(parse_polynomial("x^3", R)) == parse_polynomial("y", R)

    def test_membership(self):
        R = ring("x,y")
        I = ideal(R, "x^2 - y, y^2 - x")
        f = parse_polynomial("x^4 - x", R)  # (x^2)^2 - x = y^2 - x mod first gen
        assert I.contains(f)
        assert not I.contains(parse_polynomial("x + y", R))

    def test_monic_reduced_unique(self):
        # generating the same ideal two ways gives identical reduced bases
        R = ring("x,y,z")
        I1 = ideal(R, "x + y + z, x*y + y*z + z*x, x*y*z - 1")
        g = I1.gens
        I2 = Ideal(R, [g[0], g[1] + g[0] * g[0], g[2] - g[1]])
        assert I1.groebner().polys == I2.groebner().polys

    def test_monomial_relations_basis(self):
        # x*y = 1 and y = x^40 force x^41 = 1; the reduced basis closes at
        # the balanced powers x^21 and y^21
        R = ring("x,y")
        I = ideal(R, "x^40 - y, x*y - 1")
        lts = set(I.groebner().leading_monomials())
        assert lts == {(1, 1), (21, 0), (0, 21)}

    def test_repack_on_exponent_growth(self, monkeypatch):
        # generators have tiny exponents, but z = x^4 = y^16 = z^64 puts
        # z^64 - z in the ideal, far beyond the basis's field width: its
        # normal form repacks under a wider codec for the call alone
        R = ring("x,y,z")
        I = ideal(R, "x - y^4, y - z^4, z - x^4")
        gb = I.groebner()
        before = frozen(gb)
        zz = parse_polynomial("z^64 - z", R)
        widths = codec_widths(monkeypatch)
        assert I.contains(zz)
        assert I.normal_form(zz) == oracle_normal_form(zz, gb.polys)
        assert widths == [10, 10] and gb._enc.B == 5
        assert frozen(gb) == before

    def test_resource_abort(self):
        R = ring("x,y,z")
        gens = parse_ideal("x^3 - 2*x*y, x^2*y - 2*y^2 + x, z^4 - x*y", R)
        with pytest.raises(ResourceAbort) as ei, pair_budget(1):
            groebner(R, gens)
        assert ei.value.pairs_done >= 2
        assert ei.value.max_pairs == 1

    def test_zero_ideal(self):
        R = ring("x,y")
        gb = Ideal(R, []).groebner()
        assert len(gb) == 0
        f = parse_polynomial("x + y", R)
        assert gb.normal_form(f) == f

    def test_normal_form_past_the_codec(self, monkeypatch):
        # x = y and y^2 = 1, so x^k reduces to y for odd k and to 1 for
        # even.  From x^16 on the exponent outgrows the basis codec: the
        # normal form reduces under one twice as wide, made for that call,
        # and leaves the basis as its run built it
        R = ring("x,y")
        gb = ideal(R, "x*y - 1, y^2 - 1").groebner()
        y, one = parse_polynomial("y", R), R.one()
        before = frozen(gb)
        widths = codec_widths(monkeypatch)
        for k in (*range(1, 17), 201, 202, 3):
            assert gb.normal_form(R.monomial((k, 0))) == (y if k % 2 else one)
        assert widths == [5] * 15 + [10] * 3 + [5]
        assert frozen(gb) == before

    def test_interrupted_normal_form_leaves_no_pending_term(self,
                                                            monkeypatch):
        # raise from inside a reduction after its k-th heap push, while
        # coefficients are pending; the normal forms after it, on the same
        # basis, must still be exact
        R = ring()
        gb = ideal(R, TestNormalFormOracle.GENS[0]).groebner()
        rng = random.Random(3)
        polys = [sparse_poly(R, rng, rng.randrange(2, 8), 6)
                 for _ in range(12)]
        push = heapq.heappush

        class Interrupt(Exception):
            pass

        for k in (1, 2, 5, 20):
            calls = []

            def failing_push(heap, item):
                calls.append(item)
                if len(calls) == k:
                    raise Interrupt
                push(heap, item)

            with monkeypatch.context() as m:
                m.setattr(heapq, "heappush", failing_push)
                with pytest.raises(Interrupt):
                    for f in polys:
                        gb.normal_form(f)
            assert len(calls) == k
            for f in polys:
                assert gb.normal_form(f) == oracle_normal_form(f, gb.polys)


def assert_table_names_first_divisors(enc, engine, red):
    """Each first-divisor memo entry of the reducer red names the first
    engine element whose leading term divides the monomial (~len when none
    does), each monomial with a divisor has its multiple, x^q times that
    element's tail, and no coefficient is pending."""
    assert set(red.pend) <= {None}
    for m, j in red.ids.items():
        assert red.mono[j] == m
        i = red.first[j]
        if i == -1:  # never popped with a nonzero coefficient
            assert red.mult[j] is None
            continue
        assert i == next((t for t, (_, ltm, _) in enumerate(engine)
                          if enc.divides(ltm, m)), ~len(engine))
        if i < 0:
            assert red.mult[j] is None
            continue
        q = m - engine[i][1]
        assert [(red.mono[jj], c) for jj, c in red.mult[j]] == \
            [(q + tm, c) for _, tm, c in engine[i][2]]


def frozen(gb):
    """What a normal form leaves of a zero-dimensional basis, pickled: its
    codec width, engine, standard monomials, border plan and trace."""
    return pickle.dumps((gb._enc.B, gb._engine, gb.standard_monomials(),
                         gb.border_plan(range(gb.ring.nvars)),
                         gb.replay_trace()))


def codec_widths(monkeypatch):
    """The list that receives the codec width of each _Reducer made from
    here on."""
    widths = []

    class Recording(groebner_module._Reducer):
        __slots__ = ()

        def __init__(self, enc, p):
            widths.append(enc.B)
            super().__init__(enc, p)

    monkeypatch.setattr(groebner_module, "_Reducer", Recording)
    return widths


def mono_div(a, b):
    """a / b on exponent tuples; b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def oracle_normal_form(f, basis):
    """Full reduction of f by a list of polynomials, on exponent tuples.

    The largest remaining term is divided by the first element whose
    leading monomial divides it, or else moved to the remainder.  Against a
    Groebner basis the remainder does not depend on the reducer chosen.
    """
    ring = f.ring
    p = ring.p
    work = dict(f.terms)
    rem = {}
    while work:
        m = max(work, key=ring.order.key)
        c = work.pop(m)
        if c == 0:
            continue
        g = next((g for g in basis
                  if mono_divides(g.leading_monomial(), m)), None)
        if g is None:
            rem[m] = c
            continue
        u = mono_div(m, g.leading_monomial())
        cu = c * pow(g.leading_coeff(), p - 2, p) % p
        for tm, tc in g.terms[1:]:
            mm = mono_mul(u, tm)
            work[mm] = (work.get(mm, 0) - cu * tc) % p
    return ring.poly(rem)


def sparse_poly(R, rng, terms, degree):
    expos = [tuple(rng.randrange(degree + 1) for _ in range(R.nvars))
             for _ in range(terms)]
    return R.poly({e: rng.randrange(1, R.p) for e in expos})


ORDERS = {"grevlex": GREVLEX, "lex": LEX, "block1": block_order(1)}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
class TestNormalFormOracle:
    GENS = ("x^2*y - z^2 + 3*x, y^2*z - x*y + 2, x*z^2 - y^2 + z - 1",
            "x*y - z^2, y*z - x^2 + y, x^3 - y*z + 1")

    @pytest.mark.parametrize("text", GENS)
    def test_normal_form_matches_tuple_reduction(self, order, text):
        R = ring(order=order)
        gb = ideal(R, text).groebner()
        rng = random.Random(7)
        for _ in range(25):
            f = sparse_poly(R, rng, rng.randrange(1, 8), 6)
            assert gb.normal_form(f) == oracle_normal_form(f, gb.polys)

    def test_normal_form_past_the_codec(self, order, monkeypatch):
        # each polynomial outgrows the codec of the basis, so its normal
        # form reduces under a wider one of its own
        R = ring(order=order)
        gb = ideal(R, "x*y - z^2, y*z - x^2, x*z - y^2, x^3 - y*z^2, "
                      "z^4").groebner()
        before = frozen(gb)
        k = gb._enc.pmax + 1
        fs = [R.monomial((0, 0, k)), R.monomial((k, 3, 1)),
              parse_polynomial(f"x^{k}*y - 3*z^{2 * k} + y^{k + 5} - x", R)]
        widths = codec_widths(monkeypatch)
        for f in fs:
            assert gb.normal_form(f) == oracle_normal_form(f, gb.polys)
        assert len(widths) == len(fs) and min(widths) > gb._enc.B
        assert frozen(gb) == before

    def test_reduced_basis_independent_of_generator_order(self, order):
        R = ring(order=order)
        rng = random.Random(11)
        gens = [sparse_poly(R, rng, 4, 2) for _ in range(3)]
        want = groebner(R, gens).polys
        assert len(want) > 3
        for _ in range(4):
            rng.shuffle(gens)
            assert groebner(R, gens).polys == want
        # reduced: every non-leading term is a standard monomial
        for g in want:
            tail = R.poly(dict(g.terms[1:]))
            assert oracle_normal_form(tail, want) == tail


# --- the reducer on a dict of packed monomials, which reduced every
# coefficient on each update, kept as the oracle of groebner._Reducer


def oracle_nf_terms(terms, basis, enc, p, memo, trace, base=0):
    """_Reducer.reduce on a coefficient dict keyed by packed monomials,
    with a dict first-divisor memo, each coefficient reduced mod p whenever
    it changes, the guard bits tested on every term, and no multiple
    kept."""
    gmask = enc.gmask
    coeff: dict = {}
    heap: list = []
    for k, m, c in terms:
        if m & gmask:
            raise _Repack
        prev = coeff.get(m)
        if prev is None:
            coeff[m] = c % p
            heap.append((-k, m))
        else:
            coeff[m] = (prev + c) % p
    heapq.heapify(heap)
    n = len(basis)
    out = []
    while heap:
        negk, m = heapq.heappop(heap)
        c = coeff.pop(m, None)
        if c is None or c == 0:
            continue
        i = memo.get(m, -1)
        if i < 0 and ~i < n:
            for i in range(~i, n):
                if ((m | gmask) - basis[i][1]) & gmask == gmask:
                    break
            else:
                i = ~n
            memo[m] = i
        if i < 0:
            out.append((-negk, m, c))
            continue
        ltk, ltm, tail = basis[i]
        q = m - ltm
        qk = -negk - ltk
        if trace is not None:
            trace += (p - c, q, base + i)
        for tk, tm, tc in tail:
            mm = q + tm
            if mm & gmask:
                raise _Repack
            prev = coeff.get(mm)
            if prev is None:
                coeff[mm] = (-c * tc) % p
                heapq.heappush(heap, (-(qk + tk), mm))
            else:
                coeff[mm] = (prev - c * tc) % p
    return out


class OracleReducer:
    """_Reducer's interface over oracle_nf_terms, one memo per table."""

    def __init__(self, enc, p):
        self.enc, self.p, self.memo = enc, p, {}

    def reduce(self, terms, basis, trace=None, base=0):
        return oracle_nf_terms(terms, basis, self.enc, self.p, self.memo,
                               trace, base)


def memo_items(red) -> list:
    """The first-divisor memo of a _Reducer or an OracleReducer as sorted
    (packed monomial, index) pairs."""
    if isinstance(red, OracleReducer):
        return sorted(red.memo.items())
    return sorted((m, red.first[j]) for m, j in red.ids.items()
                  if red.first[j] != -1)


def run_bytes(R, gens):
    """The reduced basis and the trace of a fresh run, pickled."""
    gb = groebner(R, gens)
    return pickle.dumps((gb.polys, gb._enc.B, gb._trace))


def repeated_terms(gb) -> list:
    """(entry, packed shift, source) of each term of gb's trace that its
    entry holds more than once."""
    entries, terms = gb._trace
    out, at = [], 0
    for e, k in enumerate(entries[1::2]):
        part = terms[3 * at:3 * (at + k)]
        seen = Counter(zip(part[1::3], part[2::3]))
        out += [(e, q, src) for (q, src), c in seen.items() if c > 1]
        at += k
    return out


def assert_runs_as_oracle(monkeypatch, R, gens):
    """A fresh run against the oracle reducer's, basis and trace byte for
    byte, with no trace entry repeating a (shift, source) term."""
    gb = groebner(R, gens)
    assert repeated_terms(gb) == []
    got = pickle.dumps((gb.polys, gb._enc.B, gb._trace))
    with monkeypatch.context() as m:
        m.setattr(groebner_module, "_Reducer", OracleReducer)
        assert run_bytes(R, gens) == got


class TestReducerOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_graph_rows(self, monkeypatch, n, seed):
        s = gen_quadric_graph(n, Seed(seed))
        for I in (s.Z.ideal, s.I_Y):
            assert_runs_as_oracle(monkeypatch, I.ring, I.gens)

    # EI's I_Y takes 135 elements and a few seconds per run: one seed
    @pytest.mark.parametrize("make,seed", [(gen_EI_model, 0),
                                           (gen_fatpoint_model, 0),
                                           (gen_fatpoint_model, 1)])
    def test_ei_and_fat_point(self, monkeypatch, make, seed):
        s = make(Seed(seed))
        for I in (s.Z.ideal, s.I_Y):
            assert_runs_as_oracle(monkeypatch, I.ring, I.gens)

    def test_random_ideals_in_three_orders(self, monkeypatch):
        rng = random.Random(5)
        kinds = set()
        for _ in range(30):
            I = random_zero_dim(rng)
            kinds.add(I.ring.order.kind)
            assert_runs_as_oracle(monkeypatch, I.ring, I.gens)
        assert kinds == {"grevlex", "lex", "block"}

    def test_run_that_widens_its_codec(self, monkeypatch):
        # in lex the run meets z^64 and widens its fields twice
        R = ring("x,y,z", order=LEX)
        gens = parse_ideal("x - y^4, y - z^4, z - x^4", R)
        assert groebner(R, gens)._enc.B > 5
        assert_runs_as_oracle(monkeypatch, R, gens)

    def test_normal_form_that_widens_its_codec(self, monkeypatch):
        # the x^16 case of TestBasis.test_normal_form_past_the_codec, then
        # one table over x^1..x^16, x^201 and x^202 under the doubled codec,
        # as a run reduces many sums on one table: the same normal forms
        # and memo as the oracle's, and a memo naming first divisors
        R = ring("x,y")
        gb = groebner(R, parse_ideal("x*y - 1, y^2 - 1", R))
        enc = _Enc(R.nvars, R.order, 2 * gb._enc.B)
        engine = [(t[0][0], t[0][1], t[1:])
                  for t in map(enc.encode_poly, gb.polys)]
        fs = [R.monomial((k, 0)) for k in (*range(1, 17), 201, 202)]

        def reduced():
            red = groebner_module._Reducer(enc, R.p)
            nfs = [red.reduce(enc.encode_poly(f), engine) for f in fs]
            return red, pickle.dumps((gb.normal_form(fs[15]), nfs,
                                      memo_items(red)))

        red, got = reduced()
        assert_table_names_first_divisors(enc, engine, red)
        with monkeypatch.context() as m:
            m.setattr(groebner_module, "_Reducer", OracleReducer)
            assert reduced()[1] == got


def random_ideal(rng, order, p=101):
    """Three or four variables, a pure power of each and two random
    polynomials, in the given order."""
    names = ("x", "y", "z", "w")[:rng.randrange(3, 5)]
    R = PolyRing(FieldSpec(p), names, order)
    n = R.nvars
    gens = [R.monomial(tuple(rng.randrange(2, 5) * (i == v) for i in range(n)))
            for v in range(n)]
    for _ in range(2):
        gens.append(R.poly({tuple(rng.randrange(4) for _ in range(n)):
                            rng.randrange(1, p)
                            for _ in range(rng.randrange(2, 6))}))
    return R, gens


class TestDistinctTraceTerms:
    """No trace entry repeats a (shift, source) term, which lets the replay
    take its terms as they come, with no summing.  TestReducerOracle checks
    it on the runs of Z and I_Y of the graph rows, EI and the fat point."""

    def test_checker_finds_a_repeat(self):
        # entry 0 holds (shift 0, source 0) twice; entry 1 repeats nothing
        run = SimpleNamespace(_trace=([1, 3, 0, 2],
                                      [1, 0, 0, 2, 4, 1, 3, 0, 0,
                                       1, 0, 0, 1, 0, 1]))
        assert repeated_terms(run) == [(0, 0, 0)]

    @pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(2)],
                             ids=["grevlex", "lex", "block2"])
    def test_random_ideals(self, order):
        rng = random.Random(11)
        for _ in range(20):
            gb = groebner(*random_ideal(rng, order))
            assert repeated_terms(gb) == []
            # some S-pair took a reduction step beyond its two head terms
            assert max(gb._trace[0][1::2]) > 2

    # the lex run that widens its codec is TestReducerOracle's
    @pytest.mark.parametrize("text", ["x^3 - y*z^2, y^4 - z, z^5 - x*y",
                                      "x^9 - y*z, y^9 - z^2, z^9 - x"])
    def test_block_runs_that_widen_their_codec(self, text):
        R = ring(order=block_order(2))
        gens = parse_ideal(text, R)
        gb = groebner(R, gens)
        assert gb._enc.B > groebner_module._initial_bits(gens)
        assert repeated_terms(gb) == []


# Z's basis run on the graph rows at seed 0: (trace entries, zero entries,
# input-combination terms, reduction steps), the steps being the terms of
# the S-pair entries; a change that adds reductions fails here
Z_RUN_WORK = {2: (8, 2, 21, 4), 3: (16, 6, 36, 40), 4: (33, 17, 55, 203),
              5: (68, 43, 78, 868), 6: (136, 97, 105, 3714),
              7: (297, 231, 136, 15593), 8: (584, 478, 171, 55503)}


@pytest.mark.parametrize("n", sorted(Z_RUN_WORK))
def test_z_run_work_is_pinned(n):
    Z = gen_quadric_graph(n, Seed(0)).Z.ideal
    entries, terms = Z.groebner()._trace
    k = len(Z.gens)
    assert_replay_layout(Z.groebner(), k)
    combined, steps = sum(entries[1:2 * k:2]), sum(entries[2 * k + 1::2])
    assert (len(entries) // 2, entries[0::2].count(0), combined,
            steps) == Z_RUN_WORK[n]
    assert (combined + steps) * 3 == len(terms)


class TestPairBudget:
    GENS = "x^3 - 2*x*y, x^2*y - 2*y^2 + x, z^4 - x*y"

    def test_library_entry_point_aborts_then_recovers(self):
        with pytest.raises(ResourceAbort), pair_budget(5):
            q_module(gen_quadric_graph(4, Seed(1)))
        rep = q_module(gen_quadric_graph(4, Seed(1)))
        assert (rep.deg_z, rep.q, rep.mu_q) == (10, 5, 5)

    def test_restored_when_block_raises(self):
        R = ring("x,y,z")
        gens = parse_ideal(self.GENS, R)
        with pytest.raises(ResourceAbort), pair_budget(1):
            groebner(R, gens)
        assert len(groebner(R, gens)) > 0
        with pytest.raises(KeyError), pair_budget(1):
            raise KeyError("an error of the caller's own")
        assert len(groebner(R, gens)) > 0

    def test_nested_blocks_restore_the_outer_budget(self):
        R = ring("x,y,z")
        gens = parse_ideal(self.GENS, R)
        with pair_budget(1):
            with pair_budget(10_000):
                assert len(groebner(R, gens)) > 0
            with pytest.raises(ResourceAbort):
                groebner(R, gens)

    def test_cached_basis_costs_no_pairs(self):
        I = ideal(ring("x,y,z"), self.GENS)
        gb = I.groebner()
        with pair_budget(1):
            assert I.groebner() is gb


def trace_entries(gb):
    """gb.replay_trace regrouped by entry: (shifts, entries), one (adds,
    coeffs, qs, srcs) per entry with the lists of its own terms, the
    coefficients of an adding entry multiplied by its scale."""
    shifts, flat, terms = gb.replay_trace()
    p, entries, at = gb.ring.p, [], 0
    for scale, k in zip(flat[0::2], flat[1::2]):
        part = terms[3 * at:3 * (at + k)]
        coeffs = [c * scale % p if scale else c for c in part[0::3]]
        entries.append((bool(scale), coeffs, part[1::3], part[2::3]))
        at += k
    assert 3 * at == len(terms) and len(flat) % 2 == 0
    return shifts, entries


def assert_replay_layout(gb, n):
    """The layout excess._replay reads off gb's trace, n the inputs of the
    run: the n input entries come first, scale 1 then 0 and never 1 after
    0, their terms c * x^0 * input k, and every later term names an
    element, source n + t."""
    shifts, entries, terms = gb.replay_trace()
    scales = entries[0:2 * n:2]
    assert len(scales) == n and set(scales) <= {0, 1}
    assert scales == sorted(scales, reverse=True)
    m = sum(entries[1:2 * n:2])
    for c, q, k in zip(*(terms[i:3 * m:3] for i in range(3))):
        assert 0 < c < gb.ring.p and not any(shifts[q]) and 0 <= k < n
    assert all(src >= n for src in terms[3 * m + 2::3])


def replayed(gb, gens):
    """The cofactors of the sums gb.replay_trace says reached zero, replayed
    on the unit vectors of the generators gb was built from and kept as
    tuples of polynomials: exact syzygies in R."""
    R, n = gb.ring, len(gens)
    vals = [tuple(R.one() if i == k else R.zero() for i in range(n))
            for k in range(n)]
    shifts, entries = trace_entries(gb)
    out = []
    for adds, coeffs, qs, srcs in entries:
        total = [R.zero()] * n
        for c, q, src in zip(coeffs, qs, srcs):
            m = R.monomial(shifts[q], c)
            total = [a + m * b for a, b in zip(total, vals[src])]
        (vals if adds else out).append(tuple(total))
    return out


def assert_exact(R, gens, found):
    assert found
    for s in found:
        assert len(s) == len(gens)
        total = R.zero()
        for sk, gk in zip(s, gens):
            total = total + sk * gk
        assert total.is_zero()


class TestSyzygies:
    @pytest.mark.parametrize("ftext,htext", [
        ("x^2, x*y, y^2", ""),
        ("x*y, y*z, x*z", "z, x + y - 1"),
        ("x^2 - x, y^2, x*y, z", "z"),
        # the cofactors of this run outgrow the generators' field width
        ("x^7*y^3 + x*y^2, x*y^8", ""),
    ])
    def test_entries_are_syzygies(self, ftext, htext):
        # sum s_k g_k = 0 in R for every replayed cofactor s
        R = ring("x,y,z")
        gens = parse_ideal(ftext, R) + (parse_ideal(htext, R) if htext else [])
        assert_exact(R, gens, replayed(groebner(R, gens), gens))

    def test_duplicate_input_gives_a_syzygy(self):
        # z is given twice; the second copy row-reduces to zero, a zero
        # entry that leaves e_3 - e_4 as the syzygy z - z = 0
        R = ring("x,y,z")
        gens = parse_ideal("x^2 - x, y^2, x*y, z, z", R)
        found = replayed(groebner(R, gens), gens)
        assert_exact(R, gens, found)
        zero = R.zero()
        assert any(s[:3] == (zero,) * 3 and s[3].degree() == 0
                   and s[4] == -s[3] for s in found)

    def test_replay_after_the_codec_widens(self):
        # a normal form past the basis codec reduces under a wider codec of
        # its own; the basis keeps its codec, and the trace the shifts
        # packed by it
        R = ring("x,y,z")
        gens = parse_ideal("x*y - z^2, y*z - x^2, x*z - y^2, x^3 - y*z^2", R)
        gb = groebner(R, gens)
        before = pickle.dumps((gb._enc.B, gb._engine, gb.replay_trace()))
        f = R.monomial((0, 0, 200))
        assert gb.normal_form(f) == oracle_normal_form(f, gb.polys)
        assert pickle.dumps((gb._enc.B, gb._engine,
                             gb.replay_trace())) == before
        assert_exact(R, gens, replayed(gb, gens))


# --- the ideal-quotient route Ideal.saturate replaced, kept as its oracle


def poly_divmod(f, g):
    """Quotient and remainder of f by a single nonzero g (lt cancellation)."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    p = ring.p
    ltm = g.leading_monomial()
    inv = pow(g.leading_coeff(), p - 2, p)
    q, r = {}, {}
    work = dict(f.terms)
    while work:
        m = max(work, key=ring.order.key)
        c = work.pop(m)
        if c == 0:
            continue
        if mono_divides(ltm, m):
            u = mono_div(m, ltm)
            cu = c * inv % p
            q[u] = (q.get(u, 0) + cu) % p
            for tm, tc in g.terms[1:]:
                mm = mono_mul(u, tm)
                work[mm] = (work.get(mm, 0) - cu * tc) % p
        else:
            r[m] = c
    return ring.poly(q), ring.poly(r)


def exact_div(f, g):
    q, r = poly_divmod(f, g)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def quotient(I, other):
    """Ideal quotient I : J, J an Ideal or a Polynomial: I : g is
    (I cap (g)) / g, and I : J the intersection over the generators."""
    if isinstance(other, Polynomial):
        if other.is_zero():
            raise ZeroDivisionError("quotient by the zero polynomial")
        meet = I.intersect(Ideal(I.ring, [other]))
        return Ideal(I.ring, [exact_div(h, other)
                              for h in meet.groebner().polys])
    out = None
    for g in other.gens:
        part = quotient(I, g)
        out = part if out is None else out.intersect(part)
    if out is None:
        raise ValueError("quotient by the zero ideal")
    return out


def loop_saturate(I, J):
    """(I : J^infty, steps): I : J iterated until it stops growing."""
    if isinstance(J, Polynomial):
        J = Ideal(I.ring, [J])
    cur, steps = I, 0
    while True:
        nxt = quotient(cur, J)
        if nxt.groebner().polys == cur.groebner().polys:
            return cur, steps
        cur, steps = nxt, steps + 1


def assert_saturates_like_the_loop(I, J):
    """Ideal.saturate gives the loop's reduced basis, and steps 0 exactly
    when the ideal is unchanged; returns the saturation."""
    sat, steps = I.saturate(J)
    want = loop_saturate(I, J)[0].groebner().polys
    assert sat.groebner().polys == want
    assert steps == int(want != I.groebner().polys)
    return sat


class TestIdealOps:
    def test_intersection_hand(self):
        R = ring("x,y")
        I = ideal(R, "x^2, x*y")
        J = ideal(R, "y")
        meet = I.intersect(J)
        assert meet.groebner().polys == tuple(parse_ideal("x*y", R))

    def test_intersection_double_inclusion_random(self):
        R = ring("x,y,z", p=101)
        rng = random.Random(31)
        for _ in range(6):
            I = Ideal(R, [random_poly(R, 2, rng), random_poly(R, 1, rng)])
            J = Ideal(R, [random_poly(R, 2, rng)])
            meet = I.intersect(J)
            for h in meet.gens:
                assert I.contains(h) and J.contains(h)
            # product lies inside the intersection
            assert all(meet.contains(h) for h in (I * J).gens)

    @pytest.mark.parametrize("order", [LEX, block_order(1)],
                             ids=["lex", "block1"])
    def test_intersection_terms_sorted(self, order):
        # the tag-variable ring orders terms its own way; every generator
        # handed back must be sorted in the ring's order
        R = ring("x,y,z", p=101, order=order)
        meet = ideal(R, "x - y^2, z").intersect(ideal(R, "x^2 + y, z - x"))
        assert len(meet.gens) == 4
        # eliminate works in a ring with the doomed variable moved first
        kept = ideal(R, "z - x*y, y^2 - x, x^3 + z").eliminate(["y"])
        assert kept
        for g in meet.gens + tuple(kept):
            assert g == R.poly(dict(g.terms))

    def test_quotient_hand(self):
        R = ring("x,y")
        I = ideal(R, "x^2, x*y")
        q = quotient(I, parse_polynomial("x", R))
        assert q.groebner().polys == tuple(parse_ideal("y, x", R)) or set(map(str, q.groebner().polys)) == {"x", "y"}

    def test_quotient_by_ideal(self):
        R = ring("x,y")
        I = ideal(R, "x*y")
        q = quotient(I, ideal(R, "y"))
        assert [str(g) for g in q.groebner().polys] == ["x"]

    def test_saturate(self):
        R = ring("x,y")
        I = ideal(R, "x^2*y, x*y^2")
        sat, steps = I.saturate(parse_polynomial("x", R))
        assert [str(g) for g in sat.groebner().polys] == ["y"]
        assert steps == 1

    def test_saturate_already_saturated(self):
        R = ring("x,y")
        I = ideal(R, "y")
        sat, steps = I.saturate(parse_polynomial("x", R))
        assert steps == 0
        assert sat.equals(I)

    def test_eliminate_hand(self):
        R = ring("t,x,y")
        I = ideal(R, "t*x - 1, y - t")
        out = I.eliminate(["t"])
        assert [str(g) for g in out] == ["x*y + 32002"]

    def test_eliminate_keeps_containment(self):
        R = ring("a,b,x,y", p=101)
        # image of the map (a, b) -> (a^2, a*b): relations live in x, y only
        I = ideal(R, "x - a^2, y - a*b")
        out = I.eliminate(["a", "b"])
        for g in out:
            assert I.contains(g)
            assert all(m[0] == 0 and m[1] == 0 for m, _ in g.terms)

    def test_power(self):
        R = ring("x,y")
        I = ideal(R, "x, y")
        sq = I.power(2)
        assert set(map(str, sq.groebner().polys)) == {"x^2", "x*y", "y^2"}

    def test_exact_division(self):
        R = ring("x,y")
        f = parse_polynomial("x^2*y + x*y", R)
        g = parse_polynomial("x*y", R)
        assert str(exact_div(f, g)) == "x + 1"
        q, r = poly_divmod(parse_polynomial("x^2 + y", R), parse_polynomial("x", R))
        assert str(q) == "x" and str(r) == "y"
        with pytest.raises(ValueError):
            exact_div(parse_polynomial("x + 1", R), g)


def irrelevant(R):
    return Ideal(R, [R.var(i) for i in range(R.nvars)])


# the ideal and the saturating ideal of each TestIdealOps hand case
HAND_CASES = [
    ("x^2, x*y", "y"),
    ("x^2, x*y", "x"),
    ("x*y", "y"),
    ("x^2*y, x*y^2", "x"),
    ("y", "x"),
    ("x^2, x*y", "x, y"),
]

# homogeneous ideals of points in P^2: the TestRegularity inputs of
# test_zerodim.py, the curve it rejects included
REGULARITY_CASES = [
    "x, y",
    "y, x*(x - z)*(x - 2*z)",
    "x^2 - y*z, y^2 - x*z",
    "x^2, x*y, x*z, y^2, y*z",
    "x",
]

# inputs in P^3: a point times the irrelevant ideal, the twisted cubic, x
# times the twisted cubic, three coordinate points plus w^3
P3_CASES = [
    "x^2, x*y, x*z, x*w, y^2, y*z, y*w, z^2, z*w",
    "x*z - y^2, x*w - y*z, y*w - z^2",
    "x^2*z - x*y^2, x^2*w - x*y*z, x*y*w - x*z^2",
    "x*y, x*z, y*z, w^3",
]


class TestSaturation:
    """Ideal.saturate, one tag elimination per generator, against the
    quotient loop it replaced."""

    @pytest.mark.parametrize("itext,jtext", HAND_CASES)
    def test_hand_cases(self, itext, jtext):
        R = ring("x,y")
        assert_saturates_like_the_loop(ideal(R, itext), ideal(R, jtext))

    def test_random_over_f101(self):
        R = ring("x,y,z", p=101)
        rng = random.Random(7)
        moved = 0
        for _ in range(5):
            A = Ideal(R, [random_poly(R, 2, rng), random_poly(R, 1, rng)])
            g, h = random_poly(R, 1, rng), random_poly(R, 2, rng)
            for I in (A, A * Ideal(R, [g * g]), A * Ideal(R, [g, h])):
                for J in (g, Ideal(R, [g, h])):
                    sat = assert_saturates_like_the_loop(I, J)
                    moved += sat is not I
        assert moved

    @pytest.mark.parametrize("text", REGULARITY_CASES)
    def test_regularity_inputs(self, text):
        R = ring("x,y,z")
        I = ideal(R, text)
        sat = assert_saturates_like_the_loop(I, irrelevant(R))
        want = hilbert_data(loop_saturate(I, irrelevant(R))[0])
        assert hilbert_data(sat) == want

    @pytest.mark.parametrize("text", P3_CASES)
    def test_p3_inputs(self, text):
        R = ring("x,y,z,w")
        assert_saturates_like_the_loop(ideal(R, text), irrelevant(R))

    def test_steps_flag_change(self):
        R = ring("x,y")
        I = ideal(R, "x*y")
        sat, steps = I.saturate(ideal(R, "x"))
        assert (steps, [str(f) for f in sat.groebner().polys]) == (1, ["y"])
        same, steps = sat.saturate(ideal(R, "x"))
        assert same is sat and steps == 0

    def test_unit_leaves_the_ideal(self):
        R = ring("x,y")
        I = ideal(R, "x^2, x*y")
        for J in (ideal(R, "3"), ideal(R, "x, 1"), R.poly({(0, 0): 5})):
            sat, steps = I.saturate(J)
            assert sat is I and steps == 0

    def test_zero_raises(self):
        R = ring("x,y")
        I = ideal(R, "x*y")
        for J in (R.poly({}), Ideal(R, []), Ideal(R, [R.poly({})])):
            with pytest.raises(ValueError):
                I.saturate(J)


class TestDimension:
    def test_krull_dims(self):
        R = ring("x,y,z")
        assert ideal(R, "x").krull_dim() == 2
        assert ideal(R, "x*y").krull_dim() == 2
        assert ideal(R, "x, y").krull_dim() == 1
        assert ideal(R, "x, y, z").krull_dim() == 0
        assert ideal(R, "x, x + 1").krull_dim() == -1
        assert Ideal(R, []).krull_dim() == 3

    def test_zero_dimensional(self):
        R = ring("x,y")
        assert ideal(R, "x^2, y^3").is_zero_dimensional()
        assert ideal(R, "x^2 - y, y^2 - 1").is_zero_dimensional()
        assert not ideal(R, "x^2, x*y").is_zero_dimensional()

    def test_dim_of_quadric_surface(self):
        R = ring("x,y,z")
        assert ideal(R, "x*z - y^2").krull_dim() == 2

    @pytest.mark.parametrize("case", [
        "graph3", "graph4", "ei_Y", "axes", "fatpoint_Y",
        # witness matrices of rank g that are no permutation of a diagonal
        "x^2 - a, y - a", "x*a - b, y - b", "x + y - a^2, x - y - b^2",
    ])
    def test_witness_dim_matches_basis(self, case):
        if "," in case:
            I = ideal(ring("x,y,a,b"), case)
        elif case == "ei_Y":
            I = gen_EI_model(Seed(0)).I_Y
        elif case == "fatpoint_Y":
            I = gen_fatpoint_model(Seed(0)).I_Y
        else:
            s = gen_quadric_graph(4 if case == "graph4" else 3, Seed(0))
            I = s.I_Y if case == "axes" else s.I_X
        assert _linear_witnesses(I.gens, I.ring.p)
        fresh = Ideal(I.ring, I.gens)
        assert fresh.krull_dim() == basis_dim(I) == I.ring.nvars - len(I.gens)
        assert fresh._gb is None  # the certificate built no basis

    @pytest.mark.parametrize("text,dim", [
        ("x - a^2, x - b^2", 2),  # x shared, the witness matrix has rank 1
        ("x - a^2, x - a^2", 3),  # a duplicated generator
        ("x + y - a^2, x + y - b^2", 2),  # two witnesses, rank 1
        ("x - a^2, y + x^2 - b^2", 2),  # x also occurs squared
    ])
    def test_near_misses_take_the_basis_route(self, text, dim):
        I = ideal(ring("x,y,a,b"), text)
        assert not _linear_witnesses(I.gens, I.ring.p)
        assert I.krull_dim() == basis_dim(I) == dim
        assert I._gb is not None


class TestHilbert:
    def test_hand_numerator(self):
        R = ring("x,y")
        hd = hilbert_data(ideal(R, "x^2, x*y"))
        assert hd.numerator == (1, 0, -2, 1)
        assert hd.krull_dim == 1
        assert hd.degree == 1
        assert [hd.hf(d) for d in range(5)] == [1, 2, 1, 1, 1]

    def test_complete_intersection_degree(self):
        # two coprime quadrics in P^2 cut out 4 points
        R = ring("x,y,z")
        hd = hilbert_data(ideal(R, "x^2 - y*z, y^2 - x*z"))
        assert hd.krull_dim == 1
        assert hd.degree == 4
        assert [hd.hf(d) for d in range(5)] == [1, 3, 4, 4, 4]

    def test_pure_powers_product_formula(self):
        R = ring("x,y,z")
        hd = hilbert_data(ideal(R, "x^2, y^3, z^4"))
        assert hd.krull_dim == 0
        # dim_k of the quotient = 2 * 3 * 4
        assert sum(hd.hf(d) for d in range(20)) == 24

    def test_rejects_inhomogeneous(self):
        R = ring("x,y")
        with pytest.raises(ValueError):
            hilbert_data(ideal(R, "x^2 - y"))

    def test_irrelevant_ideal(self):
        R = ring("x,y")
        hd = hilbert_data(ideal(R, "x, y"))
        assert hd.krull_dim == 0
        assert hd.degree == 1


def counted_numerator(gens, nvars: int, top: int) -> list:
    """Coefficients of t^0..t^top of (1 - t)^nvars * sum_d h(d) t^d, with
    h(d) the number of monomials of degree d that no generator divides."""
    series = [0] * (top + 1)
    for d in range(top + 1):
        for pick in combinations_with_replacement(range(nvars), d):
            mono = tuple(pick.count(v) for v in range(nvars))
            series[d] += not any(mono_divides(g, mono) for g in gens)
    for _ in range(nvars):
        series = [series[0]] + [b - a for a, b in zip(series, series[1:])]
    return series


def random_monomial_ideals(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(nvars))
                for _ in range(rng.randint(1, 6))]
        yield gens, nvars


@pytest.mark.parametrize("gens,nvars", [
    ([(0, 0, 0)], 3),                    # the unit ideal
    ([], 3),                             # the zero ideal
    ([], 0),
    ([()], 0),
    ([(2, 0, 0), (0, 3, 0), (0, 0, 4)], 3),  # pure powers
    ([(5,)], 1),
    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3),  # a cycle: every pair shares
    ([(2, 0), (2, 0), (3, 1)], 2),      # repeated and redundant generators
    *random_monomial_ideals(150, 11),
])
def test_numerator_counts_standard_monomials(gens, nvars):
    # the lcm of all generators bounds the numerator's degree (the Taylor
    # resolution), so past it the truncated product is the numerator
    top = sum(max((g[i] for g in gens), default=0) for i in range(nvars))
    num = groebner_module._hilbert_numerator(gens, nvars)
    assert len(num) <= top + 1
    assert num + [0] * (top + 1 - len(num)) == counted_numerator(
        gens, nvars, top)
