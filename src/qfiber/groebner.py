"""Groebner bases over F_p and the ideal calculus built on them.

The engine packs exponent vectors into single python integers, one bit field
per variable with a guard bit on top, so divisibility, quotients and lcm are
a few integer operations.  Monomial order keys are additive integers: the
key of a product is the sum of keys, which lets normal-form reduction shift
whole polynomials by pure adds.  Field overflow trips a guard bit and the
computation restarts with wider fields.

Pair handling is Buchberger with the Gebauer-Moller update and sugar-first
selection, on the inputs in reduced row echelon form over F_p, so no input
holds a monomial that leads another.  An S-pair's normal form starts from
the two shifted tails, since the monic leading terms cancel.  Reduced
bases are unique, monic, and sorted by leading term, so ideal equality is
tuple equality.

Normal forms run on small int monomial ids (_Reducer).  The pair loop and
the interreduction keep one table each, as does each normal form, which
numbers the monomials met and holds per id its pending coefficient, its
first-divisor memo and the multiple x^q * tail(g_i) that popping it
subtracts, built once, since reducer multiples recur across S-pairs as in
F4 (Faugere, JPAA 139, 1999).  The memo is the reducer index Singular
keeps (Greuel-Pfister, A Singular Introduction to Commutative Algebra):
the first basis entry, in list order, whose leading term divides the
monomial, or ~n when none of the first n entries does, so a later lookup
scans only the entries appended since.  A multiple keyed by the popped
monomial stays right because its first divisor never changes while the
basis only grows at the end with fixed elements: in the pair loop this
always holds; in the interreduction every reducer of an element's tail
precedes it in the minimal basis, so its tail is already final; a normal
form reduces against a final basis.  The reducer and the steps are those
a linear scan and a dict of pending terms would take, so bases and
traces do not depend on the table.

Every run keeps its trace, the multiples c * x^q of inputs and earlier
elements that each row-reduced input and S-pair summed (Traverso's
Groebner trace, ISSAC 1988), on two flat lists: a scale and a term count
per entry, and a coefficient, packed shift and source per term, with no
term repeated within an entry; an input's entry lists the inputs its row
combines, at shift 0.  GroebnerBasis.replay_trace numbers and unpacks its
distinct shifts, the one reader of the packed trace, for a caller to
replay on cofactors of its own, spending no S-pairs; by Schreyer's
theorem the sums that reached zero generate the syzygies modulo the ideal
(Eisenbud, Commutative Algebra, Thm 15.10; the Gebauer-Moller criteria
keep a generating set).  The row reduction keeps this exact: with T the
invertible matrix of the elimination, Syz(F) is spanned by the constant
dependencies of F, the rows of T that reach zero, and Syz(T * F) pulled
back through T.

A zero-dimensional basis also gives its quotient algebra on packed
monomials: one walk, memoised on the basis, finds them with the reducer's
guard-bit divisibility test, and border_plan orders the border monomials
x_w * m of the variables that generate the quotient so that each column
of their multiplication matrices is minus a tail of the basis or an
action on a column built before it, with no normal form.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import comb
from operator import mul

from .algebra import (
    GREVLEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    block_order,
    mono_deg,
    mono_divides,
)

# S-pair budget of each basis run: the library default, which the command
# line's --max-pairs shares, and the budget in the current context, which
# pair_budget sets
DEFAULT_PAIR_BUDGET = 1_000_000
_PAIR_BUDGET: ContextVar[int] = ContextVar("pair_budget",
                                           default=DEFAULT_PAIR_BUDGET)


@contextmanager
def pair_budget(n: int):
    """Cap every Groebner basis run inside the block at n S-pairs.

    A run that needs more raises ResourceAbort.  The budget holds for each
    run separately, whatever the entry point, and the previous budget comes
    back when the block exits, also when it raises.  A basis an Ideal has
    already cached costs no pairs and is returned as it is.
    """
    token = _PAIR_BUDGET.set(n)
    try:
        yield
    finally:
        _PAIR_BUDGET.reset(token)


class ResourceAbort(RuntimeError):
    """The pair budget ran out before the basis stabilized."""

    def __init__(self, pairs_done: int, basis_size: int, max_pairs: int):
        super().__init__(
            f"groebner run aborted after {pairs_done} S-pairs "
            f"(budget {max_pairs}, partial basis size {basis_size})"
        )
        self.pairs_done = pairs_done
        self.basis_size = basis_size
        self.max_pairs = max_pairs


class _Repack(Exception):
    """Internal: an exponent field overflowed, re-encode with wider fields."""


class _Enc:
    """Packed-monomial codec for a fixed ring and field width.

    An order key is linear in the exponents, sum e_i * _weights[i], so a
    product's key is the sum of its factors'.  grevlex on exponents lo..hi-1
    is the degree past hi - lo fields minus the reversed packing; lex is the
    packing; block(k) puts grevlex on the first k above that on the rest.
    """

    __slots__ = ("n", "B", "order", "pmax", "gmask", "_shifts", "_weights")

    def __init__(self, nvars: int, order: MonomialOrder, bits: int):
        self.n = nvars
        self.B = bits
        self.order = order
        self.pmax = (1 << (bits - 1)) - 1
        self.gmask = 0
        for i in range(nvars):
            self.gmask |= 1 << ((i + 1) * bits - 1)
        # variable i sits at shift (n-1-i)*B: leading variables most significant
        self._shifts = tuple((nvars - 1 - i) * bits for i in range(nvars))

        def grevlex(lo: int, hi: int) -> list:
            return [(1 << (hi - lo) * bits) - (1 << (i - lo) * bits)
                    for i in range(lo, hi)]

        if order.kind == "lex":
            self._weights = tuple(1 << s for s in self._shifts)
        elif order.kind == "grevlex":
            self._weights = tuple(grevlex(0, nvars))
        else:
            k = order.split
            tail = (nvars - k) * bits + bits + nvars.bit_length() + 1
            self._weights = tuple([w << tail for w in grevlex(0, k)]
                                  + grevlex(k, nvars))

    def pack(self, e) -> int:
        m = 0
        pmax = self.pmax
        for v, s in zip(e, self._shifts):
            if v > pmax:
                raise _Repack
            m |= v << s
        return m

    def unpack(self, m: int):
        B, mask = self.B, (1 << self.B) - 1
        out = [0] * self.n
        for i, s in enumerate(self._shifts):
            out[i] = (m >> s) & mask
        return tuple(out)

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.gmask) - a) & self.gmask == self.gmask

    def key_of_tuple(self, e) -> int:
        return sum(map(mul, e, self._weights))

    def key(self, m: int) -> int:
        return self.key_of_tuple(self.unpack(m))

    def encode_poly(self, f: Polynomial):
        """Polynomial -> list of (key, packed, coeff), descending by key."""
        out = [(self.key_of_tuple(m), self.pack(m), c) for m, c in f.terms]
        out.sort(reverse=True)
        return out

    def decode_poly(self, terms, ring: PolyRing) -> Polynomial:
        return Polynomial(ring, tuple((self.unpack(m), c) for _, m, c in terms))


def _initial_bits(gens) -> int:
    maxe = 1
    for f in gens:
        for m, _ in f.terms:
            for e in m:
                if e > maxe:
                    maxe = e
    return max(5, (2 * maxe + 2).bit_length() + 1)


# a heap entry is (-key << _ID_BITS) | id: the largest key pops first.  An
# id holds over a hundred bytes of table, so 2^32 of them cannot fit.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


class _Reducer:
    """Full normal forms against monic engine polynomials, on monomial ids,
    with one table for a run or a normal form (module docstring).

    basis entries are (ltkey, ltpacked, tail) with tail the non-leading
    terms, and may only be appended to.  Per id the table holds the packed
    monomial (mono), the heap entry (ent), the pending coefficient, an
    unreduced sum reduced once when the id is popped, or None when it is
    not queued (pend), the first-divisor memo, -1 until set (first), and
    the multiple popping it subtracts, built on its first such pop (mult).
    The guard bits are tested when a monomial gets its id: one past its
    field carries a guard bit, so it equals no monomial numbered before.
    """

    __slots__ = ("enc", "p", "ids", "mono", "ent", "pend", "first", "mult")

    def __init__(self, enc: _Enc, p: int):
        self.enc, self.p = enc, p
        self.ids = {}
        self.mono, self.ent, self.pend, self.first, self.mult = \
            [], [], [], [], []

    def _numbered(self, terms) -> list:
        """(id, coeff) of each (key, packed, coeff), numbering the
        monomials the table lacks."""
        ids, gmask = self.ids, self.enc.gmask
        out = []
        for k, m, c in terms:
            j = ids.get(m)
            if j is None:
                if m & gmask:
                    raise _Repack
                j = ids[m] = len(self.mono)
                self.mono.append(m)
                self.ent.append((-k << _ID_BITS) | j)
                self.pend.append(None)
                self.first.append(-1)  # -1 == ~0: no entry checked yet
                self.mult.append(None)
            out.append((j, c))
        return out

    def reduce(self, terms, basis, trace=None, base: int = 0) -> list:
        """Normal form of a list of (key, packed, coeff), which may repeat
        a monomial as two shifted tails do, as a list of (key, packed,
        coeff) descending by key.

        trace is None or a flat list that receives, per step subtracting
        c * x^q * basis[i], the three items p - c, q (packed) and base + i,
        so the normal form is terms plus the sum of those multiples.
        """
        p, gmask = self.p, self.enc.gmask
        mono, ent, pend, first, mult = (self.mono, self.ent, self.pend,
                                        self.first, self.mult)
        heap: list = []
        for j, c in self._numbered(terms):
            prev = pend[j]
            if prev is None:
                heap.append(ent[j])
                pend[j] = c
            else:
                pend[j] = prev + c
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        n = len(basis)
        out = []
        while heap:
            e = pop(heap)
            j = e & _ID_MASK
            c = pend[j] % p
            pend[j] = None
            if not c:
                continue
            i = first[j]
            if i < 0 and ~i < n:
                m = mono[j]
                for i in range(~i, n):
                    if ((m | gmask) - basis[i][1]) & gmask == gmask:
                        break
                else:
                    i = ~n
                first[j] = i
            if i < 0:
                out.append((-(e >> _ID_BITS), mono[j], c))
                continue
            ltk, ltm, tail = basis[i]
            ms = mult[j]
            if ms is None:
                # x^q * tail, q = m - lt; a key is the sum of its factors'
                q, qk = mono[j] - ltm, -(e >> _ID_BITS) - ltk
                ms = mult[j] = self._numbered([(qk + tk, q + tm, tc)
                                               for tk, tm, tc in tail])
            c = p - c
            if trace is not None:
                trace += (c, mono[j] - ltm, base + i)
            for jj, tc in ms:
                prev = pend[jj]
                if prev is None:
                    push(heap, ent[jj])
                    pend[jj] = c * tc
                else:
                    pend[jj] = prev + c * tc
        return out


def _axpy(row: dict, comb: dict, c: int, src: tuple, p: int):
    """row += c * src[0] and comb += c * src[1] in place, mod p, dropping
    the entries that vanish."""
    for part, add in zip((row, comb), src):
        for m, v in add.items():
            v = (part.get(m, 0) + c * v) % p
            if v:
                part[m] = v
            else:
                del part[m]


def _row_reduce(inputs, p: int) -> list:
    """The inputs' coefficient vectors on packed monomials, by descending
    key, in reduced row echelon form over F_p, each row with the
    combination of inputs it is.

    Returns (terms, comb) pairs: the nonzero rows, monic, as lists of
    (key, packed, coeff) descending by key, in ascending order of leading
    key, then the combinations that vanish, with terms [].  comb lists
    (k, c), k ascending, for c times input k.  Gauss-Jordan on python ints,
    one input at a time: an input is reduced by the rows so far, and a row
    it leaves clears its leading monomial from them.
    """
    keys = {m: k for terms in inputs for k, m, _ in terms}
    rows: dict = {}    # leading monomial -> (row, comb), both dicts
    zeros = []
    for k, terms in enumerate(inputs):
        row, comb = {m: c for _, m, c in terms}, {k: 1}
        for m, src in rows.items():
            if m in row:
                _axpy(row, comb, p - row[m], src, p)
        if not row:
            zeros.append(comb)
            continue
        lead = max(row, key=keys.__getitem__)
        inv = pow(row[lead], p - 2, p)
        src = ({m: c * inv % p for m, c in row.items()},
               {j: c * inv % p for j, c in comb.items()})
        for other, ocomb in rows.values():
            if lead in other:
                _axpy(other, ocomb, p - other[lead], src, p)
        rows[lead] = src
    out = [(sorted(((keys[m], m, c) for m, c in row.items()), reverse=True),
            sorted(comb.items())) for row, comb in rows.values()]
    out.sort(key=lambda rc: rc[0][0][0])
    return out + [([], sorted(comb.items())) for comb in zeros]


def _buchberger(enc: _Enc, inputs, p: int, max_pairs: int):
    """Reduced Groebner basis of the encoded inputs, and the trace of the
    run as two flat lists (entries, terms); raises ResourceAbort.

    The inputs are row-reduced first (_row_reduce).  The trace has one
    entry per input and per S-pair, in run order: entries holds its scale
    and its term count, terms its terms, entry by entry, three items
    each.  A term c, q, src stands for c * x^q times source src, q packed:
    sources 0..n-1 are the n inputs, source n + t the t-th element added.
    An entry with nonzero scale adds the element scale * (sum of its
    terms).  A zero scale marks a sum that reached zero: a linear
    dependency among the inputs, a zero S-polynomial, a pair reducing to
    zero.  The n input entries come first: the rows of the reduced row
    echelon form, scale 1, in ascending order of leading key, then the
    combinations that vanish, each listing the inputs it combines as
    terms c, 0, k.  Coprime pairs and pairs the Gebauer-Moller update
    drops leave no entry; their syzygies have entries in the ideal or
    follow from the others.

    No entry repeats a (q, src) pair, so its terms need no summing.  An
    input entry has distinct sources.  A pair (i, j) with lcm L has the
    head terms x^(L - lt(i)) times i and x^(L - lt(j)) times j, then one
    term x^q times t per reduction step, which popped m = x^q * lt(t).  A
    step pushes only monomials below the one it popped and the heap pops
    the largest first, so no monomial is popped twice and the steps'
    (q, t) are distinct; every m lies below L, so none is a head term.
    """
    lts: list = []     # (ltkey, ltpacked, tail) of each element, monic
    lms: list = []     # ltpacked of each element
    exps: list = []    # exponent tuple of each element's leading term
    sugars: list = []  # sugar minus leading degree of each element
    pairs: dict = {}   # (i, j) -> lcmpacked of the open pairs
    heap: list = []
    red = _Reducer(enc, p)  # over lts, which only grows
    entries: list = []
    trace_terms: list = []
    n = len(inputs)
    gmask, top, weights = enc.gmask, enc.B - 1, enc._weights

    def add_element(terms, sugar):
        t = len(lts)
        ltk, ltm, _ = terms[0]
        # lcm(lt(i), lt(t)) of each element i: the guard bits of
        # (ltm | gmask) - lt(i) mark the fields where lt(t) is at least
        # lt(i); each becomes the mask of its field, taken from lt(t)
        ltmg = ltm | gmask
        lcms = []
        for a in lms:
            g = (ltmg - a) & gmask
            g -= g >> top
            lcms.append(ltm & g | a & ~g)
        # Gebauer-Moller update: drop the old pairs (i, j) whose lcm lt(t)
        # divides unless it is that of (i, t) or (j, t); a divides b when
        # ((b | gmask) - a) & gmask == gmask
        for ij in [ij for ij, L in pairs.items()
                   if ((L | gmask) - ltm) & gmask == gmask
                   and lcms[ij[0]] != L and lcms[ij[1]] != L]:
            del pairs[ij]
        # the new pairs (i, t) whose lcm no other new lcm divides properly,
        # the first of those sharing an lcm, and none whose lcm a coprime
        # pair has: a pair is coprime when its lcm is the product of its
        # leading terms, and needs no S-polynomial.  A proper divisor is
        # numerically smaller, so the minimal lcms come out of one
        # ascending pass, each tried against those found before it.
        first: dict = {}
        coprime = set()
        for i, L in enumerate(lcms):
            first.setdefault(L, i)
            if L == lms[i] + ltm:
                coprime.add(L)
        minimal: list = []
        for L in sorted(first):
            Lg = L | gmask
            for L2 in minimal:
                if (Lg - L2) & gmask == gmask:
                    break
            else:
                minimal.append(L)
        et = enc.unpack(ltm)
        dt = sum(et)
        lts.append((ltk, ltm, terms[1:]))
        lms.append(ltm)
        exps.append(et)
        sugars.append(sugar - dt)
        for i in sorted((first[L] for L in minimal if L not in coprime),
                        reverse=True):
            # the lcm's exponents are the larger of the two leading terms'
            e = tuple(map(max, exps[i], et))
            Lk = sum(map(mul, e, weights))
            sug = max(sugars[i], sugar - dt) + sum(e)
            pairs[(i, t)] = lcms[i]
            heapq.heappush(heap, (sug, Lk, i, t))

    for terms, comb in _row_reduce(inputs, p):
        entries += (1 if terms else 0, len(comb))
        for k, c in comb:
            trace_terms += (c, 0, k)
        if terms:
            add_element(terms, max(sum(enc.unpack(m)) for _, m, _ in terms))

    done = 0
    while heap:
        sug, Lk, i, j = heapq.heappop(heap)
        L = pairs.pop((i, j), None)
        if L is None:
            continue
        done += 1
        if done > max_pairs:
            raise ResourceAbort(done, len(lts), max_pairs)
        # the monic leading terms cancel: the S-polynomial is the shifted
        # tail of i minus that of j
        (ik, im, itail), (jk, jm, jtail) = lts[i], lts[j]
        s = [(Lk - ik + tk, L - im + tm, tc) for tk, tm, tc in itail]
        s += [(Lk - jk + tk, L - jm + tm, -tc) for tk, tm, tc in jtail]
        at = len(trace_terms)
        trace_terms += (1, L - im, n + i, p - 1, L - jm, n + j)
        h = red.reduce(s, lts, trace_terms, n)
        # scaled like the monic element h becomes
        inv = pow(h[0][2], p - 2, p) if h else 0
        entries += (inv, (len(trace_terms) - at) // 3)
        if h:
            add_element([(k, m, c * inv % p) for k, m, c in h], sug)

    # minimalize: keep only elements whose lt no other kept lt divides
    order = sorted(range(len(lts)), key=lambda t: lts[t][0])
    keep: list = []
    for t in order:
        if not any(enc.divides(lts[s][1], lts[t][1]) for s in keep):
            keep.append(t)
    # interreduce: reduce each tail against the whole minimal basis.  Every
    # term met lies below the element's own leading term, which therefore
    # divides none of them, so this is reduction against the others.
    view = [lts[t] for t in keep]
    red = _Reducer(enc, p)
    for idx, (ltk, ltm, tail) in enumerate(view):
        view[idx] = (ltk, ltm, red.reduce(tail, view))
    return ([[(ltk, ltm, 1)] + tail for ltk, ltm, tail in view],
            (entries, trace_terms))


class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, sorted by leading term.

    _engine is the basis under the codec _enc and _trace is (entries,
    terms) of the run that built it (_buchberger), its shifts packed by
    _enc.  The basis is frozen when its run ends: after __init__ only the
    _walk memo is written.
    """

    __slots__ = ("ring", "polys", "_enc", "_engine", "_walked", "_trace")

    def __init__(self, ring: PolyRing, polys: tuple, enc: _Enc, engine: list,
                 trace: tuple):
        self.ring = ring
        self.polys = polys
        self._enc = enc
        self._engine = engine
        self._walked = None    # _walk's answer
        self._trace = trace

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.polys)

    def is_trivial(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].degree() == 0

    def normal_form(self, f: Polynomial) -> Polynomial:
        """f reduced by the basis on a table of its own.  When f or a
        reduction overflows the exponent fields of the codec, it reduces
        again under one twice as wide, with the basis encoded for this call
        only, as _run widens a run."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not f.terms or not self.polys:
            return f
        enc, engine = self._enc, self._engine
        while True:
            try:
                terms = enc.encode_poly(f)
                red = _Reducer(enc, self.ring.p).reduce(terms, engine)
                return enc.decode_poly(red, self.ring)
            except _Repack:
                enc = _Enc(self.ring.nvars, self.ring.order, enc.B * 2)
                engine = [(t[0][0], t[0][1], t[1:])
                          for t in map(enc.encode_poly, self.polys)]

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def _walk(self) -> list:
        """(order key, packed monomial) of each standard monomial, ascending
        in the ring's order, for a zero-dimensional ideal.

        A breadth-first walk from 1: m * x_v joins when no leading term
        divides it, tested on the guard bits as the reducer does.  A leading
        term dividing m * x_v but not the standard m holds x_v, so only
        those are tried.  Every exponent stays below that of the pure power
        of its variable among the leading terms, so nothing overflows its
        field, and neither does a border monomial x_v * m.  Memoised on the
        basis.
        """
        if self._walked is not None:
            return self._walked
        enc = self._enc
        gmask, mask = enc.gmask, (1 << enc.B) - 1
        units = [1 << s for s in enc._shifts]
        holding = [[t[1] for t in self._engine if (t[1] >> s) & mask]
                   for s in enc._shifts]
        walk = [0]
        seen = {0}
        for m in walk:
            for u, lts in zip(units, holding):
                mm = m + u
                if mm in seen or any(((mm | gmask) - lt) & gmask == gmask
                                     for lt in lts):
                    continue
                seen.add(mm)
                walk.append(mm)
        self._walked = sorted((enc.key(m), m) for m in walk)
        return self._walked

    def standard_monomials(self) -> tuple:
        """The monomials no leading term divides, ascending in the ring's
        order, for a zero-dimensional ideal (_walk)."""
        return tuple(self._enc.unpack(m) for _, m in self._walk())

    def border_plan(self, variables) -> tuple:
        """How to build the multiplication matrices of the given variables
        on the standard monomials, each column from columns built before
        it.  variables must hold every variable whose e_v leads no element:
        those generate the algebra (ArtinianAlgebra.free).

        Returns (places, direct, derived).  Places 0..d-1 hold the standard
        monomials std, ascending (_walk), places d, d+1, ... the border
        monomials x_w * std[j] outside std, w in variables, in increasing
        order, and places[k][j] is that of x_w * std[j] for the k-th
        variable w.  direct lists (row, place, coefficient) entries: the
        unit columns of std, and minus the tail of each element a border
        monomial leads.  Any other border monomial b = x_w * s is a proper
        multiple of a leading term, so b' = b / x_u = x_w * (s / x_u) lies
        outside std for some u; u divides s, so it is free and b' is a
        border monomial too.  derived lists (place of b, k, place of b') in
        increasing order, u the k-th variable.  The column of b is X_u
        times that of b', and each x_u * s' it meets, s' a term of b', lies
        below b, so is built already: the multiplication matrices of FGLM
        (Faugere, Gianni, Lazard, Mora, J. Symbolic Comput. 16, 1993) and
        of border bases (Kehrein, Kreuzer, Robbiano, 2005).
        """
        enc = self._enc
        keys, packed = zip(*self._walk())
        p, gmask, d = self.ring.p, enc.gmask, len(packed)
        units = [1 << enc._shifts[w] for w in variables]
        place = {m: j for j, m in enumerate(packed)}
        # a border monomial's order key is the sum of its factors' keys
        border = {m + u: k + uk for u, uk in zip(units, map(enc.key, units))
                  for m, k in zip(packed, keys) if m + u not in place}
        border = sorted(border, key=border.__getitem__)
        place.update((b, d + t) for t, b in enumerate(border))
        lead = {ltm: tail for _, ltm, tail in self._engine}
        direct = [(j, j, 1) for j in range(d)]
        derived = []
        for b in border:
            tail = lead.get(b)
            if tail is not None:
                direct += [(place[m], place[b], p - c) for _, m, c in tail]
                continue
            for k, u in enumerate(units):
                if ((b | gmask) - u) & gmask == gmask and place[b - u] >= d:
                    derived.append((place[b], k, place[b - u]))
                    break
        return [[place[m + u] for m in packed] for u in units], direct, derived

    def replay_trace(self) -> tuple:
        """The trace of the run that built the basis (_buchberger), with its
        shifts numbered: (shifts, entries, terms).  shifts lists the
        distinct exponent tuples the run shifted by, in order of first use.
        entries holds two items per entry (input or S-pair, in run order):
        its scale, 0 when its sum reached zero, and its term count.
        terms holds three items per term, entry by entry: term k stands for
        terms[3k] * x^shifts[terms[3k+1]] times source terms[3k+2].
        Sources 0..n-1 are the n nonzero generators the basis was built
        from and source n + t is the element the t-th adding entry made,
        scale times the sum of its terms; the terms of any other entry sum
        to zero, and no entry repeats a (shift, source) pair.  The n input
        entries come first, those that add before those that vanish, with
        terms c * x^0 * input k, and every later term names an element.
        So on unit cofactors the sums of the entries that do not add, with
        the vectors with entries in the ideal, generate the syzygies of
        the generators.
        """
        enc, (entries, terms) = self._enc, self._trace
        ids: dict = {}
        terms = terms.copy()
        terms[1::3] = [ids.setdefault(q, len(ids)) for q in terms[1::3]]
        return [enc.unpack(q) for q in ids], entries.copy(), terms


def _run(ring: PolyRing, gens):
    """_buchberger on the generators, widening the exponent fields until
    nothing overflows; returns (codec, basis, (entries, terms))."""
    budget = _PAIR_BUDGET.get()
    bits = _initial_bits(gens)
    while True:
        enc = _Enc(ring.nvars, ring.order, bits)
        try:
            encoded = [enc.encode_poly(g) for g in gens]
            return (enc, *_buchberger(enc, encoded, ring.p, budget))
        except _Repack:
            bits *= 2


def groebner(ring: PolyRing, gens) -> GroebnerBasis:
    """Reduced Groebner basis of the generators in the ring's own order.

    Raises ResourceAbort beyond the S-pair budget set by pair_budget.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        enc = _Enc(ring.nvars, ring.order, 5)
        return GroebnerBasis(ring, (), enc, [], ([], []))
    enc, basis, trace = _run(ring, gens)
    polys = tuple(enc.decode_poly(t, ring) for t in basis)
    engine = [(t[0][0], t[0][1], t[1:]) for t in basis]
    return GroebnerBasis(ring, polys, enc, engine, trace)


# --- ideal calculus -------------------------------------------------------


def _extend_ring_front(ring: PolyRing):
    """Ring with one fresh tag variable in front and a block order that
    eliminates it, and the tag's name; polynomials move in and out of it
    with Polynomial.to_ring."""
    name, i = "_t", 0
    while name in ring.variables:
        name, i = f"_t{i}", i + 1
    return PolyRing(ring.field, (name,) + ring.variables, block_order(1)), name


class Ideal:
    """Ideal of a polynomial ring, with a cached reduced Groebner basis.

    _alg holds the quotient algebra once ArtinianAlgebra.from_ideal has
    built it, so each ideal has one basis and one algebra.  The algebra
    keeps the generators and the basis rather than the ideal, so the two
    make no reference cycle.
    """

    __slots__ = ("ring", "gens", "_gb", "_alg")

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb = None
        self._alg = None

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = groebner(self.ring, self.gens)
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.groebner().normal_form(f)

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().reduces_to_zero(f)

    def equals(self, other: "Ideal") -> bool:
        return self.groebner().polys == other.groebner().polys

    def is_trivial(self) -> bool:
        return self.groebner().is_trivial()

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.groebner().polys)

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        gens = [f * g for f in self.gens for g in other.gens]
        return Ideal(self.ring, gens)

    def power(self, k: int) -> "Ideal":
        if k < 1:
            raise ValueError("power wants k >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def _check(self, other: "Ideal"):
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J via a tag variable: (t I + (1-t) J) cap k[x]."""
        self._check(other)
        ring = self.ring
        big, tname = _extend_ring_front(ring)
        t = big.var(tname)
        gens = [t * f.to_ring(big) for f in self.gens]
        gens += [(1 - t) * g.to_ring(big) for g in other.gens]
        return Ideal(ring, [h.to_ring(ring)
                            for h in Ideal(big, gens).eliminate([tname])])

    def saturate(self, other) -> tuple:
        """Saturation (I : J^infty), J an Ideal or a Polynomial; returns
        (ideal, steps), steps 0 when I was already saturated (I itself is
        returned) and 1 otherwise.

        For each generator g of J, I : g^infty = (I + (1 - t*g)) cap k[x],
        one elimination of a tag t (Rabinowitsch; Cox-Little-O'Shea, Ideals,
        Varieties, and Algorithms, ch. 4 sec. 4), and I : J^infty is the
        intersection of these parts: when g_i^(N_i) * f lies in I for each
        i, so does J^M * f for M = sum (N_i - 1) + 1.
        """
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other])
        self._check(other)
        if not other.gens:
            raise ValueError("saturation by the zero ideal")
        ring = self.ring
        big, tname = _extend_ring_front(ring)
        t = big.var(tname)
        gens = [f.to_ring(big) for f in self.gens]
        out = None
        for g in other.gens:
            tagged = Ideal(big, gens + [1 - t * g.to_ring(big)])
            part = Ideal(ring, [h.to_ring(ring)
                                for h in tagged.eliminate([tname])])
            out = part if out is None else out.intersect(part)
        if out.groebner().polys == self.groebner().polys:
            return self, 0
        return out, 1

    def eliminate(self, names) -> list:
        """Generators of I cap k[remaining variables].

        The computation runs in an internal ring that moves the doomed
        variables to the front under a block order; results are mapped back
        to the original ring (so they are generators, not necessarily a
        Groebner basis for the original order).
        """
        ring = self.ring
        names = tuple(names)
        for nm in names:
            ring.var_index(nm)  # KeyError for a name the ring lacks
        if not names:
            return list(self.groebner().polys)
        k = len(names)
        rest = tuple(nm for nm in ring.variables if nm not in names)
        big = PolyRing(ring.field, names + rest,
                       block_order(k) if rest else GREVLEX)
        gb = groebner(big, [g.to_ring(big) for g in self.gens])
        return [h.to_ring(ring) for h in gb.polys
                if not any(any(m[:k]) for m, _ in h.terms)]

    # -- dimension and leading-term combinatorics

    def krull_dim(self) -> int:
        """Krull dimension of the quotient ring (affine).

        When the generators have linear witnesses (_linear_witnesses) the
        quotient is a polynomial ring in nvars - #gens variables, and no
        basis is built.
        """
        if _linear_witnesses(self.gens, self.ring.p):
            return self.ring.nvars - len(self.gens)
        gb = self.groebner()
        if gb.is_trivial():
            return -1
        supports = []
        for m in gb.leading_monomials():
            supports.append(frozenset(i for i, e in enumerate(m) if e))
        return _max_independent(self.ring.nvars, supports)

    def is_zero_dimensional(self) -> bool:
        """True when the quotient is a finite-dimensional vector space."""
        gb = self.groebner()
        if gb.is_trivial():
            return True  # the empty scheme
        seen = [False] * self.ring.nvars
        for m in gb.leading_monomials():
            nz = [i for i, e in enumerate(m) if e]
            if len(nz) == 1:
                seen[nz[0]] = True
        return all(seen)

    def __repr__(self):
        return f"<ideal with {len(self.gens)} generators in {self.ring}>"


def _linear_witnesses(gens, p: int) -> bool:
    """True when the witness variables give the generators a rank-g matrix.

    A witness occurs in the generators only as its degree-one monomial.
    When the g x |W| matrix of the witnesses' coefficients has rank g, a
    linear change of the witnesses makes every generator w'_j - r_j with
    r_j free of them, so the quotient is the polynomial ring in the other
    nvars - g variables: graph ideals, coordinate ideals and the fat
    point's Y (quadrics minus independent linear forms in u) qualify.  The
    rank is taken on python ints.
    """
    alone: dict = {}  # variable -> True while it occurs only linearly alone
    for g in gens:
        for m, _ in g.terms:
            linear = sum(m) == 1
            for v, e in enumerate(m):
                if e:
                    alone[v] = linear and alone.get(v, True)
    wit = [v for v, ok in alone.items() if ok]
    if len(wit) < len(gens):
        return False
    lin = [{m.index(1): c for m, c in g.terms if sum(m) == 1} for g in gens]
    rows = [[row.get(v, 0) for v in wit] for row in lin]
    # elimination mod p; the rows left over are zero, so rank g leaves none
    for col in range(len(wit)):
        top = next((r for r in rows if r[col]), None)
        if top is not None:
            rows.remove(top)
            inv = pow(top[col], p - 2, p)
            rows = [[(a - r[col] * inv * b) % p for a, b in zip(r, top)]
                    for r in rows]
    return not rows


def _max_independent(nvars: int, supports) -> int:
    """Largest set of variables meeting no leading-term support entirely.

    This equals the Krull dimension of the quotient by the leading-term
    ideal, hence of the quotient itself.
    """
    supports = [s for s in supports if s]
    if any(not s for s in supports):
        return -1
    best = 0
    # depth first over variables 0, 1, ...: take i when that meets no
    # support entirely, then leave it out; a branch that cannot beat the
    # best set found so far is cut
    stack = [(0, frozenset())]
    while stack:
        i, chosen = stack.pop()
        if nvars - i + len(chosen) <= best:
            continue
        if i == nvars:
            best = len(chosen)
            continue
        stack.append((i + 1, chosen))
        cand = chosen | {i}
        if not any(s <= cand for s in supports):
            stack.append((i + 1, cand))
    return best


# --- Hilbert series of monomial ideals ------------------------------------


def _hs_minimalize(gens):
    gens = sorted(set(gens), key=mono_deg)
    out = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


def _poly1_sub_shift(a, b, s):
    """a - t^s * b over Z."""
    out = list(a) + [0] * max(0, s + len(b) - len(a))
    for j, y in enumerate(b):
        out[s + j] -= y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _hilbert_numerator(gens, nvars: int):
    """Numerator of the Hilbert series of S/(monomial ideal), over (1-t)^nvars.

    The pivot recursion of Bayer and Stillman (J. Symbolic Comput. 14,
    1992): while two minimal generators share a variable, pivot on the
    variable most of them use, N(M) = N(M + x_v) + t N(M : x_v).  Pairwise
    coprime generators form a regular sequence, so N(M) = prod (1 - t^deg g);
    the unit ideal gives 0 and the zero ideal 1.
    """
    gens = _hs_minimalize(gens)
    counts = [0] * nvars
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    v = max(range(nvars), key=counts.__getitem__, default=None)
    if v is None or counts[v] < 2:
        out = [1]
        for g in gens:
            out = _poly1_sub_shift(out, out, mono_deg(g))
        return out
    # M + (x_v): drop the generators x_v divides, add x_v itself
    xv = tuple(1 if i == v else 0 for i in range(nvars))
    plus = [g for g in gens if g[v] == 0] + [xv]
    # M : x_v: lower the exponent of x_v by one where it is positive
    colon = [tuple(e - 1 if i == v and e else e for i, e in enumerate(g))
             for g in gens]
    return _poly1_sub_shift(_hilbert_numerator(plus, nvars),
                            [-c for c in _hilbert_numerator(colon, nvars)], 1)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series data of S/I for a homogeneous ideal I.

    numerator is over (1-t)^nvars; krull_dim is the dimension of the affine
    cone; degree is the normalized leading coefficient (the number of points
    counted with multiplicity when krull_dim == 1).
    """

    nvars: int
    numerator: tuple

    def _reduced(self):
        """Divide out all (1 - t) factors; returns (reduced numerator, count)."""
        num = list(self.numerator)
        s = 0
        while num and any(num) and sum(num) == 0:
            acc = 0
            q = [0] * (len(num) - 1)
            for i in range(len(num) - 1):
                acc += num[i]
                q[i] = acc
            num = q
            s += 1
        return num, s

    @property
    def krull_dim(self) -> int:
        """Dimension of the affine cone; -1 for the zero quotient."""
        num, s = self._reduced()
        if not num or not any(num):
            return -1
        return self.nvars - s

    @property
    def degree(self) -> int:
        """Value of the reduced numerator at t = 1; 0 for the zero quotient."""
        num, _ = self._reduced()
        return sum(num)

    def hf(self, d: int) -> int:
        """Hilbert function of S/I in degree d."""
        if d < 0:
            return 0
        n = self.nvars
        out = 0
        for k, c in enumerate(self.numerator):
            if c and k <= d:
                out += c * comb(n - 1 + d - k, n - 1)
        return out


def hilbert_data(ideal: Ideal) -> HilbertData:
    gb = ideal.groebner()
    if not all(g.is_homogeneous() for g in gb.polys):
        raise ValueError("hilbert series needs a homogeneous ideal")
    lms = list(gb.leading_monomials())
    num = _hilbert_numerator(lms, ideal.ring.nvars)
    return HilbertData(ideal.ring.nvars, tuple(num))
