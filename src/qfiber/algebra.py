"""Sparse multivariate polynomial arithmetic over prime fields.

Monomials are exponent tuples, polynomials are kept as term lists sorted
strictly decreasing in the ring's monomial order, and all coefficients are
canonical residues in [0, p).  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything that fits in 64 bits."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field F_p with p an odd prime below 2^31; elements are residues
    in [0, p)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.p == 2:
            raise ValueError("characteristic must exceed 2")
        # residue products then stay below 2^62: int64 linear algebra
        # never overflows
        if self.p >= 1 << 31:
            raise ValueError(f"characteristic {self.p} is not below 2^31")

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)


# --- monomials -----------------------------------------------------------

Monomial = tuple  # exponent vector; module-level helpers below


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


@dataclass(frozen=True)
class MonomialOrder:
    """Monomial order: grevlex, lex, or a two-block elimination order.

    block(k) compares the leading k exponents grevlex-first, then the rest
    grevlex; it eliminates the first k variables.
    """

    kind: str
    split: int = 0

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and self.split < 1:
            raise ValueError("block order needs split >= 1")

    def key(self, m: Monomial):
        """Sort key: ascending in this order."""
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        # grevlex on the leading k exponents, then on the rest, in one flat
        # tuple: the head part has the same length for every monomial
        k = self.split
        return (sum(m[:k]), *(-e for e in reversed(m[:k])),
                sum(m[k:]), *(-e for e in reversed(m[k:])))

    def __str__(self):
        return f"block:{self.split}" if self.kind == "block" else self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order(split: int) -> MonomialOrder:
    return MonomialOrder("block", split)


# --- rings and polynomials -----------------------------------------------


@dataclass(frozen=True)
class PolyRing:
    """F_p[x_1..x_n] with a fixed monomial order."""

    field: FieldSpec
    variables: tuple
    order: MonomialOrder = GREVLEX

    def __post_init__(self):
        names = self.variables
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if self.order.kind == "block" and not 1 <= self.order.split < len(names):
            raise ValueError("block split out of range")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def p(self) -> int:
        return self.field.p

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self.var_index(name_or_index)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def monomial(self, expo: Sequence[int], coeff: int = 1) -> "Polynomial":
        expo = tuple(expo)
        if len(expo) != self.nvars or any(e < 0 for e in expo):
            raise ValueError(f"bad exponent vector {expo}")
        c = self.field.normalize(coeff)
        return Polynomial(self, ((expo, c),) if c else ())

    def poly(self, coeffs: Mapping[Monomial, int]) -> "Polynomial":
        return _from_dict(self, dict(coeffs))

    def __str__(self):
        return f"F_{self.p}[{', '.join(self.variables)}] ({self.order})"


def _from_dict(ring: PolyRing, d: dict) -> "Polynomial":
    p = ring.p
    items = []
    for m, c in d.items():
        c %= p
        if c:
            items.append((m, c))
    items.sort(key=lambda mc: ring.order.key(mc[0]), reverse=True)
    return Polynomial(ring, tuple(items))


class Polynomial:
    """Immutable sparse polynomial; terms sorted strictly decreasing."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coeff(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = mono_deg(self.terms[0][0])
        return all(mono_deg(m) == d for m, _ in self.terms)

    def constant_part(self) -> int:
        zero = (0,) * self.ring.nvars
        for m, c in self.terms:
            if m == zero:
                return c
        return 0

    def homogeneous_part(self, d: int) -> "Polynomial":
        return Polynomial(self.ring, tuple((m, c) for m, c in self.terms if mono_deg(m) == d))

    # -- arithmetic

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return _from_dict(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, p - c) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, tuple((m, a * c % self.ring.p) for m, a in self.terms))
        self._check(other)
        p = self.ring.p
        d: dict = {}
        # multiply the shorter polynomial into the longer one
        f, g = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        for mf, cf in f:
            for mg, cg in g:
                m = mono_mul(mf, mg)
                d[m] = (d.get(m, 0) + cf * cg) % p
        return _from_dict(self.ring, d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus / evaluation

    def diff(self, var) -> "Polynomial":
        """Partial derivative with respect to one variable."""
        i = var if isinstance(var, int) else self.ring.var_index(var)
        p = self.ring.p
        d: dict = {}
        for m, c in self.terms:
            e = m[i]
            if e == 0:
                continue
            mm = list(m)
            mm[i] = e - 1
            d[tuple(mm)] = (d.get(tuple(mm), 0) + c * e) % p
        return _from_dict(self.ring, d)

    def evaluate(self, point: Sequence[int]) -> int:
        p = self.ring.p
        point = [a % p for a in point]
        total = 0
        for m, c in self.terms:
            v = c
            for e, a in zip(m, point):
                if e:
                    v = v * pow(a, e, p) % p
            total = (total + v) % p
        return total

    def substitute(self, images: Mapping) -> "Polynomial":
        """Substitute variables by polynomials (or ints) of a target ring.

        images maps every variable name of self.ring to an element of one
        common target ring; unmapped variables must exist in the target
        under the same name.
        """
        target = None
        for v in images.values():
            if isinstance(v, Polynomial):
                target = v.ring
                break
        if target is None:
            target = self.ring
        subs = []
        for name in self.ring.variables:
            if name in images:
                img = images[name]
                subs.append(target.constant(img) if isinstance(img, int) else img)
            else:
                subs.append(target.var(name))
        out = target.zero()
        cache: dict = {}

        def power(i, e):
            key = (i, e)
            if key not in cache:
                cache[key] = subs[i] ** e
            return cache[key]

        for m, c in self.terms:
            term = target.constant(c)
            for i, e in enumerate(m):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def to_ring(self, target: PolyRing) -> "Polynomial":
        """The same polynomial in target, variables matched by name.

        Terms are re-sorted in target's order.  Raises ValueError when a
        variable that occurs here is missing from target.
        """
        if target == self.ring:
            return self
        if target.field != self.ring.field:
            raise ValueError("rings over different fields")
        names = self.ring.variables
        # source index of each target variable; len(names) reads the 0
        # appended to every exponent vector
        src = [names.index(nm) if nm in names else len(names)
               for nm in target.variables]
        out = {}
        for m, c in self.terms:
            m += (0,)
            e = tuple(m[i] for i in src)
            if sum(e) != sum(m):
                raise ValueError(f"a variable of {self} is not in {target}")
            out[e] = c
        return target.poly(out)

    def shift(self, point: Sequence[int]) -> "Polynomial":
        """Translate coordinates: x_i -> x_i + a_i."""
        images = {
            name: self.ring.var(name) + int(a)
            for name, a in zip(self.ring.variables, point)
            if int(a) % self.ring.p != 0
        }
        if not images:
            return self
        return self.substitute(images)

    # -- dunder plumbing

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"<poly {poly_to_string(self)}>"


def poly_to_string(f: Polynomial) -> str:
    """Canonical text form; round-trips through the parser."""
    if not f.terms:
        return "0"
    parts = []
    for m, c in f.terms:
        factors = []
        for name, e in zip(f.ring.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


@lru_cache(maxsize=32)
def _draw_plan(nvars: int, order: MonomialOrder, degree: int,
               homogeneous: bool) -> tuple:
    """(exponent vectors, draw indices) of random_poly in descending
    monomial order.  Coefficients are drawn for the exponent vectors of
    total degree at most degree (exactly degree when homogeneous) in
    lexicographic order, the first exponent slowest, and the vector in
    place i takes draw index[i]."""
    drawn = [((), degree)]
    for _ in range(nvars):
        drawn = [(m + (e,), left - e) for m, left in drawn
                 for e in range(left + 1)]
    drawn = [m for m, left in drawn if not (homogeneous and left)]
    places = sorted(range(len(drawn)), key=lambda i: order.key(drawn[i]),
                    reverse=True)
    return tuple(drawn[i] for i in places), tuple(places)


def random_poly(ring: PolyRing, degree: int, rng,
                homogeneous: bool = True) -> Polynomial:
    """Dense random polynomial of the given (total) degree.

    rng must provide randrange; its draws follow _draw_plan.
    """
    monos, index = _draw_plan(ring.nvars, ring.order, degree, homogeneous)
    draw, p = rng.randrange, ring.p
    coeffs = [draw(p) for _ in index]
    return Polynomial(ring, tuple((m, c) for m, i in zip(monos, index)
                                  if (c := coeffs[i])))
