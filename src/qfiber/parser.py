"""Text format for polynomial input.

Grammar (no implicit multiplication, '#' starts a comment to end of line):

    session   := statement (';' statement)* [';']
    statement := 'ring' NAME '=' field '[' namelist ']' [',' order]
               | 'ideal' NAME '=' polylist
               | poly
    field     := 'Fp' '(' INT ')'
    order     := 'grevlex' | 'lex' | 'block' '(' INT ')'
    polylist  := poly (',' poly)*
    poly      := term (('+' | '-') term)*
    term      := factor ('*' factor)*
    factor    := INT | NAME ['^' INT] | '(' poly ')' | '-' factor

A session may declare exactly one ring; every polynomial after that lives
in it.  Variables must be declared by the ring statement, each once, and
block(k) needs 1 <= k < the number of variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import FieldSpec, GREVLEX, LEX, PolyRing, Polynomial, block_order


class ParseError(ValueError):
    """Raised on malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(slots=True)
class _Token:
    kind: str  # 'int' | 'name' | one of +-*^(),;=[] | 'end'
    text: str
    line: int
    col: int


# per line, blanks then one token or comment: a punctuation mark, a word
# run (\w is str.isalnum or '_'), a comment, or any other character, which
# is an error
_SCAN = re.compile(r"([ \t\r]*)(?:([-+*^(),;=\[\]])|(\w+)|(#.*)|([^ \t\r]))")


def _tokenize(src: str) -> list:
    """Tokens with 1-based line and column, each character one column.

    A word run splits as a character scan would: a leading run of
    str.isdigit characters is an int, the rest a name if it starts with a
    letter or '_', and anything else there is an unexpected character.
    A comment takes no columns, so the end token of a session that ends
    in one sits where the comment starts.
    """
    toks = []
    append = toks.append
    for line, text in enumerate(src.split("\n"), 1):
        col = 1
        end = len(text) + 1
        # the matches tile the line up to its trailing blanks
        for blanks, punct, word, comment, other in _SCAN.findall(text):
            col += len(blanks)
            if punct:
                append(_Token(punct, punct, line, col))
                col += 1
            elif word:
                # a leading run of digits is an int, the rest a name
                k = len(word) if word.isdigit() else 0
                while k < len(word) and word[k].isdigit():
                    k += 1
                if k:
                    append(_Token("int", word[:k], line, col))
                if k < len(word):
                    if not (word[k].isalpha() or word[k] == "_"):
                        raise ParseError(
                            f"unexpected character {word[k]!r}", line, col + k)
                    append(_Token("name", word[k:], line, col + k))
                col += len(word)
            elif comment:
                end = col
            else:
                raise ParseError(f"unexpected character {other!r}", line,
                                 col)
    append(_Token("end", "", line, end))
    return toks


@dataclass
class _Parser:
    toks: list
    pos: int = 0
    ring: PolyRing | None = None
    ideals: dict = field(default_factory=dict)

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- expressions

    def parse_poly(self) -> Polynomial:
        if self.ring is None:
            self.fail("no ring declared")
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        acc: dict = {}
        while True:
            for m, c in self.parse_term().terms:
                acc[m] = acc.get(m, 0) + sign * c
            if self.peek().kind not in ("+", "-"):
                return self.ring.poly(acc)
            sign = 1 if self.next().kind == "+" else -1

    def parse_term(self) -> Polynomial:
        out = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            out = out * self.parse_factor()
        return out

    def parse_factor(self) -> Polynomial:
        t = self.next()
        if t.kind == "-":
            return -self.parse_factor()
        if t.kind == "int":
            base = self.ring.constant(int(t.text))
        elif t.kind == "name":
            try:
                base = self.ring.var(t.text)
            except KeyError:
                raise ParseError(f"unknown variable {t.text!r}", t.line, t.col) from None
        elif t.kind == "(":
            base = self.parse_poly()
            self.expect(")")
        else:
            raise ParseError(f"expected a factor, found {t.text or 'end of input'!r}", t.line, t.col)
        if self.peek().kind == "^":
            self.next()
            e = self.expect("int")
            base = base ** int(e.text)
        return base

    # -- statements

    def parse_ring_stmt(self):
        if self.ring is not None:
            self.fail("ring already declared")
        self.expect("name")  # ring alias; kept for readability only
        self.expect("=")
        kw = self.expect("name")
        if kw.text != "Fp":
            raise ParseError("field must be written Fp(p)", kw.line, kw.col)
        self.expect("(")
        ptok = self.expect("int")
        self.expect(")")
        self.expect("[")
        names = [self.expect("name").text]
        while self.peek().kind == ",":
            self.next()
            t = self.expect("name")
            if t.text in names:
                raise ParseError(f"duplicate variable {t.text!r}", t.line,
                                 t.col)
            names.append(t.text)
        self.expect("]")
        order = GREVLEX
        if self.peek().kind == ",":
            self.next()
            otok = self.expect("name")
            if otok.text == "grevlex":
                order = GREVLEX
            elif otok.text == "lex":
                order = LEX
            elif otok.text == "block":
                self.expect("(")
                k = self.expect("int")
                self.expect(")")
                if not 1 <= int(k.text) < len(names):
                    raise ParseError("block split must satisfy 1 <= split < "
                                     f"{len(names)}, the number of variables",
                                     k.line, k.col)
                order = block_order(int(k.text))
            else:
                raise ParseError(f"unknown order {otok.text!r}", otok.line, otok.col)
        try:
            self.ring = PolyRing(FieldSpec(int(ptok.text)), tuple(names), order)
        except ValueError as exc:
            raise ParseError(str(exc), ptok.line, ptok.col) from None

    def parse_ideal_stmt(self):
        name = self.expect("name").text
        self.expect("=")
        gens = [self.parse_poly()]
        while self.peek().kind == ",":
            self.next()
            gens.append(self.parse_poly())
        self.ideals[name] = gens

    def parse_session(self):
        loose: list = []
        while True:
            t = self.peek()
            if t.kind == "end":
                break
            if t.kind == ";":
                self.next()
                continue
            if t.kind == "name" and t.text == "ring":
                self.next()
                self.parse_ring_stmt()
            elif t.kind == "name" and t.text == "ideal":
                self.next()
                self.parse_ideal_stmt()
            else:
                loose.append(self.parse_poly())
            t = self.peek()
            if t.kind not in (";", "end"):
                self.fail(f"expected ';' between statements, found {t.text!r}")
        return self.ring, self.ideals, loose


def parse_ideal(text: str, ring: PolyRing) -> list:
    """Parse a comma-separated generator list in an existing ring."""
    p = _Parser(_tokenize(text))
    p.ring = ring
    gens = [p.parse_poly()]
    while p.peek().kind == ",":
        p.next()
        gens.append(p.parse_poly())
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return gens


def parse_session(text: str):
    """Parse a full session: one ring declaration, named ideals, loose polys.

    Returns (ring, {name: [generators]}, [loose polynomials]).
    """
    return _Parser(_tokenize(text)).parse_session()
