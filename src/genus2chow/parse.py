"""Reading and writing polynomials in a small ASCII grammar.

The grammar accepts integer coefficients, named variables, ``+ - * ^`` and
parentheses, ignores ASCII whitespace and rejects every non-ASCII character
(digits and spaces included).  Rendering produces the canonical
form used throughout reports: terms in descending monomial order, explicit
``*`` between factors, ``^`` for powers.
"""

from __future__ import annotations

import re

from .ring import IntPolynomial, Ring, add_terms, mul_terms, pow_terms


class ParseError(ValueError):
    """A syntax or name error, with the 0-based position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()])|(?P<bad>.)",
    re.ASCII | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens; every rule returns a term map.  Only
    operator tokens carry the values that the rules compare with."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.unit = (0,) * ring.nvars
        self.tokens = _tokenize(text)[::-1]  # the next token last
        self.advance = self.tokens.pop

    def peek(self):
        return self.tokens[-1]

    def parse(self) -> IntPolynomial:
        terms = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return IntPolynomial(self.ring, terms, _trusted=True)

    def expression(self) -> dict:
        terms, op = {}, "+"
        if self.peek()[1] in ("+", "-"):  # a leading sign
            op = self.advance()[1]
        while True:
            terms = add_terms(terms, self.term(), -1 if op == "-" else 1)
            if self.peek()[1] not in ("+", "-"):
                return terms
            op = self.advance()[1]

    def term(self) -> dict:
        terms = self.factor()
        while self.peek()[1] == "*":
            self.advance()
            terms = mul_terms(terms, self.factor())
        return terms

    def factor(self) -> dict:
        base = self.primary()
        if self.peek()[1] != "^":
            return base
        self.advance()
        kind, value, pos = self.advance()
        if kind != "int":
            raise ParseError("expected integer exponent", pos)
        return pow_terms(base, int(value), self.ring.nvars)

    def primary(self) -> dict:
        kind, value, pos = self.advance()
        if kind == "int":
            n = int(value)
            return {self.unit: n} if n else {}
        if kind == "name":
            if value not in self.ring:
                raise ParseError(f"unknown variable {value!r}", pos)
            i = self.ring.index(value)
            return {self.unit[:i] + (1,) + self.unit[i + 1 :]: 1}
        if value == "(":
            terms = self.expression()
            _, value, pos = self.advance()
            if value != ")":
                raise ParseError("expected ')'", pos)
            return terms
        if value == "-":
            return {e: -c for e, c in self.primary().items()}
        raise ParseError(f"expected a coefficient, variable or '('", pos)


def parse_polynomial(ring: Ring, text: str) -> IntPolynomial:
    """Parse ``text`` as a polynomial over ``ring``."""
    return _Parser(ring, text).parse()


def render_monomial(ring: Ring, exps) -> str:
    parts = []
    for spec, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(spec.name)
        elif e > 1:
            parts.append(f"{spec.name}^{e}")
    return "*".join(parts) if parts else "1"


def render_polynomial(poly: IntPolynomial) -> str:
    """Canonical ASCII form: descending monomial order, explicit * and ^."""
    if not poly:
        return "0"
    pieces = []
    for exps, coeff in poly.terms():
        mono = render_monomial(poly.ring, exps)
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
