"""Reading and writing polynomials in a small ASCII grammar.

The grammar accepts integer coefficients, named variables, ``+ - * ^`` and
parentheses, ignores ASCII whitespace and rejects every non-ASCII character
(digits and spaces included).  A text is read in one pass over its token
strings: one search for a character outside the grammar, which is reported
first, then one ``findall`` for the tokens.  Positions are not kept; an error
finds its token's position by scanning the text again.  Rendering produces
the canonical form used throughout reports: terms in descending monomial
order, explicit ``*`` between factors, ``^`` for powers.
"""

from __future__ import annotations

import re

from .ring import IntPolynomial, Ring, add_terms, mul_terms, pow_terms


class ParseError(ValueError):
    """A syntax or name error, with the 0-based position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Any character outside the grammar; it is reported before any syntax error.
_BAD_RE = re.compile(r"[^\sA-Za-z0-9_+\-*^()]", re.ASCII)
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\S", re.ASCII)


class _Parser:
    """Recursive descent over the token strings, which end in "".  A term keeps
    one coefficient and one exponent vector while its factors are monomials;
    only a parenthesized factor brings in term maps."""

    def __init__(self, ring: Ring, text: str):
        bad = _BAD_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.ring, self.text = ring, text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.at = 0

    def fail(self, message: str, at: int):
        """Raise at the ``at``-th token, found by scanning the text again."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        raise ParseError(message, starts[at])

    def parse(self) -> IntPolynomial:
        terms = self.expression()
        if self.tokens[self.at]:
            self.fail(f"unexpected {self.tokens[self.at]!r}", self.at)
        return IntPolynomial(self.ring, terms, _trusted=True)

    def expression(self) -> dict:
        tokens, terms = self.tokens, {}
        op = tokens[self.at]
        if op == "+" or op == "-":  # a leading sign
            self.at += 1
        while True:
            sign = -1 if op == "-" else 1
            coeff, exps, factors = self.term()
            if factors is not None:
                add_terms(terms, mul_terms(factors, {exps: coeff}), sign)
            elif coeff:  # a monomial term goes straight into the map
                coeff = terms.get(exps, 0) + sign * coeff
                if coeff:
                    terms[exps] = coeff
                else:
                    del terms[exps]
            op = tokens[self.at]
            if op != "+" and op != "-":
                return terms
            self.at += 1

    def term(self) -> tuple:
        """(coefficient, exponents, term map of the parenthesized factors or None)."""
        tokens, index, at = self.tokens, self.ring._index, self.at  # index: name -> position
        coeff, exps, factors = 1, [0] * len(index), None
        while True:  # at each factor, ``at`` moves to its last token
            negated = False  # unary minus binds to the primary, before '^'
            while tokens[at] == "-":
                negated, at = not negated, at + 1
            token = tokens[at]
            if token == "(":
                self.at = at + 1
                inner = self.expression()
                at = self.at
                if tokens[at] != ")":
                    self.fail("expected ')'", at)
            elif not (token.isdigit() or token in index):
                if token.isidentifier():
                    self.fail(f"unknown variable {token!r}", at)
                self.fail("expected a coefficient, variable or '('", at)
            n = 1
            if tokens[at + 1] == "^":
                if not tokens[at + 2].isdigit():
                    self.fail("expected integer exponent", at + 2)
                n = int(tokens[at + 2])
                at += 2
            if negated and n & 1:
                coeff = -coeff
            if token in index:
                exps[index[token]] += n
            elif token != "(":
                coeff *= int(token) ** n
            elif factors is None:
                factors = pow_terms(inner, n, len(index))
            else:
                factors = mul_terms(factors, pow_terms(inner, n, len(index)))
            if tokens[at + 1] != "*":
                self.at = at + 1
                return coeff, tuple(exps), factors
            at += 2


def parse_polynomial(ring: Ring, text: str) -> IntPolynomial:
    """Parse ``text`` as a polynomial over ``ring``."""
    return _Parser(ring, text).parse()


def render_polynomial(poly: IntPolynomial) -> str:
    """Canonical ASCII form: descending monomial order, explicit * and ^.

    Each term is written in one pass over its exponents, as its sign and
    its body; the first term drops the sign's space, and a positive one
    drops the sign too."""
    if not poly:
        return "0"
    ring, terms = poly.ring, poly._terms
    names = ring._index  # variable names, in order
    pieces = []
    for exps in sorted(terms, key=ring.descending_key):
        coeff = terms[exps]
        mono = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e])
        mag = -coeff if coeff < 0 else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]
