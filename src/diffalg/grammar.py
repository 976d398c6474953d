"""Text grammar for differential polynomials, plus the canonical pretty-printer.

Grammar (whitespace ignored)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' int)?
    atom     := rational | jet | '(' expr ')'
    jet      := NAME tick* | NAME '(' nat ')'
    rational := int ('/' nat)?

``u' == u(1)``, ``u'' == u(2)`` and so on; exponents may be negative.  By
default only ``u`` is a legal jet name; identity tests register extra formal
names such as ``F`` and ``G`` explicitly.

The printer emits canonical forms the parser accepts, so parse(print(p)) == p.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Dict, Sequence, Tuple

from .errors import ParseError
from .jets import DiffPoly, RatFun, exponents, monomial
from .tower import power

MAX_EXPONENT = 10_000  # bound on every exponent, written or computed, and on jet orders
MAX_DEPTH = 100  # bound on parenthesis nesting; the printer emits none
MAX_TERMS = 10_000  # bound on the terms a power or a product may expand to
MAX_PAIRS = 100_000  # bound on the term pairs of each multiplication inside a power
MAX_POWER_BITS = 1 << 20  # bound on the bits of a coefficient raised to a power


class _Scanner:
    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.names = tuple(names)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise ParseError(f"expected {char!r}", self.pos)

    def integer(self, allow_sign: bool = True) -> int:
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def _bounded(value: int) -> int:
    """An exponent or a jet order as written; literal coefficients stay unbounded."""
    if abs(value) > MAX_EXPONENT:
        raise OverflowError(f"integer {value} exceeds supported bounds")
    return value


def _exponent_span(p: DiffPoly) -> Dict[tuple, Tuple[int, int]]:
    """Per jet, the least and the greatest exponent over p's terms; a term
    without the jet counts as exponent 0."""
    span: Dict[tuple, Tuple[int, int]] = {}
    for m in p.nums:
        for v, e in exponents(m):
            lo, hi = span.get(v, (0, 0))
            span[v] = (min(lo, e), max(hi, e))
    return span


def _exponent_past_bound(x: int) -> OverflowError:
    return OverflowError(f"an exponent reaches {x}, past the bound {MAX_EXPONENT}")


def _check_power(atom: DiffPoly, e: int) -> None:
    """Refuse atom^e if an exponent or the work of expanding it is out of bounds."""
    top = max((max(-lo, hi) for lo, hi in _exponent_span(atom).values()), default=0)
    if top * abs(e) > MAX_EXPONENT:
        raise _exponent_past_bound(top * abs(e))
    bits = 0  # of each coefficient in lowest terms, not over the common den
    for n in atom.nums.values():
        g = gcd(n, atom.den)
        bits = max(bits, (n // g).bit_length(), (atom.den // g).bit_length())
    if bits * abs(e) > MAX_POWER_BITS:
        raise OverflowError(f"the power {e} raises a coefficient past "
                            f"{MAX_POWER_BITS} bits")
    n = len(atom.nums)
    if n <= 1 or e < 0:
        return
    if comb(n + e - 1, e) > MAX_TERMS:
        raise OverflowError(f"a {n}-term base to the power {e} expands past "
                            f"{MAX_TERMS} terms")

    pairs = 0

    def product(x: int, y: int) -> int:
        """The multiplication of an x-th by a y-th power: record its term
        pairs, bounded by the terms of each, and return the exponent."""
        nonlocal pairs
        pairs = max(pairs, comb(n + x - 1, x) * comb(n + y - 1, y))
        return x + y

    power(1, e, product)  # the multiplications of DiffPoly.__pow__
    if pairs > MAX_PAIRS:
        raise OverflowError(f"a {n}-term base to the power {e} multiplies "
                            f"{pairs} term pairs at once, past {MAX_PAIRS}")


def _check_product(p: DiffPoly, q: DiffPoly) -> None:
    """Refuse p*q if its expansion or one of its exponents is out of bounds."""
    if len(p.nums) * len(q.nums) > MAX_TERMS:
        raise OverflowError(f"a product of {len(p.nums)} by {len(q.nums)} "
                            f"terms expands past {MAX_TERMS} terms")
    span_p, span_q = _exponent_span(p), _exponent_span(q)
    for v in span_p.keys() & span_q.keys():
        (lo_p, hi_p), (lo_q, hi_q) = span_p[v], span_q[v]
        x = max(-lo_p - lo_q, hi_p + hi_q)
        if x > MAX_EXPONENT:
            raise _exponent_past_bound(x)


def _parse_jet(s: _Scanner) -> DiffPoly:
    name = s.peek()
    s.pos += 1
    order = 0
    if s.peek() == "(":
        s.pos += 1
        order = s.integer(allow_sign=False)
        s.expect(")")
    else:
        while s.pos < len(s.text) and s.text[s.pos] == "'":
            order += 1
            s.pos += 1
    return DiffPoly.jet(name, _bounded(order))


def _parse_atom(s: _Scanner) -> DiffPoly:
    c = s.peek()
    if c == "(":
        s.pos += 1
        s.depth += 1
        if s.depth > MAX_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", s.pos)
        inner = _parse_expr(s)
        s.expect(")")
        s.depth -= 1
        return inner
    if c in s.names:
        return _parse_jet(s)
    if c.isdigit() or c in "+-":
        n = s.integer()
        if s.peek() == "/":
            s.pos += 1
            d = s.integer(allow_sign=False)
            if d == 0:
                raise ParseError("zero denominator", s.pos)
            return DiffPoly.const(Fraction(n, d))
        return DiffPoly.const(n)
    raise ParseError("expected a number, a jet variable or '('", s.pos)


def _parse_factor(s: _Scanner) -> DiffPoly:
    atom = _parse_atom(s)
    if s.peek() == "^":
        s.pos += 1
        e = _bounded(s.integer())
        _check_power(atom, e)
        if e < 0:
            if atom.is_constant():
                value = atom.constant_value()
                if value == 0:
                    raise ParseError("zero to a negative power", s.pos)
                return DiffPoly.const(value ** e)
            if len(atom.nums) != 1 or 1 not in atom.nums.values() or atom.den != 1:
                raise ParseError("negative powers only apply to jet monomials", s.pos)
            (mono,) = atom.nums
            return DiffPoly._of({monomial((v, x * e) for v, x in exponents(mono)): 1})
        return atom ** e
    return atom


def _parse_term(s: _Scanner) -> DiffPoly:
    p = _parse_factor(s)
    while s.peek() == "*":
        s.pos += 1
        factor = _parse_factor(s)
        _check_product(p, factor)
        p = p * factor
    return p


def _parse_expr(s: _Scanner) -> DiffPoly:
    negate = False
    if s.peek() == "-":
        s.pos += 1
        negate = True
    p = _parse_term(s)
    if negate:
        p = -p
    while True:
        c = s.peek()
        if c == "+":
            s.pos += 1
            p = p + _parse_term(s)
        elif c == "-":
            s.pos += 1
            p = p - _parse_term(s)
        else:
            return p


def parse_function(text: str, names: Sequence[str] = ("u",)) -> DiffPoly:
    """Parse an expression in the text grammar into a DiffPoly."""
    s = _Scanner(text, names)
    p = _parse_expr(s)
    s.skip_ws()
    if s.pos != len(s.text):
        raise ParseError("trailing input", s.pos)
    return p


# -- printing -----------------------------------------------------------------


def _format_jet(order: int, name: str) -> str:
    if order == 0:
        return name
    if order <= 3:
        return name + "'" * order
    return f"{name}({order})"


def _format_monomial(mono: int, coeff: Fraction) -> str:
    factors = []
    for (order, name), e in reversed(exponents(mono)):
        v = _format_jet(order, name)
        factors.append(v if e == 1 else f"{v}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def format_poly(p: DiffPoly) -> str:
    """Canonical rendering; terms in descending monomial order."""
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.nums, key=exponents, reverse=True):
        text = _format_monomial(mono, Fraction(p.nums[mono], p.den))
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append("- " + text[1:])
        else:
            parts.append("+ " + text)
    return " ".join(parts)


def format_ratfun(r: RatFun) -> str:
    if r.den.is_one():
        return format_poly(r.num)
    num, den = format_poly(r.num), format_poly(r.den)
    if len(r.num.nums) > 1:
        num = f"({num})"
    if len(r.den.nums) > 1:
        den = f"({den})"
    return f"{num}/{den}"
