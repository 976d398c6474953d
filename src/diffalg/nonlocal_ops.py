"""Exact closed arithmetic for weakly non-local operators and their depth-2 extension.

A NonlocalOp is E + sum p_i d^-1 q_i + sum a_j d^-1 b_j d^-1 c_j held in a
canonical form: the p directions and q directions are reduced bases of the
tensor they present, and depth-2 middle slots are representatives independent
modulo total derivatives (exact middle slots are rewritten away through
d^-1 g' d^-1 = g d^-1 - d^-1 g).  Canonical forms make the zero test exact,
which is what the decision procedures certify against.  A decision identity
builds one canonical form: the twisted Lie derivative X_g(L) - W L + L W, and
the two sides of the hereditary identity, add their terms as raw local parts
and words (``_product``, ``_twisted_parts``), and only the sum is
canonicalized.  The local part of L W - W L is the commutator [E, W]
(``operators.commutator``), which never forms the terms that cancel.

Every non-local term is a word f0 d^-1 f1 ... d^-1 fk, and one rule multiplies
a local operator into a word: E f0 = Q d + r gives
E (f0 d^-1 w) = Q w + r d^-1 w, with the mirror rule on the right; both
divisions by d live in ``operators``, with the Leibniz rule.

NonlocalOp is the top of the operand tower (``tower``): a function or a local
operator lifts to it.  It has no ``**``: ``nl_power`` runs the shared
repeated squaring with a product that refuses a depth-2 result.

No decision path depends on a truncation depth; the truncated
pseudodifferential series that cross-check these products live with the
tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .calculus import basis_mod_total_derivatives, evo_apply, integrate
from .errors import DepthOverflow, NotExact, NotInImage, ParseError, Unsupported
from .grammar import MAX_EXPONENT, format_poly, format_ratfun, parse_function
from .jets import DiffPoly, Monomial, _from_numerators, accumulate, exponents
from .linalg import _echelon_basis, _over_common_den
from .operators import (DiffOp, _div_left_by_d, _div_right_by_d, commutator, evo_apply_op,
                        frechet, right_lcm)
from .ratfun import RatFun, _laurent
from .tower import Tower, power

Pair = Tuple[RatFun, RatFun]
Triple = Tuple[RatFun, RatFun, RatFun]
Word = Tuple[RatFun, ...]  # f0 d^-1 f1 ... d^-1 fk


class NonlocalOp(Tower):
    """Canonical E + sum p d^-1 q + sum a d^-1 b d^-1 c with depth <= 2.

    The value never changes, so what is a function of it alone is its own:
    ``integrability.is_hereditary`` fills ``_hereditary`` on first use and
    reads it after, and ``nl_power`` fills ``_square`` with L^2 the first
    time it squares L.  A kept refutation keeps its residual, and a kept
    square its chain of kept squares, alive as long as the operator.
    """

    __slots__ = ("local", "depth1", "depth2", "_hereditary", "_square")

    def __init__(self, local: Union[DiffOp, List[DiffOp], None] = None,
                 depth1: Sequence[Pair] = (), depth2: Sequence[Triple] = (),
                 _canonical: bool = False):
        """``local`` is an operator, or a list of operators that are added up
        once the non-local terms are canonical: a non-polynomial depth-2
        middle slot then raises Unsupported before any local parts are added,
        whose RatFun sums are where rational operators meet the gcd wall."""
        depth1 = tuple((RatFun.coerce(p), RatFun.coerce(q)) for p, q in depth1)
        depth2 = tuple((RatFun.coerce(a), RatFun.coerce(b), RatFun.coerce(c))
                       for a, b, c in depth2)
        if not _canonical:
            depth1, depth2 = _canonicalize(depth1, depth2)
        if isinstance(local, list):
            local = sum(local[1:], local[0])
        self.local = DiffOp.coerce(local) if local is not None else DiffOp.zero()
        self.depth1, self.depth2 = depth1, depth2
        self._hereditary = None
        self._square = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "NonlocalOp":
        return NonlocalOp(DiffOp.zero(), (), (), _canonical=True)

    @staticmethod
    def identity() -> "NonlocalOp":
        return NonlocalOp(DiffOp.identity(), (), (), _canonical=True)

    @staticmethod
    def from_local(op) -> "NonlocalOp":
        return NonlocalOp(op, (), (), _canonical=True)

    _below, _up = DiffOp, from_local

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.local.is_zero() and not self.depth1 and not self.depth2

    def is_local(self) -> bool:
        return not self.depth1 and not self.depth2

    def degree(self) -> Optional[int]:
        """Degree of the local part, -1 if purely non-local, None for zero."""
        if not self.local.is_zero():
            return self.local.degree()
        if self.depth1 or self.depth2:
            return -1
        return None

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    @property
    def words(self) -> Tuple[Word, ...]:
        """The non-local terms as words, depth 1 first."""
        return self.depth1 + self.depth2

    def __repr__(self) -> str:
        parts = [] if self.local.is_zero() else [repr(self.local)[len("DiffOp("):-1]]
        parts += ["*d^-1*".join(f"({format_ratfun(f)})" for f in w) for w in self.words]
        return "NonlocalOp(" + (" + ".join(parts) if parts else "0") + ")"

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other) -> "NonlocalOp":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return NonlocalOp(self.local + other.local,
                          self.depth1 + other.depth1,
                          self.depth2 + other.depth2)

    def __neg__(self) -> "NonlocalOp":
        return NonlocalOp(-self.local,
                          tuple((-p, q) for p, q in self.depth1),
                          tuple((-a, b, c) for a, b, c in self.depth2),
                          _canonical=True)

    def __mul__(self, other) -> "NonlocalOp":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return nl_mul(self, other)

    def apply(self, f):
        return nl_apply(self, f)

    def __call__(self, f):
        return nl_apply(self, f)


# -- canonicalization ------------------------------------------------------------


def _gather(pairs: Sequence[Pair]) -> List[Pair]:
    """sum p_i (x) q_i rewritten over a basis of the q side; zero p sides drop.

    The collected p_m = sum_i c_im p_i accumulates on integer numerators over
    the common denominator of the p side and becomes one RatFun, scaled to a
    monic numerator; the scale moves to its q_m, so the tensor is unchanged.
    The coordinates c_im = C_i[pivot_m] / e_i stay on integers throughout.
    """
    basis, pivots, coords = _echelon_basis([q for _, q in pairs])
    polys, den = _over_common_den([p for p, _ in pairs])
    nums = [(p.nums, p.den) for p in polys]  # p_i = n_i / (d_i * den)
    out = []
    for pivot, qb in zip(pivots, basis):
        terms = [(c, e * d, n) for (row, e), (n, d) in zip(coords, nums)
                 if (c := row.get(pivot))]
        scale = lcm(*(ed for _, ed, _ in terms))
        acc: Dict[int, int] = {}
        for c, ed, n in terms:
            factor = c * (scale // ed)
            for mono, v in n.items():
                acc[mono] = acc.get(mono, 0) + factor * v
        acc = {mono: v for mono, v in acc.items() if v}
        if acc:
            lead = acc[max(acc, key=exponents)]
            pm = _from_numerators(acc, lead)  # p_m / lc(p_m)
            pm = RatFun(pm, den)
            qb = RatFun.coerce(qb)  # a canonical RatFun stays one when scaled
            out.append((pm, RatFun._reduced(qb.num * Fraction(lead, scale), qb.den)))
    return out


def _reduce_tensor(pairs: Sequence[Pair]) -> Tuple[Pair, ...]:
    """Canonical presentation of sum p_i (x) q_i with independent sides.

    Both sides end as reduced bases and every q has a monic numerator, with
    the scalars on the p side: a form that depends only on the tensor.
    """
    live = _gather([(p, q) for p, q in pairs if not p.is_zero() and not q.is_zero()])
    return tuple((p, q) for q, p in _gather([(q, p) for p, q in live]))


def _middle_slot_poly(b: RatFun) -> DiffPoly:
    if not b.is_polynomial():
        raise Unsupported(
            "depth-2 middle slot is not polynomial; reduction mod total "
            "derivatives is only defined on the polynomial subring")
    return b.as_diffpoly()


def _canonicalize(depth1: Sequence[Pair],
                  depth2: Sequence[Triple]) -> Tuple[Tuple[Pair, ...], Tuple[Triple, ...]]:
    """The canonical non-local terms; the local part needs no rewriting."""
    pairs: List[Pair] = [(p, q) for p, q in depth1]
    triples = [(a, b, c) for a, b, c in depth2
               if not (a.is_zero() or b.is_zero() or c.is_zero())]
    if triples:
        middles = [_middle_slot_poly(b) for _, b, _ in triples]
        reps, coords, exact_parts = basis_mod_total_derivatives(middles)
        grouped: Dict[int, List[Pair]] = {}
        for (a, _, c), coord, h in zip(triples, coords, exact_parts):
            for j, gamma in enumerate(coord):
                if gamma:
                    grouped.setdefault(j, []).append((a * gamma, c))
            if not h.is_zero():
                hr = RatFun(h)
                pairs += [(a * hr, c), (-a, hr * c)]
        triples = [(a, RatFun(reps[j]), c) for j in sorted(grouped)
                   for a, c in _reduce_tensor(grouped[j])]
    return _reduce_tensor(pairs), tuple(triples)


# -- multiplication -----------------------------------------------------------------


def _op_times_word(e: DiffOp, w: Word, words: List[Word]) -> DiffOp:
    """E (f0 d^-1 w') = Q w' + r d^-1 w' with E f0 = Q d + r; r d^-1 w' goes to words."""
    if len(w) == 1:
        return e * w[0]
    quotient, r = _div_right_by_d(e * w[0])
    words.append((r,) + w[1:])
    return _op_times_word(quotient, w[1:], words)


def _word_times_op(w: Word, e: DiffOp, words: List[Word]) -> DiffOp:
    """(w' d^-1 fk) E = w' Q + w' d^-1 r with fk E = d Q + r; w' d^-1 r goes to words."""
    if len(w) == 1:
        return w[0] * e
    quotient, r = _div_left_by_d(w[-1] * e)
    words.append(w[:-1] + (r,))
    return _word_times_op(w[:-1], quotient, words)


def _of_words(locals_: List[DiffOp], words: Sequence[Word]) -> NonlocalOp:
    """The canonical form of sum(locals_) plus the words, built once."""
    return NonlocalOp(locals_, [w for w in words if len(w) == 2],
                      [w for w in words if len(w) == 3])


def _negated(words: Sequence[Word]) -> List[Word]:
    return [(-w[0],) + w[1:] for w in words]


def nl_mul(l1: NonlocalOp, l2: NonlocalOp) -> NonlocalOp:
    """Exact product, canonicalized; raises DepthOverflow past depth 2."""
    local, words = _product(l1, l2)
    return _of_words([local], words)


def _product(l1: NonlocalOp, l2: NonlocalOp) -> Tuple[DiffOp, List[Word]]:
    """The product as its local part and its words, not yet canonical."""
    if l1.depth2 and (l2.depth1 or l2.depth2):
        raise DepthOverflow("left factor already has depth 2")
    if l2.depth2 and (l1.depth1 or l1.depth2):
        raise DepthOverflow("right factor already has depth 2")
    local = l1.local * l2.local
    words: List[Word] = []
    if not l1.local.is_zero():
        for w in l2.words:
            local = local + _op_times_word(l1.local, w, words)
    if not l2.local.is_zero():
        for w in l1.words:
            local = local + _word_times_op(w, l2.local, words)
    # tail times tail: the last slot of w1 and the first of w2 merge into one
    words += [w1[:-1] + (w1[-1] * w2[0],) + w2[1:] for w1 in l1.words for w2 in l2.words]
    return local, words


def nl_power(l: NonlocalOp, k: int) -> NonlocalOp:
    """L^k by repeated squaring, with a mandatory weakly non-local result at
    each stage.

    Every square L^(2^j) and every partial product is a power L^i with i <= k,
    and each one is checked: a depth-2 term in any of them raises
    DepthOverflow.  A weakly non-local operator has one canonical form, so the
    result is the one the left-to-right chain L^(k-1) L gives, in about
    2 log2 k products instead of k - 1.

    Each square is kept in its base's ``_square`` slot, so a later power of
    the same operator object walks L, L^2, L^4, ... with no product: powers
    1..9 of one operator cost 9 products, not 22.  A refused square is not
    kept, nor is a product of two different operators.
    """
    if k < 1:
        raise ValueError("power must be >= 1")

    def product(a: NonlocalOp, b: NonlocalOp) -> NonlocalOp:
        if a is b and a._square is not None:
            return a._square
        out = nl_mul(a, b)
        if out.depth2:
            raise DepthOverflow(
                "a power left the weakly non-local class: some p_i q_j is "
                "not a total derivative")
        if a is b:
            a._square = out
        return out

    return power(l, k, product)


# -- action on functions ------------------------------------------------------------


def nl_apply(l: NonlocalOp, f):
    """L(f) = E(f) + sum p_i * integrate(q_i * f); NotInImage when some q_i*f is not exact."""
    if l.depth2:
        raise Unsupported("application is only defined for weakly non-local operators")
    rf = RatFun.coerce(f)
    out = RatFun.coerce(l.local.apply(rf))
    for i, (p, q) in enumerate(l.depth1):
        product = q * rf
        if not product.is_polynomial():
            raise Unsupported("q_i * f has a nonconstant denominator; "
                              "exact integration is polynomial-only")
        try:
            antiderivative = integrate(product.as_diffpoly())
        except NotExact as exc:
            raise NotInImage(
                f"q_{i} * f = {format_poly(product.as_diffpoly())} is not "
                f"a total derivative", index=i,
                product=product.as_diffpoly()) from exc
        out = out + p * antiderivative
    if not isinstance(f, RatFun) and out.is_polynomial():
        return out.as_diffpoly()
    return out


# -- Lie derivatives ------------------------------------------------------------------


def _twisted_parts(l: NonlocalOp, w: DiffOp, g) -> Tuple[List[DiffOp], List[Word]]:
    """X_g(L) - W L + L W as local parts and words, none of them summed.

    X_g acts coefficientwise: on E, on every p and on every q.
    """
    if l.depth2:
        raise Unsupported("evolutionary action on depth-2 terms is not needed "
                          "and not defined here")
    locals_ = [evo_apply_op(g, l.local), commutator(l.local, w)]
    words, wl_words, lw_words = [], [], []
    for p, q in l.depth1:
        words += [(evo_apply(g, p), q), (p, evo_apply(g, q))]
        if w:
            locals_ += [-_op_times_word(w, (p, q), wl_words),
                        _word_times_op((p, q), w, lw_words)]
    return locals_, words + _negated(wl_words) + lw_words


def twisted_lie(l: NonlocalOp, w: DiffOp, g) -> NonlocalOp:
    """X_g(L) - [W, L] for a local operator W; the hereditary identity's bricks.

    X_g(L), the commutator [E, W] and the words of W L and L W are added as
    raw local parts and words, and the sum is canonicalized once.
    """
    return _of_words(*_twisted_parts(l, w, g))


def lie_derivative(l: NonlocalOp, f) -> NonlocalOp:
    """X_f(L) - [D_f, L]; vanishes exactly when L is recursion for f.  It is
    ``twisted_lie`` at W = D_f, so its local part [E, D_f] is one commutator."""
    f = DiffPoly.coerce(f) if not isinstance(f, RatFun) else f
    return twisted_lie(l, frechet(f), f)


def is_recursion_for(l: NonlocalOp, f) -> bool:
    return lie_derivative(l, f).is_zero()


# -- fraction extraction ---------------------------------------------------------------


def to_fraction(l: NonlocalOp) -> Tuple[DiffOp, DiffOp]:
    """(A, B) with L = A B^-1, B the right lcm of the operators (1/q_i) d.

    The cofactors M_i with B = (1/q_i) d M_i give A = E B + sum p_i M_i;
    the result is re-verified exactly through L * B == A.
    """
    if l.depth2:
        raise Unsupported("fractions are defined for weakly non-local operators")
    if not l.depth1:
        return l.local, DiffOp.identity()
    factors = [DiffOp({1: q.inverse()}) for _, q in l.depth1]
    b, cofactors = factors[0], [DiffOp.identity()]
    for factor in factors[1:]:
        b, c_new, d_new = right_lcm(factor, b)
        cofactors = [m * d_new for m in cofactors] + [c_new]
    if b.degree() != len(l.depth1):
        raise AssertionError("independent q directions must give deg B = n")
    a = l.local * b
    for (p, _), m in zip(l.depth1, cofactors):
        a = a + DiffOp.of_function(p) * m
    product = nl_mul(l, NonlocalOp.from_local(b))
    if not (product.is_local() and product.local == a):
        raise AssertionError("fraction extraction failed its exactness check")
    return a, b


def from_fraction_pair(a: DiffOp, b: DiffOp) -> NonlocalOp:
    """Convert A B^-1 to weakly non-local form when B = b1 * d.

    Such a B has kernel spanned by the constants, so
    A B^-1 = A d^-1 (1/b1) splits exactly by one Euclidean division.
    Anything more general needs kernel solving, which is out of scope.
    """
    if b.is_zero():
        raise ValueError("zero denominator")
    if b.degree() == 0:
        return NonlocalOp.from_local(a * b.coefficient(0).inverse())
    if b.degree() == 1 and b.coefficient(0).is_zero():
        b1 = b.coefficient(1)
        quotient, r = _div_right_by_d(a)
        inv = b1.inverse()
        return NonlocalOp(quotient * inv, ((r, inv),))
    raise Unsupported("denominator kernel is not explicit; cannot convert "
                      "this fraction to weakly non-local form")


# -- parity --------------------------------------------------------------------------------


class Grading:
    """Z/2 grading: each indeterminate's base gets a parity, the derivative is odd."""

    def __init__(self, parities: Dict[str, str]):
        self.parities = {}
        for name, p in parities.items():
            if p not in ("even", "odd"):
                raise ValueError(f"grading[{name!r}] must be 'even' or 'odd', "
                                 f"got {p!r}")
            self.parities[name] = 0 if p == "even" else 1

    def base_parity(self, name: str) -> int:
        if name not in self.parities:
            raise ValueError(f"grading does not assign a parity to {name!r}")
        return self.parities[name]

    def of_monomial(self, m: Monomial) -> int:
        return sum(e * (self.base_parity(v[1]) + v[0]) for v, e in exponents(m)) % 2

    def of_poly(self, f: DiffPoly) -> Optional[int]:
        """0 (even), 1 (odd), or None for mixed; zero counts as both, reported 0."""
        seen = {self.of_monomial(m) for m in f.nums}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

    def of_ratfun(self, r: RatFun) -> Optional[int]:
        pn, pd = self.of_poly(r.num), self.of_poly(r.den)
        if pn is None or pd is None:
            return None
        return (pn - pd) % 2


class ParityClass(NamedTuple):
    """Membership in the even-operator class with odd p's and even q's.

    ``member`` is the standard class (E even, p_i odd, q_i even);
    ``member_switched`` is the variant with the p and q parities exchanged
    (E still even).  ``detail`` names the first failing component.
    """

    member: bool
    member_switched: bool
    detail: str = ""


def _op_parity(e: DiffOp, grading: Grading) -> Optional[int]:
    seen = set()
    for k, c in e.coeffs.items():
        p = grading.of_ratfun(c)
        if p is None:
            return None
        seen.add((p + k) % 2)
        if len(seen) > 1:
            return None
    return seen.pop() if seen else 0


def parity_class(l: NonlocalOp, grading: Grading) -> ParityClass:
    if l.depth2:
        return ParityClass(False, False, "depth-2 terms present")
    e_parity = _op_parity(l.local, grading)
    if e_parity is None or e_parity != 0:
        return ParityClass(False, False, "local part is not even")
    member = True
    switched = True
    detail = ""
    for p, q in l.depth1:
        pp, pq = grading.of_ratfun(p), grading.of_ratfun(q)
        if pp != 1 or pq != 0:
            if member:
                detail = (f"pair ({format_ratfun(p)}, {format_ratfun(q)}) is "
                          f"not odd (x) even")
            member = False
        if pp != 0 or pq != 1:
            switched = False
    return ParityClass(member, switched, detail)


# -- JSON operator schema -------------------------------------------------------------------


def _ratfun_to_expr(r: RatFun) -> str:
    p = _laurent(r)
    if p is None:
        raise Unsupported("coefficient denominators must be monomials to serialize")
    return format_poly(p)


def operator_to_json(l: NonlocalOp, grading: Optional[Grading] = None) -> dict:
    if l.depth2:
        raise Unsupported("depth-2 terms are internal only and never serialized")
    data = {
        "local": [[_ratfun_to_expr(c), k] for k, c in sorted(l.local.coeffs.items())],
        "nonlocal": [[_ratfun_to_expr(p), _ratfun_to_expr(q)]
                     for p, q in l.depth1],
    }
    if grading is not None:
        data["grading"] = {name: ("even" if p == 0 else "odd")
                           for name, p in grading.parities.items()}
    return data


def _schema_pairs(entries, field: str, shape: str, check) -> list:
    """entries, the schema's field, as a list of pairs; the ValueError names
    the first bad entry."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{field} must be a list of {shape}, got "
                         + type(entries).__name__)
    for i, entry in enumerate(entries):
        try:
            ok = isinstance(entry, (list, tuple)) and len(entry) == 2 and check(*entry)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"{field}[{i}] must be {shape}, got {entry!r}")
    return entries


def _power(k) -> int:
    """A schema power as an int: "2" and 2.0 are integral, 1.5 is not."""
    n = int(k)
    if isinstance(k, float) and n != k:
        raise ValueError(f"{k!r} is not an integer")
    return n


def _parse_field(expr: str, field: str) -> RatFun:
    """The function a schema expression denotes; a parse error names its field."""
    try:
        return RatFun(parse_function(expr))
    except ParseError as exc:
        raise ParseError(f"{field}: {exc.message}", exc.position) from None
    except OverflowError as exc:
        raise OverflowError(f"{field}: {exc}") from None


def local_from_json(entries, field: str = "local") -> DiffOp:
    """The local operator sum e_i d^k_i listed as [[e_i, k_i], ...], where
    terms of one power add up; a ValueError or ParseError names the field."""
    terms: Dict[int, RatFun] = {}
    entries = _schema_pairs(entries, field,
                            f"[expression string, integer power 0..{MAX_EXPONENT}]",
                            lambda e, k: isinstance(e, str) and 0 <= _power(k) <= MAX_EXPONENT)
    for i, (expr, power) in enumerate(entries):
        accumulate(terms, _power(power), _parse_field(expr, f"{field}[{i}]"))
    return DiffOp(terms)


def operator_from_json(data: dict) -> Tuple[NonlocalOp, Grading]:
    if not isinstance(data, dict):
        raise ValueError("the operator schema must be a JSON object, got "
                         + type(data).__name__)
    for key in data:
        if key not in ("local", "nonlocal", "grading"):
            raise ValueError(f"unknown operator schema key {key!r}; "
                             "expected local, nonlocal or grading")
    local = local_from_json(data.get("local", []))
    tails = _schema_pairs(data.get("nonlocal", []), "nonlocal", "[p string, q string]",
                          lambda p, q: isinstance(p, str) and isinstance(q, str))
    pairs = [(_parse_field(p, f"nonlocal[{i}] p"), _parse_field(q, f"nonlocal[{i}] q"))
             for i, (p, q) in enumerate(tails)]
    grading = data.get("grading", {"u": "even"})
    if not isinstance(grading, dict):
        raise ValueError("grading must be an object mapping names to parities, got "
                         + type(grading).__name__)
    return NonlocalOp(local, tuple(pairs)), Grading(grading)
