"""The JSON operator schema and the Z/2 grading it carries.

{"local": [[e, k], ...], "nonlocal": [[p, q], ...], "grading": {name: parity}}
is E + sum p d^-1 q with E = sum e d^k, and ``diffalg power`` prints it as
{"power": k, "operator": ...}.  No other module knows either shape; the
reader names the field of every entry it refuses.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .errors import ParseError, Unsupported
from .grammar import MAX_EXPONENT, format_poly, parse_function
from .jets import DiffPoly, Monomial, accumulate, exponents
from .nonlocal_ops import NonlocalOp
from .operators import DiffOp
from .ratfun import RatFun, _laurent

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
    (E still even).
    """

    member: bool
    member_switched: bool


def parity_class(l: NonlocalOp, grading: Grading) -> ParityClass:
    # E = sum c_k d^k is even when every c_k has the parity of k
    if l.depth2 or not all(grading.of_ratfun(c) == k % 2
                           for k, c in l.local.coeffs.items()):
        return ParityClass(False, False)
    parities = [(grading.of_ratfun(p), grading.of_ratfun(q)) for p, q in l.depth1]
    return ParityClass(all(pq == (1, 0) for pq in parities),
                       all(pq == (0, 1) for pq in parities))


# -- JSON operator schema -------------------------------------------------------------------


def _ratfun_to_expr(r: RatFun) -> str:
    p = _laurent(r)
    if p is None:
        raise Unsupported("coefficient denominators must be monomials to serialize")
    return format_poly(p)


def operator_to_json(l: NonlocalOp, grading: Optional[Grading] = None) -> dict:
    tails = l.tails("serialization")
    data = {
        "local": [[_ratfun_to_expr(c), k] for k, c in sorted(l.local.coeffs.items())],
        "nonlocal": [[_ratfun_to_expr(p), _ratfun_to_expr(q)] for p, q in tails],
    }
    if grading is not None:
        data["grading"] = {name: ("even" if p == 0 else "odd")
                           for name, p in grading.parities.items()}
    return data


def power_to_json(k: int, lk: NonlocalOp, grading: Optional[Grading] = None) -> dict:
    """The object ``diffalg power`` prints: L^k beside its power k."""
    return {"power": k, "operator": operator_to_json(lk, grading)}


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
    """A schema power as an int: "2" and 2.0 are integral; 1.5 and true are not."""
    n = int(k)
    if isinstance(k, bool) or isinstance(k, float) and n != k:
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
    grading = Grading(grading)
    grading.base_parity("u")  # the parser admits only u jets: u needs a parity,
    extra = sorted(grading.parities.keys() - {"u"})  # and no other name occurs
    if extra:
        raise ValueError(f"grading[{extra[0]!r}] names no indeterminate; "
                         "expressions name only u")
    return NonlocalOp(local, tuple(pairs)), grading


def document_from_json(data) -> Tuple[NonlocalOp, Grading]:
    """The bare schema, or the operator of an object whose keys are exactly
    those ``power_to_json`` writes; the schema refuses any other key."""
    if isinstance(data, dict) and data.keys() == {"power", "operator"}:
        data = data["operator"]
    return operator_from_json(data)
