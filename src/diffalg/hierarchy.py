"""The Lenard-Magri engine.

A hierarchy iterates symmetries S_{n+1} = L(S_n) from a seed taken out of the
non-local tail of L.  The pair form (A, B) of the scheme B(H_{n+1}) = A(H_n),
S_n = B(H_n) is the same chain of L = A B^-1, started at S_0 = B(H_0) with
S_1 = A(H_0): since H_n = B^-1(S_n), A(H_n) = L(S_n).  It takes the B that
``from_fraction_pair`` converts, B = b0 or B = b1 d.  Each extension step is
exact; the commutativity of the chain is certified by computing every
pairwise bracket, never assumed from the structure results that predict it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .calculus import brackets, evo_apply, integrate, is_total_derivative, potential
from .errors import DiffAlgError, NotInImage, NotVariational, Unsupported
from .grammar import format_poly, format_ratfun
from .jets import DiffPoly
from .ratfun import RatFun, diff_order
from .operators import DiffOp
from .nonlocal_ops import NonlocalOp, from_fraction_pair, nl_apply, nl_power, to_fraction
from .schema import Grading, parity_class

START_OFFSET_NOTE = ("chain starts at the seed S0 = A(F0) for F0 in Ker B, one "
                     "application past the kernel itself")


def seeds(l: NonlocalOp) -> List[DiffPoly]:
    """The p_i of the canonical non-local tail; empty for local operators."""
    out = []
    for p, _ in l.tails("the seed of a chain"):
        if not p.is_polynomial():
            raise DiffAlgError("seed is not polynomial; cannot start a chain")
        out.append(p.as_diffpoly())
    return out


class Hierarchy:
    """A chain S_0..S_N with S_{k+1} = L(S_k): it stores L, the chain and, in
    the pair form, (A, B) and H_0, and reads its seeds, orders and potentials
    off them, so they follow any change to the chain."""

    def __init__(self, operator: NonlocalOp, chain: List[DiffPoly],
                 pair: Optional[Tuple[DiffOp, DiffOp]] = None,
                 start: Optional[DiffPoly] = None,
                 notes: Optional[List[str]] = None):
        self.operator = operator
        self.chain = chain
        self.pair = pair
        self.start = start
        self.notes = [] if notes is None else notes

    @staticmethod
    def from_operator(l: NonlocalOp, seed: Optional[DiffPoly] = None,
                      grading: Optional[Grading] = None) -> "Hierarchy":
        found = seeds(l)
        if seed is None:
            if len(found) != 1:
                raise DiffAlgError(
                    "operator does not determine a unique seed; pass one")
            seed = found[0]
        h = Hierarchy(operator=l, chain=[seed], notes=[START_OFFSET_NOTE])
        if grading is not None:
            pc = parity_class(l, grading)
            if not (pc.member or pc.member_switched):
                h.notes.append("operator is outside the parity classes; the "
                               "existence guarantee for the chain does not apply")
        return h

    @staticmethod
    def from_pair(a: DiffOp, b: DiffOp, start: DiffPoly) -> "Hierarchy":
        """Pair form: the chain of L = A B^-1 from S_0 = B(H_0), H_0 = start;
        B = b0 or B = b1 d, else ``from_fraction_pair`` refuses it."""
        return Hierarchy(from_fraction_pair(a, b), [_member(b.apply(start), 0)],
                         pair=(a, b), start=DiffPoly.coerce(start))

    @property
    def seeds(self) -> List[DiffPoly]:
        return seeds(self.operator)

    @property
    def orders(self) -> List[Optional[int]]:
        return [diff_order(s) for s in self.chain]

    # -- growth -------------------------------------------------------------

    def extend(self, steps: int) -> "Hierarchy":
        """Append the next symmetries; NotInImage surfaces as a hypothesis report.

        A pair's first step is S_1 = A(H_0); every other step is L(S_n)."""
        for _ in range(steps):
            n = len(self.chain)
            if self.pair is not None and n == 1:
                s_next = self.pair[0].apply(self.start)
            else:
                try:
                    s_next = nl_apply(self.operator, self.chain[-1])
                except NotInImage as exc:
                    raise NotInImage(
                        f"Lenard-Magri hypothesis violated at step {n}: {exc}",
                        index=exc.index, product=exc.product) from exc
            self.chain.append(_member(s_next, n))
        return self

    @property
    def potentials(self) -> List[Optional[DiffPoly]]:
        """H_n with B(H_n) = S_n, None where none is known: H_0 is the pair's
        start, and H_n = B^-1(S_n) for n >= 1, with the zero constant of
        integration that makes A(H_n) = L(S_n)."""
        return [self.start] + [self._potential_for(s) for s in self.chain[1:]]

    def _potential_for(self, s: DiffPoly) -> Optional[DiffPoly]:
        """q S for B = 1/q, the integral of q S for B = (1/q) d: B is the
        pair's, or the one tail q of the operator gives B = (1/q) d."""
        if self.pair is not None:
            b = self.pair[1]
            degree, q = b.degree(), b.coefficient(b.degree()).inverse()
        elif len(self.operator.depth1) == 1:
            degree, (_, q) = 1, self.operator.depth1[0]
        else:
            return None
        product = q * s
        if not product.is_polynomial():
            return None
        try:
            return integrate(product.as_diffpoly()) if degree else product.as_diffpoly()
        except DiffAlgError:
            return None

    # -- certification ------------------------------------------------------

    def verify_commuting(self) -> "CommutationReport":
        """Every pairwise bracket {S_i, S_j}, i < j, computed exactly in one
        pass (``calculus.brackets``); violations in ascending (i, j) order.

        A member that is a total derivative, S_j = d(Q_j), enters through
        Q_j: {S_i, S_j} = d(h_ij) + r_ij, the same polynomial as the direct
        sum, so the violations are the brackets themselves.  Every KdV and
        mKdV member is one, and on a commuting chain h_ij is a constant."""
        results = brackets(self.chain)
        bad = [(i, j, r) for (i, j), r in results.items() if not r.is_zero()]
        return CommutationReport(pairs_checked=len(results), all_zero=not bad,
                                 violations=bad)

    def scheme_consistency(self) -> bool:
        """B(H_{n+1}) = A(H_n) for the ``potentials``, checked exactly."""
        a, b = self.pair or to_fraction(self.operator)
        potentials = self.potentials
        for n in range(len(self.chain) - 1):
            f_next = potentials[n + 1]
            if f_next is None:
                return False
            if b.apply(f_next) != self.chain[n + 1]:
                return False
            if potentials[n] is not None and a.apply(potentials[n]) != self.chain[n + 1]:
                return False
        return True

    # -- serialization ---------------------------------------------------------

    def report(self, verified: Optional["CommutationReport"] = None) -> dict:
        data = {
            "chain": [format_poly(s) for s in self.chain],
            "orders": self.orders,
            "pairwise_zero": verified.all_zero if verified else None,
            "violations": ([f"{{S_{i}, S_{j}}} = {format_poly(r)}"
                            for i, j, r in verified.violations] if verified else []),
        }
        if self.notes:
            data["notes"] = list(self.notes)
        return data


def _member(s, step: int) -> DiffPoly:
    """The chain member S_step as a DiffPoly; Unsupported when it is not one."""
    if isinstance(s, RatFun) and not s.is_polynomial():
        raise Unsupported(f"step {step}: the chain member S_{step} = "
                          f"{format_ratfun(s)} is not a differential polynomial")
    return s.num if isinstance(s, RatFun) else s


class CommutationReport(NamedTuple):
    pairs_checked: int
    all_zero: bool
    violations: List[Tuple[int, int, DiffPoly]]


# -- powers and conserved densities ------------------------------------------------


class DensityRecord(NamedTuple):
    """A conserved density extracted from one tail pair of L^k."""

    power: int
    index: int
    q: DiffPoly
    rho: DiffPoly
    verified_against: Tuple[int, ...]
    trivial: bool


def conserved_densities(l: NonlocalOp, k: int,
                        chain: Sequence[DiffPoly] = ()) -> List[DensityRecord]:
    """Densities rho with delta(rho) = q for every tail pair of L^k.

    Each density is verified conserved along the supplied chain members:
    X_S(rho) must be a total derivative.  A q that is not a variational
    derivative refutes the expected structure and raises.
    """
    lk = nl_power(l, k)
    records = []
    for i, (_, q) in enumerate(lk.depth1):
        if not q.is_polynomial():
            raise NotVariational(f"q_{i} of the power is not polynomial")
        q_poly = q.as_diffpoly()
        rho = potential(q_poly)
        verified = []
        for n, s in enumerate(chain):
            if not is_total_derivative(evo_apply(s, rho)):
                raise DiffAlgError(
                    f"density rho_{i} is not conserved along chain member {n}")
            verified.append(n)
        records.append(DensityRecord(power=k, index=i, q=q_poly, rho=rho,
                                     verified_against=tuple(verified),
                                     trivial=is_total_derivative(rho)))
    return records


def density_report(records: Sequence[DensityRecord]) -> dict:
    return {
        "densities": [{
            "power": r.power,
            "index": r.index,
            "q": format_poly(r.q),
            "rho": format_poly(r.rho),
            "verified_against": list(r.verified_against),
            "trivial": r.trivial,
        } for r in records]
    }
