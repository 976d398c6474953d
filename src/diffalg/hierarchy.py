"""The Lenard-Magri engine.

A hierarchy iterates symmetries S_{n+1} = L(S_n) from a seed taken out of the
non-local tail of L (or runs a pair (A, d) on potentials directly, as for
Burgers).  Each extension step is exact; the commutativity of the chain is
certified by computing every pairwise bracket, never assumed from the
structure results that predict it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .calculus import brackets, evo_apply, integrate, is_total_derivative, potential
from .errors import DiffAlgError, NotInImage, NotVariational, Unsupported
from .grammar import format_poly, format_ratfun
from .jets import DiffPoly
from .ratfun import RatFun, diff_order
from .operators import DiffOp
from .nonlocal_ops import (Grading, NonlocalOp, nl_apply, nl_power,
                           parity_class, to_fraction)

START_OFFSET_NOTE = ("chain starts at the seed S0 = A(F0) for F0 in Ker B, one "
                     "application past the kernel itself")


def seeds(l: NonlocalOp) -> List[DiffPoly]:
    """The p_i of the canonical non-local tail; empty for local operators."""
    if l.depth2:
        raise DiffAlgError("seeds are defined for weakly non-local operators")
    out = []
    for p, _ in l.depth1:
        if not p.is_polynomial():
            raise DiffAlgError("seed is not polynomial; cannot start a chain")
        out.append(p.as_diffpoly())
    return out


class Hierarchy:
    """A chain S_0..S_N with S_{k+1} = L(S_k), plus certification state."""

    def __init__(self, operator: NonlocalOp, seeds: List[DiffPoly],
                 chain: List[DiffPoly], potentials: List[Optional[DiffPoly]],
                 orders: List[Optional[int]],
                 pair: Optional[Tuple[DiffOp, DiffOp]] = None,
                 notes: Optional[List[str]] = None):
        self.operator = operator
        self.seeds = seeds
        self.chain = chain
        self.potentials = potentials
        self.orders = orders
        self.pair = pair
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
        h = Hierarchy(operator=l, seeds=found, chain=[seed],
                      potentials=[], orders=[diff_order(seed)],
                      notes=[START_OFFSET_NOTE])
        if grading is not None:
            pc = parity_class(l, grading)
            if not (pc.member or pc.member_switched):
                h.notes.append("operator is outside the parity classes; the "
                               "existence guarantee for the chain does not apply")
        return h

    @staticmethod
    def from_pair(a: DiffOp, b: DiffOp, start: DiffPoly) -> "Hierarchy":
        """Pair form: iterate potentials H with B(H_next) = A(H); needs B = d."""
        if b != DiffOp.d():
            raise DiffAlgError("the pair engine only solves B = d exactly")
        from .nonlocal_ops import from_fraction_pair
        l = from_fraction_pair(a, b)
        s0 = b.apply(start)
        return Hierarchy(operator=l, seeds=seeds(l), chain=[DiffPoly.coerce(s0)],
                         potentials=[DiffPoly.coerce(start)],
                         orders=[diff_order(s0)], pair=(a, b))

    # -- growth -------------------------------------------------------------

    def extend(self, steps: int) -> "Hierarchy":
        """Append the next symmetries; NotInImage surfaces as a hypothesis report."""
        for _ in range(steps):
            if self.pair is not None:
                a, _ = self.pair
                image = _member(a.apply(self.potentials[-1]), len(self.chain))
                try:
                    h_next = integrate(image)
                except DiffAlgError as exc:
                    raise NotInImage(
                        f"pair step left the image of d: {exc}") from exc
                self.potentials.append(h_next)
                s_next = image
            else:
                tip = self.chain[-1]
                try:
                    s_next = nl_apply(self.operator, tip)
                except NotInImage as exc:
                    raise NotInImage(
                        "Lenard-Magri hypothesis violated at step "
                        f"{len(self.chain)}: {exc}", index=exc.index,
                        product=exc.product) from exc
                s_next = _member(s_next, len(self.chain))
            self.chain.append(s_next)
            self.orders.append(diff_order(s_next))
        return self

    def chain_potentials(self) -> List[Optional[DiffPoly]]:
        """F_n with B(F_n) = S_n, None where none is known.  The pair path
        stores its potentials; the operator path stores none, and with one
        tail q, where B = (1/q) d, F_n is the integral of q S_n for n >= 1."""
        if self.pair is not None:
            return self.potentials
        return [None] + [self._potential_for(s) for s in self.chain[1:]]

    def _potential_for(self, s: DiffPoly) -> Optional[DiffPoly]:
        if len(self.operator.depth1) != 1:
            return None
        _, q = self.operator.depth1[0]
        product = q * s
        if not product.is_polynomial():
            return None
        try:
            return integrate(product.as_diffpoly())
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
        """B(F_{n+1}) = A(F_n) for the ``chain_potentials``, checked exactly."""
        if self.pair is not None:
            a, b = self.pair
        else:
            a, b = to_fraction(self.operator)
        potentials = self.chain_potentials()
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
