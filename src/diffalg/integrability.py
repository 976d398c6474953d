"""Decision procedures for recursion, hereditariness and integrability.

Every verdict is a certificate: a positive answer carries the bidifferential
witnesses that re-substitute to exactly zero, a negative one carries the
nonzero remainder or residual operator that refutes the identity.  All
"for all F" quantifiers are realized with one formal function, the jets of
the reserved name ``bidiff.SLOT``, never with sampling; a bidifferential
operator is held as its operator M_F over it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from .bidiff import (SLOT, compose_left, compose_right, frechet_of_op,
                     is_skewsymmetric, left_divide_bidiff)
from .calculus import evo_apply_op
from .errors import Unsupported, VerificationFailed
from .grammar import format_ratfun
from .jets import DiffPoly
from .ratfun import RatFun
from .operators import DiffOp, FractionPair, helmholtz_residual, minimal_right_fraction
from .nonlocal_ops import NonlocalOp, from_fraction_pair, hereditary_defect, to_fraction


class Witness(NamedTuple):
    """Skewsymmetric bidifferential witnesses for an integrable operator or
    pair, each held as its operator M_F over the formal slot."""

    m: DiffOp
    n: Optional[DiffOp] = None


class Refutation(NamedTuple):
    """What failed and the exact nonzero object that certifies the failure."""

    reason: str
    residual: object = None


class Verdict(NamedTuple):
    result: bool
    certificate: Union[Witness, Refutation, None] = None

    def __bool__(self) -> bool:
        # a two-field tuple is always true; the verdict is the result
        return self.result


def _refuse_the_slot(coeffs: Iterable[RatFun]) -> None:
    """Refuse coefficients that mention the formal slot F: A(F) and M_F
    would read them as the formal function."""
    for c in coeffs:
        if c.top_order(SLOT) is not None:
            raise Unsupported("operator coefficients collide with the formal slot")


def _x_part(a: DiffOp, b: DiffOp) -> DiffOp:
    """X_{A(F)}(B) - (D_A)_F B."""
    return evo_apply_op(a.apply(DiffPoly.jet(SLOT, 0)), b) \
        - compose_right(frechet_of_op(a), b)


def lie_defect(a: DiffOp) -> DiffOp:
    """T with T_F = X_{A(F)}(A) - (D_A)_F A, the obstruction A must divide."""
    return _x_part(a, a)


def _mixed_defect(a: DiffOp, b: DiffOp) -> DiffOp:
    """X_{A(F)}(B) + X_{B(F)}(A) - (D_A)_F B - (D_B)_F A."""
    return _x_part(a, b) + _x_part(b, a)


def is_integrable_diffop(a: DiffOp) -> Verdict:
    """Left-divide the Lie defect by A; integrable iff the remainder vanishes."""
    if a.is_zero():
        raise ValueError("the zero operator has no integrability verdict")
    _refuse_the_slot(a.coeffs.values())
    defect = lie_defect(a)
    quotient, remainder = left_divide_bidiff(defect, a)
    if not remainder.is_zero():
        return Verdict(False, Refutation(
            "Lie defect is not left-divisible by the operator",
            residual=remainder))
    if not is_skewsymmetric(quotient):
        raise VerificationFailed(
            "integrability witness failed skewsymmetry; the defect identity "
            "forces it, so this is an internal error")
    if compose_left(a, quotient) != defect:
        raise VerificationFailed("witness re-substitution did not reproduce "
                                 "the Lie defect")
    return Verdict(True, Witness(m=quotient))


def is_integrable_pair(a: DiffOp, b: DiffOp) -> Verdict:
    """The three-equation system: M for A, N for B, plus the mixed identity."""
    if a.is_zero() or b.is_zero():
        raise ValueError("integrable pairs need nonzero operators")
    _refuse_the_slot([*a.coeffs.values(), *b.coeffs.values()])
    witnesses = []
    for which, op in (("first", a), ("second", b)):
        verdict = is_integrable_diffop(op)
        if not verdict:
            return Verdict(False, Refutation(
                f"{which} operator is not integrable",
                residual=verdict.certificate.residual))
        witnesses.append(verdict.certificate.m)
    m, n = witnesses
    mixed = _mixed_defect(a, b)
    recombined = compose_left(a, n) + compose_left(b, m)
    residual = mixed - recombined
    if not residual.is_zero():
        return Verdict(False, Refutation(
            "mixed compatibility identity fails for the unique witnesses",
            residual=residual))
    return Verdict(True, Witness(m=m, n=n))


def is_hereditary(op: Union[NonlocalOp, FractionPair]) -> Verdict:
    """Exact test of the Nijenhuis identity in the depth-2 algebra.

    The formal slot is checked before the fraction is extracted, which for a
    large rational operator is the slow step.  A NonlocalOp is decided once:
    its verdict is kept in its ``_hereditary`` slot, so ``is_integrable_wnl``
    and later questions about the same object read it.  That saves work only
    when one NonlocalOp object is asked twice in one process, as in
    ``is_hereditary`` followed by ``is_integrable_wnl``; an equal operator
    built anew is decided anew.  A FractionPair's verdict and a refusal
    (Unsupported) are not kept.
    """
    if isinstance(op, FractionPair):
        fraction = minimal_right_fraction(op.num, op.den)
        l = from_fraction_pair(*fraction)
    elif op._hereditary is not None:
        return op._hereditary
    else:
        l, fraction = op, None
    tails = l.tails("hereditariness")
    _refuse_the_slot([*l.local.coeffs.values(), *(x for pq in tails for x in pq)])
    a, b = fraction or to_fraction(l)
    f = DiffPoly.jet(SLOT, 0)
    difference = hereditary_defect(l, a.apply(f), b.apply(f))
    if difference.is_zero():
        verdict = Verdict(True, None)
    else:
        verdict = Verdict(False, Refutation(
            "hereditary identity residual is nonzero", residual=difference))
    if fraction is None:
        l._hereditary = verdict
    return verdict


def is_integrable_wnl(l: NonlocalOp) -> Verdict:
    """Weakly non-local integrability: every q a variational derivative + hereditary."""
    for _, q in l.tails("integrability"):
        residual = helmholtz_residual(q)
        if residual:
            return Verdict(False, Refutation(
                f"q = {format_ratfun(q)} not a variational derivative",
                residual=residual))
    verdict = is_hereditary(l)
    if not verdict:
        return verdict
    if l.is_local() and not l.local.is_zero():
        # a hereditary local operator is automatically operator-integrable;
        # cross-check and surface its witness
        inner = is_integrable_diffop(l.local)
        if not inner:
            raise VerificationFailed(
                "hereditary local operator must be integrable")
        return Verdict(True, inner.certificate)
    return Verdict(True, None)

