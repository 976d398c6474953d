"""Bidifferential operators M(F, G) = sum M_kl F^(k) G^(l), held as M_F.

A bidifferential operator is stored as its first-slot operator
M_F = sum_l (sum_k M_kl F^(k)) D^l: a ``DiffOp`` in the second slot whose
coefficients are linear in the jets of one reserved formal name, ``SLOT``.
The entry M_kl is the partial of the l-th coefficient by F^(k).  Composition
with a differential operator and left division by one act on the second slot
only, so they are ``DiffOp`` products and ``operators.left_divide``; only the
transpose, which swaps the slots, reads the F-linear structure.  The
operators whose coefficients mention ``SLOT`` are refused where a formal F
is substituted (``integrability``).
"""

from __future__ import annotations

from typing import Tuple

from .jets import DiffPoly
from .operators import DiffOp, frechet, left_divide

SLOT = "F"


def frechet_of_op(a: DiffOp, name: str = "u") -> DiffOp:
    """(D_A)_F = sum_k F^(k) D_{a_k}: the linearization of A(F) in the jets
    of name, as F does not depend on them."""
    return frechet(a.apply(DiffPoly.jet(SLOT, 0)), name)


def compose_left(b: DiffOp, m: DiffOp) -> DiffOp:
    """(BM)(F, G) = B(M(F, G)), so (BM)_F = B M_F."""
    return b * m


def compose_right(m: DiffOp, b: DiffOp) -> DiffOp:
    """(MB)(F, G) = M(F, B(G)), so (MB)_F = M_F B."""
    return m * b


def left_divide_bidiff(m: DiffOp, b: DiffOp) -> Tuple[DiffOp, DiffOp]:
    """Unique (P, N) with M = B*P + N and N of second-slot degree < deg B."""
    return left_divide(m, b)


def transpose(m: DiffOp) -> DiffOp:
    """M^T(F, G) = M(G, F): (M^T)_F = sum_l F^(l) sum_k M_kl D^k, and
    sum_k M_kl D^k is the linearization of the l-th coefficient in F."""
    out = DiffOp.zero()
    for l, c in m.coeffs.items():
        out = out + DiffPoly.jet(SLOT, l) * frechet(c, SLOT)
    return out


def is_skewsymmetric(m: DiffOp) -> bool:
    """True iff M(F, G) + M(G, F) vanishes identically."""
    return (m + transpose(m)).is_zero()
