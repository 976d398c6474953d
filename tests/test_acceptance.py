"""Acceptance suite: one test per criterion, exact tolerances, printed verdict lines.

Every check is exact (zero residual); the randomized suites run at least the
contracted number of cases with jets up to order 4 and degree up to 3.  Each
criterion prints a PASS line through the raw stdout so the lines survive
pytest capture.
"""

import random
import time
import zlib
from fractions import Fraction

import pytest

from diffalg import (DiffOp, DiffPoly, Grading, Hierarchy, NonlocalOp,
                     RatFun, compose_left, conserved_densities,
                     evo_apply, frechet, frechet_of_op, integrate,
                     is_hereditary, is_integrable_diffop, is_integrable_pair,
                     is_integrable_wnl, is_recursion_for, is_skewsymmetric,
                     jet, left_divide, left_divide_bidiff, lie_bracket,
                     lie_defect, nl_power, parse_function, right_divide,
                     variational_derivative)
from diffalg.calculus import evo_apply_op, is_total_derivative
from diffalg.errors import NotInImage

from helpers import rand_bidiff, rand_op, rand_poly, rand_wnl, slot_first

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
D = DiffOp.d()


ACCEPTANCE_LINES = []


def _line(number: int, text: str) -> None:
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number}: PASS - {text}")


def kdv_operator():
    return NonlocalOp(DiffOp({2: RatFun(1), 0: RatFun(2 * u)}),
                      ((RatFun(u1), RatFun(1)),))


def counterexample():
    return NonlocalOp(DiffOp.of_function(u2), ((RatFun(-1), RatFun(u3)),))


def test_criterion_1_kdv_hierarchy():
    start = time.time()
    h = Hierarchy.from_operator(kdv_operator(), seed=u1,
                                grading=Grading({"u": "even"}))
    h.extend(3)
    from diffalg.grammar import format_poly
    assert format_poly(h.chain[1]) == "u''' + 3*u*u'"
    assert h.chain[1] == parse_function("u''' + 3*u*u'")
    assert h.orders == [1, 3, 5, 7]
    report = h.verify_commuting()
    assert report.pairs_checked == 6 and report.all_zero
    elapsed = time.time() - start
    assert elapsed < 60
    _line(1, f"KdV chain S1..S3 exact, orders [1,3,5,7], 6/6 brackets zero "
             f"({elapsed:.2f}s)")


def test_criterion_2_burgers_pair():
    start = time.time()
    a, b = D * (D + u), D
    h = Hierarchy.from_pair(a, b, DiffPoly.const(1))
    h.extend(5)
    # H_n = (d+u)^n(1) and B(H_{n+1}) = A(H_n), exactly
    hn = DiffPoly.const(1)
    for n in range(6):
        assert h.potentials[n] == hn
        hn = hn.total_derivative() + u * hn
    for n in range(5):
        lhs = DiffPoly.coerce(b.apply(h.potentials[n + 1]))
        rhs = DiffPoly.coerce(a.apply(h.potentials[n]))
        assert lhs == rhs == h.chain[n + 1]
    for i in range(6):
        for j in range(i + 1, 6):
            assert lie_bracket(h.chain[i], h.chain[j]).is_zero()
    elapsed = time.time() - start
    assert elapsed < 60
    _line(2, f"Burgers pair: B(H_n+1) = A(H_n) and all H_n' brackets zero, "
             f"n,m <= 5 ({elapsed:.2f}s)")


def test_criterion_3_hereditary_suite():
    l_216b = NonlocalOp(DiffOp({1: RatFun(1), 0: RatFun(u)}),
                        ((RatFun(u1), RatFun(1)),))
    cases = {
        "d+u+u'd^-1": l_216b,
        "d^2+2u+u'd^-1": kdv_operator(),
        "canonical d^-1 u'' d": counterexample(),
    }
    for name, op in cases.items():
        assert is_hereditary(op).result, name
    _line(3, "hereditary: " + ", ".join(cases))


def test_criterion_4_hereditary_without_integrability():
    l = counterexample()
    assert is_hereditary(l).result
    verdict = is_integrable_wnl(l)
    assert not verdict.result
    assert verdict.certificate.reason == "q = u''' not a variational derivative"
    assert is_recursion_for(l, DiffPoly.const(1))
    assert is_recursion_for(l, u1)
    assert not is_recursion_for(l, u2)
    _line(4, "counterexample hereditary yet not integrable; recursion holds "
             "exactly on span{1, u'}")


def test_criterion_5_integrable_witness():
    a = D * (D + u)
    verdict = is_integrable_diffop(a)
    assert verdict.result
    witness = verdict.certificate.m
    assert witness == DiffOp({1: -jet("F"), 0: jet("F", 1)})
    assert (lie_defect(a) - compose_left(a, witness)).is_zero()
    assert is_skewsymmetric(witness)
    _line(5, "witness M_F = -F d + F' recovered, residual exactly zero, "
             "skewsymmetry verified")


def test_criterion_6_powers_and_densities():
    l = kdv_operator()
    l2 = nl_power(l, 2)
    assert not l2.depth2
    for _, q in l2.depth1:
        dq = frechet(q)
        assert dq == dq.adjoint()
    chain = Hierarchy.from_operator(l, seed=u1).extend(3).chain
    records = conserved_densities(l, 2, chain=chain)
    assert {r.rho for r in records} == {u, u * u * Fraction(1, 2)}
    for record in records:
        assert record.verified_against == (0, 1, 2, 3)
        for s in chain:
            assert is_total_derivative(evo_apply(s, record.rho))
    _line(6, "L_KdV^2 weakly non-local, q's variational, densities conserved "
             "along S_0..S_3")


CASES = 200


def test_criterion_7_property_suites():
    timings = {}

    def suite(name):
        def wrap(fn):
            start = time.time()
            rng = random.Random(zlib.crc32(name.encode()))
            for i in range(CASES):
                fn(rng)
            timings[name] = time.time() - start
        return wrap

    @suite("adjoint")
    def _(rng):
        a, b = rand_op(rng), rand_op(rng)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert a.adjoint().adjoint() == a

    @suite("euclid")
    def _(rng):
        a = rand_op(rng, max_deg=3)
        b = rand_op(rng, max_deg=2)
        q, r = right_divide(a, b)
        assert a == q * b + r and (r.is_zero() or r.degree() < b.degree())
        q, r = left_divide(a, b)
        assert a == b * q + r and (r.is_zero() or r.degree() < b.degree())

    @suite("frechet-1.23")
    def _(rng):
        a = rand_op(rng, max_deg=2)
        f = rand_poly(rng, max_order=4, max_degree=3, terms=2)
        image = RatFun.coerce(a.apply(f))
        lhs = frechet(image)
        rhs = a * frechet(f) + slot_first(frechet_of_op(a), f)
        assert lhs == rhs

    @suite("frechet-1.24")
    def _(rng):
        a, b = rand_op(rng, max_deg=1), rand_op(rng, max_deg=1)
        f = rand_poly(rng, max_order=3, terms=2)
        lhs = slot_first(frechet_of_op(a * b), f)
        rhs = slot_first(frechet_of_op(a), RatFun.coerce(b.apply(f))) \
            + a * slot_first(frechet_of_op(b), f)
        assert lhs == rhs

    @suite("frechet-1.25")
    def _(rng):
        a = rand_op(rng, max_deg=2)
        f = rand_poly(rng, max_order=3, terms=2)
        g = rand_poly(rng, max_order=3, terms=2)
        lhs = slot_first(frechet_of_op(a), f).apply(g)
        rhs = evo_apply_op(g, a).apply(f)
        assert RatFun.coerce(lhs) == RatFun.coerce(rhs)

    @suite("frechet-1.30")
    def _(rng):
        f = rand_poly(rng, max_order=3, terms=2)
        g = rand_poly(rng, max_order=3, terms=2)
        df, dg = frechet(f), frechet(g)
        lhs = evo_apply_op(f, dg)
        rhs = df * dg - dg * df + evo_apply_op(g, df) \
            + frechet(lie_bracket(f, g))
        assert lhs == rhs

    @suite("jacobi")
    def _(rng):
        f = rand_poly(rng, max_order=4, max_degree=3, terms=2)
        g = rand_poly(rng, max_order=4, max_degree=3, terms=2)
        h = rand_poly(rng, max_order=4, max_degree=3, terms=2)
        total = (lie_bracket(f, lie_bracket(g, h))
                 + lie_bracket(g, lie_bracket(h, f))
                 + lie_bracket(h, lie_bracket(f, g)))
        assert total.is_zero()

    @suite("euler-kills-exact")
    def _(rng):
        g = rand_poly(rng, max_order=4, max_degree=3)
        assert variational_derivative(g.total_derivative()).is_zero()

    @suite("integrate-inverts")
    def _(rng):
        h = rand_poly(rng, max_order=4, max_degree=3)
        recovered = integrate(h.total_derivative())
        assert recovered == h - DiffPoly.const(h.constant_term())

    @suite("bidiff-division")
    def _(rng):
        m = rand_bidiff(rng)
        b = rand_op(rng, max_deg=2)
        q, r = left_divide_bidiff(m, b)
        assert compose_left(b, q) + r == m
        assert r.is_zero() or r.degree() < b.degree()

    summary = ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    _line(7, f"10 algebraic suites x {CASES} randomized cases, exact equality "
             f"({summary})")


def test_criterion_8_series_oracle():
    from diffalg import nl_mul
    from diffalg.errors import Unsupported
    from helpers import series_expand, series_product
    rng = random.Random(88)
    checked = 0
    start = time.time()
    while checked < 100:
        l1 = rand_wnl(rng, max_deg=2, pairs=1)
        l2 = rand_wnl(rng, max_deg=2, pairs=1)
        try:
            product = nl_mul(l1, l2)
        except Unsupported:
            continue
        direct = series_expand(product, 6)
        via_series = series_product(series_expand(l1, 8),
                                    series_expand(l2, 8), 6)
        assert direct == via_series
        checked += 1
    _line(8, f"nl_mul matches truncated series multiplication to depth 6 on "
             f"{checked} random pairs ({time.time() - start:.1f}s)")


def test_criterion_9_pair_verdict_matches_commutation():
    # positive: KdV and Burgers pairs are integrable and their chains commute
    kdv_a = DiffOp({2: RatFun(1), 0: RatFun(2 * u)}) * D + u1
    assert is_integrable_pair(kdv_a, D).result
    h = Hierarchy.from_operator(kdv_operator(), seed=u1).extend(3)
    assert h.verify_commuting().all_zero

    burgers_a = D * (D + u)
    assert is_integrable_pair(burgers_a, D).result
    hb = Hierarchy.from_pair(burgers_a, D, DiffPoly.const(1)).extend(5)
    assert hb.verify_commuting().all_zero

    # negative: the counterexample pair is refuted and its scheme cannot run
    a = DiffOp({1: RatFun(u2) / RatFun(u3), 0: RatFun(-1)})
    b = DiffOp({1: RatFun(1) / RatFun(u3)})
    assert not is_integrable_pair(a, b).result
    hc = Hierarchy.from_operator(counterexample(), seed=u1)
    with pytest.raises(NotInImage):
        hc.extend(1)
    # the only seeds it admits stay inside the finite recursion span {1, u'}
    assert is_recursion_for(counterexample(), u1)
    assert not is_recursion_for(counterexample(), u2)
    _line(9, "pair verdicts match chain commutation: KdV and Burgers positive, "
             "the non-integrable pair refuted and its scheme blocked")
