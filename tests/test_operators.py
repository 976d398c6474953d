"""Ore arithmetic: products, adjoints, divisions, gcd/lcm, fractions."""

from fractions import Fraction
from math import comb
import random

import pytest

from diffalg import (DiffOp, DiffPoly, RatFun, frechet, jet, left_divide,
                     minimal_right_fraction, operators, right_divide, right_gcd,
                     right_lcm)
from diffalg.calculus import evo_apply
from diffalg.jets import EXPONENT_LIMIT, exponents, monomial
from diffalg.ratfun import derivatives
from diffalg.operators import FractionPair, _integer_form, helmholtz_residual

from helpers import from_terms, left_gcd, rand_op, rand_poly

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
D = DiffOp.d()


class TestMultiplication:
    def test_defining_relation(self):
        assert D * u == DiffOp({1: RatFun(u), 0: RatFun(u1)})

    def test_expand_example(self):
        assert D * (D + u) == DiffOp({2: RatFun(1), 1: RatFun(u), 0: RatFun(u1)})

    def test_identity(self, rng):
        for _ in range(10):
            a = rand_op(rng)
            assert a * DiffOp.identity() == a
            assert DiffOp.identity() * a == a

    def test_associative(self, rng):
        for _ in range(15):
            a, b, c = rand_op(rng, 1), rand_op(rng, 1), rand_op(rng, 1)
            assert (a * b) * c == a * (b * c)

    def test_degree_additive(self, rng):
        for _ in range(15):
            a, b = rand_op(rng), rand_op(rng)
            assert (a * b).degree() == a.degree() + b.degree()

    def test_ratfun_arm_cost_does_not_depend_on_the_listing_order(self):
        # the RatFun arm sums its Leibniz terms through gcds, so the order in
        # which it takes the powers sets how many gcds it computes
        from diffalg.ratfun import _nontrivial_gcd
        b = DiffOp({0: RatFun(DiffPoly.const(-2), u2 * u2 - 3 * u)})
        outcomes = []
        for listing in ({2: 3 * u1, 1: 2 * u2 - 3}, {1: 2 * u2 - 3, 2: 3 * u1}):
            _nontrivial_gcd.cache_clear()
            product = DiffOp(listing) * b
            outcomes.append((product, _nontrivial_gcd.cache_info().misses))
        assert outcomes[0] == outcomes[1]


class TestApply:
    def test_examples(self):
        e = DiffOp({2: RatFun(1), 0: RatFun(2 * u)})
        assert e.apply(u1) == u3 + 2 * u * u1
        kdv_a = e * D + u1
        assert kdv_a.apply(u) == u3 + 3 * u * u1
        assert DiffOp.of_function(u2).apply(u1) == u2 * u1

    def test_compose_apply(self, rng):
        for _ in range(25):
            a, b = rand_op(rng), rand_op(rng)
            f = rand_poly(rng, max_order=2, terms=2)
            lhs = (a * b).apply(f)
            rhs = a.apply(b.apply(f))
            assert RatFun.coerce(lhs) == RatFun.coerce(rhs)


class TestAdjoint:
    def test_examples(self):
        assert D.adjoint() == -D
        assert DiffOp({1: RatFun(u)}).adjoint() == DiffOp(
            {1: RatFun(-u), 0: RatFun(-u1)})
        assert (D * D).adjoint() == D * D

    def test_anti_involution(self, rng):
        for _ in range(25):
            a, b = rand_op(rng), rand_op(rng)
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()
            assert a.adjoint().adjoint() == a

    def test_functions_fixed(self, rng):
        for _ in range(10):
            f = rand_poly(rng)
            assert DiffOp.of_function(f).adjoint() == DiffOp.of_function(f)


# -- the integer Leibniz kernel against a reference over RatFun -------------------


def ref_mul(a, b):
    out = {}
    for k, ak in a.coeffs.items():
        for l, bl in b.coeffs.items():
            dn = bl
            for n in range(k + 1):
                if n:
                    dn = dn.total_derivative()
                out[k - n + l] = out.get(k - n + l, RatFun(0)) + ak * dn * comb(k, n)
    return DiffOp(out)


def ref_adjoint(a):
    out = {}
    for k, ak in a.coeffs.items():
        dn = ak
        for n in range(k + 1):
            if n:
                dn = dn.total_derivative()
            out[k - n] = out.get(k - n, RatFun(0)) + dn * ((-1) ** k * comb(k, n))
    return DiffOp(out)


def ref_apply(a, f):
    dn, out = RatFun.coerce(f), RatFun(0)
    for k in range(max(a.coeffs, default=0) + 1):
        if k:
            dn = dn.total_derivative()
        if k in a.coeffs:
            out = out + a.coeffs[k] * dn
    if not isinstance(f, RatFun) and out.is_polynomial():
        return out.as_diffpoly()
    return out


def ref_evo_apply(f, g):
    """X_f(g) = sum_n dg/du^(n) d^n(f) over RatFun: a RatFun when g is a
    non-polynomial RatFun, or f is a RatFun and g depends on u; else the
    Laurent DiffPoly it equals."""
    rational_g = isinstance(g, RatFun) and not g.is_polynomial()
    g = RatFun.coerce(g)
    top = g.top_order("u")
    if top is None:
        return RatFun(0) if rational_g else DiffPoly.zero()
    out = ref_apply(DiffOp({n: g.partial("u", n) for n in range(top + 1)}), RatFun.coerce(f))
    if rational_g or isinstance(f, RatFun):
        return out
    (mono,) = out.den.nums
    return out.num * from_terms({monomial((v, -e) for v, e in exponents(mono)): 1})


def same(got, want):
    assert type(got) is type(want) and repr(got) == repr(want)
    assert got == want


def watch_ratfun_arm(monkeypatch) -> list:
    """The functions whose RatFun towers DiffOp's arms build from now on."""
    seen = []

    def towers(f, n):
        seen.append(f)
        return derivatives(f, n)

    monkeypatch.setattr(operators, "derivatives", towers)
    return seen


SMALL_DENS = (u + 1, u2 + u)


def kernel_coefficient(rng, den=None):
    """Fractions with unlike denominators over u, v and F; sometimes a constant,
    sometimes a quotient: over a monomial with den="monomial", over the
    polynomial den when it is one."""
    shape = rng.random()
    if shape < 0.15:
        return RatFun(Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
    c = DiffPoly.zero()
    for _ in range(rng.randint(1, 3)):
        c = c + rand_poly(rng, max_order=3, max_degree=2, terms=2,
                          names=("u", "v", "F")) * Fraction(rng.randint(-5, 5),
                                                              rng.randint(1, 7))
    if den == "monomial" and shape < 0.4:
        return RatFun(c, DiffPoly.jet(rng.choice("uv"), rng.randint(0, 2),
                                      rng.randint(1, 2)))
    if isinstance(den, DiffPoly) and shape < 0.6:
        return RatFun(c, den)
    return RatFun(c)


def kernel_op(rng, den=None):
    """Degree 0-5, sometimes the zero operator.  Over a polynomial den, degree
    0-2 and one den for both factors: unlike non-monomial denominators meet
    the gcd wall even in small products."""
    if rng.random() < 0.05:
        return DiffOp.zero()
    top = 2 if isinstance(den, DiffPoly) else 5
    return DiffOp({k: kernel_coefficient(rng, den)
                   for k in range(rng.randint(0, top) + 1) if rng.random() < 0.7})


def annihilating_pair(rng):
    """(f d - f', f): the product f d f - f' f = f^2 d loses its order-0 term,
    and the operator sends f to zero."""
    f = rand_poly(rng, max_order=2, max_degree=2, terms=3, names=("u", "v"),
                  nonzero=True) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return DiffOp({1: RatFun(f), 0: RatFun(-f.total_derivative())}), f


class TestIntegerKernel:
    def test_matches_the_ratfun_reference(self):
        rng = random.Random(0x0DE)
        paths = {True: 0, False: 0}
        for i in range(300):
            if i % 10 == 0:
                a, f = annihilating_pair(rng)
                b = DiffOp.of_function(f)
                assert a.apply(f) == DiffPoly.zero()
                assert (a * b).coefficient(0).is_zero()
            else:
                small = SMALL_DENS[i // 3 % 2]
                a = kernel_op(rng, ("monomial", None, small)[i % 3])
                b = kernel_op(rng, (None, "monomial", small)[i % 3])
                f = kernel_coefficient(rng, "monomial" if i % 5 == 0 else None)
                f = f.as_diffpoly() if f.is_polynomial() and i % 2 else f
            paths[_integer_form(a) is not None
                  and _integer_form(b) is not None] += 1
            for got, want in ((a * b, ref_mul(a, b)), (b * a, ref_mul(b, a)),
                              (a.adjoint(), ref_adjoint(a)),
                              (a.apply(f), ref_apply(a, f))):
                assert type(got) is type(want) and repr(got) == repr(want)
                assert got == want
        # both the integer arm of products and the RatFun fallback are exercised
        assert min(paths.values()) > 50

    def test_zero_products(self):
        rng = random.Random(0x2E0)
        for _ in range(20):
            a, b = kernel_op(rng), kernel_op(rng)
            for zero in (a * DiffOp.zero(), DiffOp.zero() * a, a * b - a * b):
                assert zero.coeffs == {} and repr(zero) == "DiffOp(0)"
        assert DiffOp.zero().adjoint() == DiffOp.zero()
        assert DiffOp.zero().apply(u) == DiffPoly.zero()

    def test_exponent_just_inside_the_limit(self):
        top = EXPONENT_LIMIT - 1
        a = DiffOp.of_function(DiffPoly.jet("u", 0, top - 1))
        assert repr(a * u) == repr(ref_mul(a, DiffOp.of_function(u)))
        assert a * u == DiffOp.of_function(DiffPoly.jet("u", 0, top))
        b = DiffOp.of_function(u * DiffPoly.jet("u", 1, top - 1))
        assert repr(D * b) == repr(ref_mul(D, b))
        assert repr(b.adjoint()) == repr(ref_adjoint(b))

    def test_exponent_past_the_limit(self):
        top = EXPONENT_LIMIT - 1
        a = DiffOp.of_function(DiffPoly.jet("u", 0, top))
        with pytest.raises(OverflowError):
            a * u  # the product
        # d(u u'^top) has the term u'^(top + 1): a tower level past the limit
        b = u * DiffPoly.jet("u", 1, top)
        with pytest.raises(OverflowError):
            D * b
        with pytest.raises(OverflowError):
            DiffOp({1: RatFun(b)}).adjoint()
        with pytest.raises(OverflowError):
            D.apply(b)

    def test_laurent_coefficients(self, monkeypatch):
        # a coefficient or an operand over one monomial takes the integer arm
        # of products, applications, adjoints and evolutionary fields
        ratfun_arm = watch_ratfun_arm(monkeypatch)
        F, v = jet("F"), jet("v", 1)
        for c in (RatFun(1, u), RatFun(u1, u3), RatFun(F, u), RatFun(v * u + 2, u * u1)):
            ops = (DiffOp.of_function(c), DiffOp({1: c}), DiffOp({2: c, 0: RatFun(u)}),
                   DiffOp({3: RatFun(u1), 1: c * c, 0: c}), D * D + F)
            for a in ops:
                for b in ops:
                    assert _integer_form(a) is not None
                    same(a * b, ref_mul(a, b))
        # 1/u times u d keeps no negative exponent: a polynomial coefficient
        assert DiffOp.of_function(RatFun(1, u)) * DiffOp({1: RatFun(u)}) == \
            DiffOp({1: RatFun(1)})
        rng = random.Random(0x1A7)
        for _ in range(30):
            a = kernel_op(rng, "monomial")
            assert _integer_form(a) is not None
            same(a.adjoint(), ref_adjoint(a))
            p = rand_poly(rng, max_order=2, max_degree=2, terms=3, names=("u", "v", "F"),
                          nonzero=True)
            jet_args = rng.choice("uv"), rng.randint(0, 2)
            e = rng.randint(1, 2)
            # a DiffPoly, a Laurent DiffPoly and a RatFun over a monomial
            operands = (p, p * DiffPoly.jet(*jet_args, -e), RatFun(p, DiffPoly.jet(*jet_args, e)))
            for f in operands:
                same(a.apply(f), ref_apply(a, f))
                for g in operands:
                    same(evo_apply(f, g), ref_evo_apply(f, g))
        assert not ratfun_arm
        # a denominator that is not a monomial takes the RatFun arm of each
        c = RatFun(u1, u + 1)
        a = DiffOp({1: c, 0: RatFun(u)})
        for run, want in ((lambda: a * a, ref_mul(a, a)), (a.adjoint, ref_adjoint(a)),
                          (lambda: a.apply(u2), ref_apply(a, u2)),
                          (lambda: evo_apply(u2, c), ref_evo_apply(u2, c))):
            ratfun_arm.clear()
            same(run(), want)
            assert ratfun_arm

    def test_laurent_exponent_past_the_limit(self, monkeypatch):
        # F/u^top times itself needs u^(-2 top), outside the packed range: the
        # integer arm raises the message the RatFun reference raises
        top = EXPONENT_LIMIT - 1
        a = DiffOp({1: RatFun(jet("F"), DiffPoly.jet("u", 0, top))})
        ratfun_arm = watch_ratfun_arm(monkeypatch)
        with pytest.raises(OverflowError) as want:
            ref_mul(a, a)
        with pytest.raises(OverflowError) as got:
            a * a
        assert str(got.value) == str(want.value)
        # just inside the limit the integer arm holds it
        b = DiffOp({1: RatFun(jet("F"), DiffPoly.jet("u", 0, top // 2))})
        ratfun_arm.clear()
        assert repr(b * b) == repr(ref_mul(b, b)) and not ratfun_arm


class TestDivision:
    def test_right_examples(self):
        q, r = right_divide(D * D, D)
        assert q == D and r.is_zero()
        q, r = right_divide(D * u, D)
        assert q == DiffOp.of_function(u) and r == DiffOp.of_function(u1)
        q, r = right_divide(rand_op_fixed(), DiffOp.identity())
        assert r.is_zero()

    def test_left_examples(self):
        q, r = left_divide(D * D, D)
        assert q == D and r.is_zero()
        # d*u = u*d + u', so u*d = d*u - u' and the remainder is -u'
        q, r = left_divide(DiffOp({1: RatFun(u)}), D)
        assert q == DiffOp.of_function(u) and r == DiffOp.of_function(-u1)
        q, r = left_divide(DiffOp.of_function(u1), D)
        assert q.is_zero() and r == DiffOp.of_function(u1)

    def test_reconstruction(self, rng):
        for _ in range(25):
            a = rand_op(rng, max_deg=3)
            b = rand_op(rng, max_deg=2)
            q, r = right_divide(a, b)
            assert a == q * b + r
            assert r.is_zero() or r.degree() < b.degree()
            q, r = left_divide(a, b)
            assert a == b * q + r
            assert r.is_zero() or r.degree() < b.degree()


def rand_op_fixed():
    return DiffOp({2: RatFun(u), 0: RatFun(u1)})


class TestGcdLcm:
    def test_rgcd_examples(self):
        assert right_gcd(D * D, D) == D
        assert right_gcd((D + u) * D, D * D) == D
        assert left_gcd(D * D, D) == D

    def test_rgcd_divides(self, rng):
        for _ in range(15):
            a, b = rand_op(rng), rand_op(rng)
            g = right_gcd(a, b)
            _, ra = right_divide(a, g)
            _, rb = right_divide(b, g)
            assert ra.is_zero() and rb.is_zero()

    def test_right_lcm_mirror(self, rng):
        # lgcd(d, u*d) is trivial, so the right lcm has degree 2
        lcm, c, dd = right_lcm(D, DiffOp({1: RatFun(u)}))
        assert D * c == lcm and DiffOp({1: RatFun(u)}) * dd == lcm
        assert lcm.degree() == 2
        lcm, c, dd = right_lcm(rand_op_fixed(), DiffOp.identity())
        assert lcm.degree() == rand_op_fixed().degree()
        assert rand_op_fixed() * c == lcm
        for _ in range(6):
            a = rand_op(rng, max_deg=2, max_order=1)
            b = rand_op(rng, max_deg=1, max_order=1)
            lcm, c, dd = right_lcm(a, b)
            assert a * c == lcm and b * dd == lcm
            assert lcm.degree() == a.degree() + b.degree() - \
                left_gcd(a, b).degree()


class TestFractions:
    def test_examples(self):
        fp = minimal_right_fraction(D * D, D)
        assert fp.num == D and fp.den == DiffOp.identity()
        kdv_a = DiffOp({2: RatFun(1), 0: RatFun(2 * u)}) * D + u1
        fp = minimal_right_fraction(kdv_a, D)
        assert fp.num == kdv_a and fp.den == D

    def test_common_factor_removed(self, rng):
        for _ in range(8):
            a = rand_op(rng, max_deg=1, max_order=1)
            b = rand_op(rng, max_deg=1, max_order=1)
            x = rand_op(rng, max_deg=1, max_order=1)
            fp = minimal_right_fraction(a * x, b * x)
            assert right_gcd(fp.num, fp.den).degree() == 0
            # same fraction: numerators agree on the common right multiple
            # of the denominators
            lcm, c1, c2 = right_lcm(fp.den, b * x)
            assert fp.num * c1 == (a * x) * c2

    def test_side_validation(self):
        # a fraction is always the right fraction num * den^-1
        with pytest.raises(ValueError, match="^fraction denominator is zero$"):
            FractionPair(D, DiffOp.zero())
        with pytest.raises(TypeError):
            FractionPair(D * D, D, side="left")
        fp = FractionPair(D * D, D)
        assert (fp.num, fp.den) == (D * D, D)


class TestFrechet:
    def test_examples(self):
        assert frechet(u1) == D
        assert frechet(u3 + 3 * u * u1) == DiffOp(
            {3: RatFun(1), 1: RatFun(3 * u), 0: RatFun(3 * u1)})
        assert frechet(u * u) == DiffOp.of_function(2 * u)

    def test_shift_rule(self, rng):
        # D_{f'} = d compose D_f
        for _ in range(25):
            f = rand_poly(rng)
            assert frechet(f.total_derivative()) == D * frechet(f)

    def test_defining_identity(self, rng):
        # D_f(g) = X_g(f)
        from diffalg import evo_apply
        for _ in range(25):
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            assert RatFun.coerce(frechet(f).apply(g)) == \
                RatFun.coerce(evo_apply(g, f))

    def test_self_adjoint_iff_variational(self, rng):
        from diffalg import variational_derivative
        for _ in range(20):
            rho = rand_poly(rng, max_order=2)
            q = variational_derivative(rho)
            assert frechet(q) == frechet(q).adjoint()

    def test_helmholtz_residual(self, rng):
        from diffalg import variational_derivative
        for _ in range(20):
            q = rand_poly(rng, max_order=3)
            want = frechet(q) - frechet(q).adjoint()
            assert repr(helmholtz_residual(q)) == repr(want)
            assert helmholtz_residual(variational_derivative(q)).is_zero()
        # u'^2 is not a variational derivative: D - D* = 4 u' d + 2 u''
        assert helmholtz_residual(u1 * u1) == DiffOp({1: RatFun(4 * u1),
                                                      0: RatFun(2 * u2)})
