"""Ore arithmetic: products, adjoints, divisions, gcd/lcm, fractions, kernels."""

from fractions import Fraction

import pytest

from diffalg import (DiffOp, DiffPoly, RatFun, frechet, jet, left_divide,
                     left_gcd, left_lcm, minimal_right_fraction, op_with_kernel,
                     right_divide, right_gcd, right_lcm)
from diffalg.errors import DependentInput
from diffalg.operators import FractionPair

from helpers import rand_op, rand_poly

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

    def test_left_lcm(self, rng):
        lcm, c, dd = left_lcm(D, D)
        assert lcm == D
        for _ in range(8):
            a = rand_op(rng, max_deg=2, max_order=1)
            b = rand_op(rng, max_deg=1, max_order=1)
            lcm, c, dd = left_lcm(a, b)
            assert c * a == lcm and dd * b == lcm
            assert lcm.leading_coefficient().is_one()
            assert lcm.degree() == a.degree() + b.degree() - \
                right_gcd(a, b).degree()

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
        with pytest.raises(ValueError):
            FractionPair(D, DiffOp.zero())

    def test_left_and_right_minimal_denominators_agree_in_degree(self, rng):
        from diffalg.operators import minimal_left_fraction
        kdv_a = DiffOp({2: RatFun(1), 0: RatFun(2 * u)}) * D + u1
        cases = [(kdv_a, D), (D * (D + u), D)]
        for _ in range(4):
            cases.append((rand_op(rng, max_deg=2, max_order=1),
                          rand_op(rng, max_deg=1, max_order=1)))
        for a, b in cases:
            right = minimal_right_fraction(a, b)
            left = minimal_left_fraction(right.num, right.den)
            assert left.den.degree() == right.den.degree()


class TestKernelConstruction:
    def test_examples(self):
        assert op_with_kernel([DiffPoly.const(1)]) == D
        assert op_with_kernel([u]) == DiffOp({1: RatFun(u), 0: RatFun(-u1)})

    def test_two_functions(self):
        p = op_with_kernel([DiffPoly.const(1), u])
        assert p.degree() == 2
        assert RatFun.coerce(p.apply(DiffPoly.const(1))).is_zero()
        assert RatFun.coerce(p.apply(u)).is_zero()

    def test_kernel_dim_bounded_by_degree(self, rng):
        for _ in range(6):
            fs = [DiffPoly.const(1), u, u * u]
            p = op_with_kernel(fs)
            assert p.degree() == len(fs)

    def test_dependent_rejected(self):
        with pytest.raises(DependentInput):
            op_with_kernel([u, 2 * u])


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
