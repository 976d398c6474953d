"""Bidifferential operators held as M_F: application, slots, composition,
division, skewness.  The entries M_kl are read and built through the
test-only ``helpers.grid`` and ``helpers.from_grid``."""

import random
from fractions import Fraction
from math import comb

import pytest

from diffalg import (DiffOp, DiffPoly, RatFun, compose_left, compose_right,
                     evo_apply, frechet, frechet_of_op, is_skewsymmetric, jet,
                     left_divide_bidiff, transpose)
from diffalg.bidiff import SLOT
from diffalg.jets import accumulate
from diffalg.operators import evo_apply_op

from helpers import from_grid, grid, rand_bidiff, rand_grid, rand_op, rand_poly, slot_first

u, u1, u2 = jet("u"), jet("u", 1), jet("u", 2)
F, G = jet("F"), jet("G")
D = DiffOp.d()


def bi_apply(m, f, g):
    """M(f, g) = M_f(g)."""
    return RatFun.coerce(slot_first(m, f).apply(RatFun.coerce(g)))


class TestApplication:
    def test_single_entry(self):
        m = from_grid({(0, 1): 1})
        assert m == DiffOp({1: F})
        assert bi_apply(m, F, G) == RatFun(F * jet("G", 1))

    def test_zero(self):
        assert bi_apply(DiffOp.zero(), F, G).is_zero()

    def test_skew_witness_form(self):
        # M(F, G) = F'G - FG', M_F = -F d + F'
        m = from_grid({(1, 0): 1, (0, 1): -1})
        assert m == DiffOp({1: -F, 0: jet("F", 1)})
        assert bi_apply(m, F, G) == RatFun(jet("F", 1) * G - F * jet("G", 1))

    def test_matches_slot_application(self, rng):
        for _ in range(20):
            m = rand_bidiff(rng)
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            # M_F(g) is linear in F: F := f there is the first slot's value
            assert bi_apply(m, f, g) == RatFun.coerce(frechet(m.apply(g), SLOT).apply(f))
            assert bi_apply(m, f, g) == RatFun.coerce(slot_first(transpose(m), g).apply(f))


class TestSlots:
    def test_examples(self):
        m = from_grid({(1, 0): 1})
        assert m == DiffOp.of_function(jet("F", 1)) == slot_first(m, F)
        assert frechet_of_op(DiffOp.of_function(u)) == DiffOp.of_function(F)

    def test_reconstruction_from_slots(self, rng):
        # entries recover from M_F as the partials by the formal slot's jets
        for _ in range(15):
            entries = rand_grid(rng)
            op = from_grid(entries)
            got = {}
            for l, coeff in op.coeffs.items():
                num, den = coeff.num, coeff.den
                assert den.is_one()
                for k in range(0, (num.top_order("F") or 0) + 1):
                    p = num.partial("F", k)
                    if not p.is_zero():
                        got[(k, l)] = RatFun(p)
            assert got == entries == grid(op)


class TestComposition:
    def test_identity(self, rng):
        m = rand_bidiff(rng)
        assert compose_left(DiffOp.identity(), m) == m
        assert compose_right(m, DiffOp.identity()) == m

    def test_leibniz_example(self):
        m00 = from_grid({(0, 0): 1})
        assert compose_left(D, m00) == from_grid({(1, 0): 1, (0, 1): 1})
        assert compose_right(m00, D) == from_grid({(0, 1): 1})

    def test_defining_equations(self, rng):
        for _ in range(15):
            m = rand_bidiff(rng)
            b = rand_op(rng, max_deg=2)
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            lhs = bi_apply(compose_left(b, m), f, g)
            assert lhs == RatFun.coerce(b.apply(bi_apply(m, f, g)))
            rhs = bi_apply(compose_right(m, b), f, g)
            assert rhs == bi_apply(m, f, RatFun.coerce(b.apply(g)))


class TestLeftDivision:
    def test_exact_quotient(self, rng):
        for _ in range(20):
            p0 = rand_bidiff(rng)
            b = rand_op(rng, max_deg=2)
            m = compose_left(b, p0)
            q, r = left_divide_bidiff(m, b)
            assert r.is_zero() and q == p0

    def test_small_degree_passthrough(self):
        m = from_grid({(2, 0): u})
        b = DiffOp({2: RatFun(1)})
        q, r = left_divide_bidiff(m, b)
        assert q.is_zero() and r == m

    def test_reconstruction(self, rng):
        for _ in range(20):
            m = rand_bidiff(rng)
            b = rand_op(rng, max_deg=2)
            q, r = left_divide_bidiff(m, b)
            assert compose_left(b, q) + r == m
            assert r.is_zero() or r.degree() < b.degree()


class TestSkewsymmetry:
    def test_examples(self):
        witness = from_grid({(1, 0): 1, (0, 1): -1})
        assert is_skewsymmetric(witness)
        assert not is_skewsymmetric(from_grid({(0, 0): 1}))
        assert is_skewsymmetric(DiffOp.zero())

    def test_entrywise_antisymmetrization(self, rng):
        for _ in range(15):
            entries = rand_grid(rng)
            skew = DiffOp.zero()
            for (k, l), c in entries.items():
                skew = skew + from_grid({(k, l): c}) + from_grid({(l, k): -c})
            assert is_skewsymmetric(skew)
            assert grid(transpose(from_grid(entries))) == \
                {(l, k): c for (k, l), c in entries.items()}


class TestFrechetOfOperator:
    def test_examples(self):
        assert frechet_of_op(D).is_zero()
        assert frechet_of_op(DiffOp.of_function(u)) == from_grid({(0, 0): 1})
        a = D * (D + u)
        assert frechet_of_op(a) == DiffOp({1: RatFun(F), 0: RatFun(jet("F", 1))})

    def test_defining_identity(self, rng):
        # (D_A)_F(G) = X_G(A)(F)
        for _ in range(20):
            a = rand_op(rng, max_deg=2, rational=True)
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            lhs = slot_first(frechet_of_op(a), f).apply(g)
            rhs = evo_apply_op(g, a).apply(f)
            assert RatFun.coerce(lhs) == RatFun.coerce(rhs)

    def test_product_rule(self, rng):
        # D_{A(f)} = A D_f + (D_A)_f
        for _ in range(20):
            a = rand_op(rng, max_deg=2)
            f = rand_poly(rng, max_order=2, terms=2)
            image = a.apply(f)
            if isinstance(image, RatFun):
                continue
            lhs = frechet(image)
            rhs = a * frechet(f) + slot_first(frechet_of_op(a), f)
            assert lhs == rhs

    def test_chain_rule(self, rng):
        # (D_{AB})_f = (D_A)_{B(f)} + A (D_B)_f
        for _ in range(15):
            a = rand_op(rng, max_deg=1)
            b = rand_op(rng, max_deg=1)
            f = rand_poly(rng, max_order=2, terms=2)
            lhs = slot_first(frechet_of_op(a * b), f)
            rhs = slot_first(frechet_of_op(a), RatFun.coerce(b.apply(f))) \
                + a * slot_first(frechet_of_op(b), f)
            assert lhs == rhs

    def test_evo_on_frechet_identity(self, rng):
        # X_f(D_g) = [D_f, D_g] + X_g(D_f) + D_{{f, g}}
        from diffalg import lie_bracket
        for _ in range(20):
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            df, dg = frechet(f), frechet(g)
            lhs = evo_apply_op(f, dg)
            rhs = df * dg - dg * df + evo_apply_op(g, df) \
                + frechet(lie_bracket(f, g))
            assert lhs == rhs


# -- the formulas the bidifferential operations and the RatFun evolutionary
# field were written with on the grid of entries, before they became DiffOp
# products and applications, kept here as independent references


def ref_tower(f, n):
    out = [f]
    for _ in range(n):
        out.append(out[-1].total_derivative())
    return out


def ref_compose_left(b, m):
    """D^j (c F^(k)) D^l expanded term by term: the double Leibniz loop."""
    top = max(b.coeffs, default=0)
    towers = {kl: ref_tower(c, top) for kl, c in grid(m).items()}
    entries = {}
    for j, bj in b.coeffs.items():
        for (k, l), tower in towers.items():
            for n in range(j + 1):
                for i in range(n + 1):
                    accumulate(entries, (k + i, j - n + l),
                               bj * tower[n - i] * (comb(j, n) * comb(n, i)))
    return from_grid(entries)


def ref_bi_apply(m, f, g):
    """sum M_kl f^(k) g^(l)."""
    entries = grid(m)
    df = ref_tower(RatFun.coerce(f), max((k for k, _ in entries), default=0))
    dg = ref_tower(RatFun.coerce(g), m.degree() or 0)
    out = RatFun(0)
    for (k, l), c in entries.items():
        out = out + c * df[k] * dg[l]
    return out


def ref_slot_first(m, f):
    """sum M_kl f^(k) D^l."""
    entries = grid(m)
    df = ref_tower(RatFun.coerce(f), max((k for k, _ in entries), default=0))
    coeffs = {}
    for (k, l), c in entries.items():
        accumulate(coeffs, l, c * df[k])
    return DiffOp(coeffs)


def ref_frechet_of_op(a, name="u"):
    """(k, l) -> da_k/du^(l), one partial at a time."""
    entries = {}
    for k, c in a.coeffs.items():
        top = c.top_order(name)
        for l in range((-1 if top is None else top) + 1):
            p = c.partial(name, l)
            if not p.is_zero():
                entries[(k, l)] = p
    return from_grid(entries)


def ref_evo_apply(f, g, name="u"):
    """sum d^n(f) dg/du^(n) over RatFun, for a RatFun f."""
    if isinstance(g, RatFun) and g.is_polynomial():
        g = g.num
    top = g.top_order(name)
    if top is None:
        return RatFun(0) if isinstance(g, RatFun) else DiffPoly.zero()
    total, dnf = RatFun(0), f
    for n in range(top + 1):
        if n:
            dnf = dnf.total_derivative()
        part = g.partial(name, n)
        if part:
            total = total + part * dnf
    return total


def ref_function(rng):
    """Unlike Fraction coefficients over u and v (F is the formal slot); some
    quotients by a monomial (which keeps the quotient-rule towers free of
    large gcds), some constants."""
    shape = rng.random()
    if shape < 0.1:
        return RatFun(Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
    c = rand_poly(rng, max_order=2, max_degree=2, terms=3, names=("u", "v"),
                  nonzero=True) * Fraction(rng.randint(1, 5), rng.randint(1, 7))
    if shape < 0.4:
        return RatFun(c, DiffPoly.jet(rng.choice("uv"), rng.randint(0, 2),
                                      rng.randint(1, 2)))
    return RatFun(c)


def ref_bidiff(rng):
    return from_grid({(rng.randint(0, 2), rng.randint(0, 3)): ref_function(rng)
                      for _ in range(rng.randint(0, 4))})


def ref_op(rng):
    return DiffOp({k: ref_function(rng) for k in range(rng.randint(0, 3) + 1)
                   if rng.random() < 0.7})


def same(got, want):
    assert type(got) is type(want) and repr(got) == repr(want) and got == want


class TestReferenceFormulas:
    def test_compose_left_matches_the_double_leibniz_loop(self):
        rng = random.Random(0xB1D)
        for _ in range(60):
            b, m = ref_op(rng), ref_bidiff(rng)
            same(compose_left(b, m), ref_compose_left(b, m))

    def test_applications_match_the_sums(self):
        rng = random.Random(0xA99)
        for i in range(60):
            m, f, g = ref_bidiff(rng), ref_function(rng), ref_function(rng)
            if i % 2:  # polynomial slots also come as DiffPoly
                f = f.as_diffpoly() if f.is_polynomial() else f
                g = g.as_diffpoly() if g.is_polynomial() else g
            same(bi_apply(m, f, g), ref_bi_apply(m, f, g))
            same(slot_first(m, f), ref_slot_first(m, f))

    def test_frechet_of_op_matches_the_partials(self):
        rng = random.Random(0xF0A)
        for _ in range(60):
            a = ref_op(rng)
            for name in ("u", "v"):
                same(frechet_of_op(a, name), ref_frechet_of_op(a, name))

    @pytest.mark.parametrize("kind", ["polynomial", "rational", "constant"])
    def test_rational_evo_apply_matches_the_loop(self, kind):
        rng = random.Random(0xE7A)
        for _ in range(40):
            f = RatFun(rand_poly(rng, max_order=2, terms=3, names=("u", "F"),
                                 nonzero=True),
                       DiffPoly.jet("u", rng.randint(0, 2), rng.randint(1, 2)))
            g = ref_function(rng)
            if kind == "polynomial":
                g = g.num
            elif kind == "rational":
                g = RatFun(g.num, DiffPoly.jet("v", 0) * DiffPoly.jet("u", 1))
            else:
                g = rng.choice([DiffPoly.const(Fraction(2, 3)), RatFun(5),
                                RatFun(jet("F"), jet("v"))])
            same(evo_apply(f, g), ref_evo_apply(f, g))

    def test_an_integer_characteristic_is_a_constant(self):
        assert evo_apply(u, 3) == DiffPoly.zero()
        assert evo_apply(RatFun(u, u1), -2) == DiffPoly.zero()


class TestOperands:
    def test_unknown_operands_are_not_implemented(self):
        # M_F is an operator: functions lift to it, a raw grid of entries does not
        grid_entries = {(0, 1): u}
        m = from_grid(grid_entries)
        assert m.__add__(grid_entries) is NotImplemented and m.__sub__("x") is NotImplemented
        for bad in (grid_entries, "x", 1.5):
            with pytest.raises(TypeError):
                DiffOp.zero() + bad
            with pytest.raises(TypeError):
                m - bad
