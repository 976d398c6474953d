"""The differential polynomial ring: arithmetic, derivations, gcd, bases, parity."""

from fractions import Fraction
from math import gcd
import random

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import (DiffOp, DiffPoly, Grading, RatFun, constant_linear_basis,
                     diff_order, evo_apply, jet, lie_bracket, poly_gcd,
                     variational_derivative)
from diffalg.grammar import format_poly
import diffalg.jets as jets
import diffalg.linalg as linalg
import diffalg.ratfun as ratfun
from diffalg.jets import EXPONENT_LIMIT, accumulate, exponents, monomial
from diffalg.ratfun import _poly_divexact, poly_lcm

from helpers import (from_terms, over_lcm, packed, planted_inputs, rand_poly,
                     ref_add, ref_derivative, ref_linear_basis, ref_mono, ref_mul,
                     ref_partial, ref_sparse_rref, ref_univariate, terms, view)

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)


# -- small strategies for hypothesis -------------------------------------------

monomials = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=2)),
    min_size=0, max_size=3)


@st.composite
def polys(draw):
    out = DiffPoly.zero()
    for order, exp in draw(monomials):
        # non-trivial denominators take the kernels through their lcm scaling
        coeff = Fraction(draw(st.integers(min_value=-3, max_value=3)),
                         draw(st.sampled_from((1, 2, 3, 11, 169))))
        term = DiffPoly.const(coeff)
        for _ in range(exp):
            term = term * jet("u", order)
        out = out + term
    return out


# -- the integer kernels against a plain Fraction reference ---------------------

LAMBDA = Fraction(13, 11)
COEFFS = (Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-5, 6),
          Fraction(7, 9), LAMBDA, LAMBDA ** 8, -LAMBDA ** 5 / 4, Fraction(10 ** 12, 7))


def ref_top(a, name):
    return max((v[0] for m in view(a) for v, _ in m if v[1] == name), default=-1)


def ref_evo(f, g, name):
    """sum_n dg/d(n, name) * d^n f, term by term on Fractions."""
    out, dnf = {}, f
    for n in range(ref_top(g, name) + 1):
        if n:
            dnf = packed(ref_derivative(dnf))
        out = ref_add(packed(out), packed(ref_mul(packed(ref_partial(g, (n, name))), dnf)))
    return out


def ref_variational(f, name):
    """sum_n (-d)^n df/d(n, name), term by term on Fractions."""
    out = {}
    for n in range(ref_top(f, name) + 1):
        t = packed(ref_partial(f, (n, name)))
        for _ in range(n):
            t = packed(ref_derivative(t))
        out = ref_add(packed(out), t, (-1) ** n)
    return out


def ref_bracket(f, g, name):
    return ref_add(packed(ref_evo(f, g, name)), packed(ref_evo(g, f, name)), -1)


def kernel_poly(rng, terms=None):
    """Mixed and large denominators, Laurent exponents, several indeterminates;
    sometimes zero, a constant or a single term."""
    shape = rng.random()
    if shape < 0.08:
        return DiffPoly.zero()
    if shape < 0.2:
        return DiffPoly.const(rng.choice(COEFFS))
    count = 1 if shape < 0.35 else (terms or rng.randint(2, 6))
    out = {}
    for _ in range(count):
        exps = {(rng.randint(0, 4), rng.choice("uuvF")): rng.choice((-2, -1, 1, 1, 2, 3))
                for _ in range(rng.randint(0, 3))}
        out[ref_mono(exps)] = rng.choice(COEFFS)
    return packed(out)


def assert_canonical(p):
    for m, n in p.nums.items():
        assert type(n) is int and n != 0
        v = exponents(m)
        assert v == ref_mono(dict(v)) and len(dict(v)) == len(v)
        assert monomial(v) == m


class TestIntegerKernels:
    def test_match_the_fraction_reference(self):
        rng = random.Random(0x1A7)
        for _ in range(400):
            a, b = kernel_poly(rng), kernel_poly(rng)
            for got, want in ((a * b, ref_mul(a, b)), (a + b, ref_add(a, b)),
                              (a - b, ref_add(a, b, -1)),
                              (a.total_derivative(), ref_derivative(a))):
                assert view(got) == want
                assert_canonical(got)

    def test_sum_of_products(self):
        rng = random.Random(0x50B)
        for _ in range(150):
            pairs = [(kernel_poly(rng), kernel_poly(rng))
                     for _ in range(rng.randint(0, 5))]
            want = {}
            for a, b in pairs:
                want = ref_add(packed(want), packed(ref_mul(a, b)))
            got = sum((a * b for a, b in pairs), DiffPoly.zero())
            assert view(got) == want
            assert_canonical(got)

    def test_prolongation_matches_the_fraction_reference(self):
        rng = random.Random(0xE70)
        for _ in range(300):
            f, g = kernel_poly(rng), kernel_poly(rng)
            name = rng.choice("uuvF")
            bracket = lie_bracket(f, g, name)
            for got, want in ((evo_apply(f, g, name), ref_evo(f, g, name)),
                              (bracket, ref_bracket(f, g, name)),
                              (variational_derivative(f, name), ref_variational(f, name))):
                assert type(got) is DiffPoly and view(got) == want
                assert_canonical(got)
            assert lie_bracket(g, f, name) == -bracket

    def test_exact_cancellation(self):
        rng = random.Random(0xCA7)
        for _ in range(100):
            a, b = kernel_poly(rng, terms=5), kernel_poly(rng, terms=5)
            for zero in (a - a, a + (-a), (a + b) * (a - b) - a * a + b * b,
                         a * b + (-a) * b,
                         a * b + b * (a * -1),
                         (a * b).total_derivative() - a.total_derivative() * b
                         - a * b.total_derivative()):
                assert zero.nums == {} and zero == DiffPoly.zero()

    def test_equal_inputs_hash_equal(self):
        rng = random.Random(0x4A5)
        for _ in range(100):
            a, b, c = (kernel_poly(rng) for _ in range(3))
            left, right = (a + b) * c, c * b + a * c
            assert left == right and hash(left) == hash(right)
            rebuilt = from_terms(dict(reversed(list(terms(left).items()))))
            assert rebuilt == left and hash(rebuilt) == hash(left)


class TestCanonicalForm:
    """A DiffPoly is its numerators over one positive denominator with no
    common factor, so equal polynomials have equal fields and hashes."""

    @staticmethod
    def check(p, want):
        assert p.den > 0 and 0 not in p.nums.values()
        assert gcd(p.den, *p.nums.values()) == 1
        rebuilt = from_terms(terms(p))
        assert rebuilt == p and hash(rebuilt) == hash(p)
        assert view(p) == want

    def test_every_operation_returns_the_canonical_form(self):
        rng = random.Random(0xCA40)
        for _ in range(300):
            a = rand_poly(rng, names=("u", "F")) * rng.choice(COEFFS)
            b = rand_poly(rng, names=("u", "F")) * rng.choice(COEFFS)
            c = rng.choice(COEFFS + (Fraction(0), Fraction(-4, 9)))
            name, order = rng.choice("uF"), rng.randint(0, 4)
            self.check(a + b, ref_add(a, b))
            self.check(a - b, ref_add(a, b, -1))
            self.check(a * b, ref_mul(a, b))
            self.check(a * c, {m: x * c for m, x in view(a).items() if c})
            self.check(a.total_derivative(), ref_derivative(a))
            self.check(a.partial(name, order), ref_partial(a, (order, name)))
            parts = a.as_univariate((order, name))
            want = ref_univariate(a, (order, name))
            assert sorted(parts) == sorted(want)
            for e, part in parts.items():
                self.check(part, want[e])
            # a negative denominator, and a sum that cancelled to zero
            acc = dict(a.nums)
            acc[monomial([((5, "u"), 1)])] = 0
            k = rng.choice((-1, -2, -6, -35))
            self.check(jets._from_numerators(acc, k),
                       {exponents(m): Fraction(n, k) for m, n in acc.items() if n})


class TestNumericTower:
    """A value equal to one of a lower type (Fraction, DiffPoly, RatFun)
    hashes as that value, so either finds the other in a dict; so do two
    operators built by different routes."""

    @pytest.mark.parametrize("high, low", [
        (jet("u"), RatFun(jet("u"))),
        (DiffPoly.const(2), 2),
        (DiffPoly.const(Fraction(-3, 4)), Fraction(-3, 4)),
        (DiffPoly.zero(), 0),
        (RatFun(2), 2),
        (RatFun(0), 0),
        (RatFun(jet("u", 1) * jet("u")), jet("u", 1) * jet("u")),
        (DiffOp.of_function(jet("u")), jet("u")),
        (DiffOp.of_function(RatFun(1, jet("u"))), RatFun(1, jet("u"))),
        (DiffOp.identity(), 1),
        (DiffOp.zero(), 0),
        (RatFun(u1 - 3 * u * u, u * u), u1 * DiffPoly.jet("u", 0, -2) - 3),
        (DiffOp.of_function(DiffPoly.jet("u", 3, -1)), DiffPoly.jet("u", 3, -1)),
        # the integer Leibniz arm against RatFun's constructor
        (DiffOp.d() * RatFun(1, u), DiffOp({1: RatFun(1, u), 0: RatFun(-u1, u * u)})),
    ], ids=["jet-ratfun", "const-int", "const-fraction", "zero-poly",
            "ratfun-int", "zero-ratfun", "ratfun-poly", "op-poly", "op-ratfun",
            "identity-int", "zero-op", "laurent-ratfun", "op-laurent", "op-degree-1"])
    def test_equal_values_hash_equal(self, high, low):
        assert high == low and hash(high) == hash(low)
        assert {low: 1}.get(high) == 1 and {high: 1}.get(low) == 1


class TestPackedMonomials:
    """A monomial is one int with a signed exponent field per jet."""

    def test_round_trip(self):
        rng = random.Random(0x9AC)
        for _ in range(200):
            p = kernel_poly(rng)
            assert_canonical(p)
            assert packed(view(p)) == p

    def test_product_just_inside_the_range(self):
        top = DiffPoly.jet("u", 0, EXPONENT_LIMIT - 2) * u
        assert view(top) == {(((0, "u"), EXPONENT_LIMIT - 1),): 1}
        bottom = DiffPoly.jet("u", 0, 1 - EXPONENT_LIMIT) * DiffPoly.jet("u", 0, -1)
        assert view(bottom) == {(((0, "u"), -EXPONENT_LIMIT),): 1}

    def test_exponent_never_carries_into_the_next_field(self):
        top = DiffPoly.jet("u", 0, EXPONENT_LIMIT - 1)
        bottom = DiffPoly.jet("u", 0, -EXPONENT_LIMIT)
        v = jet("v", 2)
        for overflow in (lambda: top * u, lambda: u * top, lambda: (top + v) * (u + v),
                         lambda: u1 * u2 + (top * v) * u,
                         lambda: bottom * DiffPoly.jet("u", 0, -1),
                         lambda: (bottom * v).total_derivative(),
                         lambda: bottom.partial("u", 0),
                         lambda: DiffPoly.jet("u", 0, EXPONENT_LIMIT),
                         lambda: monomial([((0, "u"), -EXPONENT_LIMIT - 1)])):
            with pytest.raises(OverflowError, match=str(EXPONENT_LIMIT)):
                overflow()

    def test_bracket_past_the_range_raises(self):
        top = EXPONENT_LIMIT - 1
        cases = ((u * DiffPoly.jet("u", 1, top), u2),  # d f holds u'^LIMIT, d^2 f does not
                 (u1 * DiffPoly.jet("u", 0, top), u * u),  # a product holds u^LIMIT
                 (DiffPoly.jet("u", 0, -EXPONENT_LIMIT), u))  # a partial of f leaves the range
        for f, g in cases:
            for left, right in ((f, g), (g, f)):
                with pytest.raises(OverflowError, match=str(EXPONENT_LIMIT)):
                    lie_bracket(left, right)

    def test_bracket_just_inside_the_range(self):
        f = u * DiffPoly.jet("u", 1, EXPONENT_LIMIT - 2) * Fraction(3, 7)
        g = u * u1 * Fraction(-1, 3) + u2 * Fraction(5, 2)
        got = lie_bracket(f, g)
        assert view(got) == ref_bracket(f, g, "u") and got
        assert_canonical(got)
        assert max(e for m in got.nums for _, e in exponents(m)) == EXPONENT_LIMIT - 1

    def test_power_squares_no_further_than_its_top_bit(self, monkeypatch):
        calls = []
        mul = DiffPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(DiffPoly, "__mul__", counting)
        p = (u + u1) ** 8
        # three squarings; the last square is the result, multiplied into no unit
        assert len(calls) == 3
        monkeypatch.undo()
        assert p == (u + u1) * (u + u1) * (u + u1) * (u + u1) * (u + u1) ** 4

    def test_jets_met_concurrently_get_distinct_fields(self):
        # the field index is the one state threads share: threads meeting the
        # same new jets at once must agree on their fields and lose none
        import sys
        import threading
        import diffalg.jets as jets

        threads_n, orders = 8, 40
        start = threading.Barrier(threads_n, timeout=30)
        seen = [[] for _ in range(threads_n)]

        def work(k):
            for order in range(orders):
                start.wait()
                seen[k].append(monomial([((order, "T"), 1), ((order, f"T{k}"), 2)]))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_n)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for k in range(threads_n):
            assert [exponents(m) for m in seen[k]] == [
                ref_mono({(order, "T"): 1, (order, f"T{k}"): 2}) for order in range(orders)]
        assert sorted(jets._FIELD.values()) == list(range(len(jets._JETS)))
        assert all(jets._JETS[i] == v for v, i in jets._FIELD.items())
        assert jets._HALVES == sum(1 << (16 * i + 15) for i in range(len(jets._JETS)))

    def test_per_jet_extremes_and_divisibility_match_the_decoded_views(self):
        # Laurent monomials that lack some jets, with exponents up to the range's
        # ends: |e| in [2**13, 2**14), where ``_small`` says no
        rng = random.Random(0x9E7)
        pool = [(0, "u"), (1, "u"), (3, "u"), (0, "F"), (2, "v")]
        wide = (lambda: rng.randint(-3, 3), lambda: rng.randint(SMALL, EXPONENT_LIMIT - 1),
                lambda: -rng.randint(SMALL, EXPONENT_LIMIT))

        def draw():
            return monomial((v, rng.choice(wide)()) for v in rng.sample(pool, rng.randint(0, 4)))

        def ref(pick, monos):
            views = [dict(exponents(m)) for m in monos]
            return monomial((v, pick(d.get(v, 0) for d in views)) for v in pool)

        for _ in range(300):
            monos = [draw() for _ in range(rng.randint(1, 5))]
            for pick in (min, max):
                assert jets._per_jet(pick, monos) == ref(pick, monos)
            low, high = jets._per_jet(min, monos), jets._per_jet(max, monos)
            for a, b in ((monos[0], draw()), (draw(), monos[0]), (low, monos[-1]),
                         (monos[-1], high), (high, low)):
                da, db = dict(exponents(a)), dict(exponents(b))
                assert jets._divides(a, b) == all(da.get(v, 0) <= db.get(v, 0) for v in pool)
        assert jets._per_jet(min, []) == 0

    def test_division_past_the_small_exponents(self):
        big = DiffPoly.jet("u", 0, 9000)
        assert _poly_divexact(big * (u1 + 1), big) == u1 + 1
        with pytest.raises(ArithmeticError):
            _poly_divexact(DiffPoly.jet("u", 0, 8999), big)


def ref_format(terms):
    """The printer's rules, on terms keyed by decoded views."""
    def jet_text(order, name):
        return name if order == 0 else name + "'" * order if order <= 3 \
            else f"{name}({order})"

    parts = []
    for mono, c in sorted(terms.items(), reverse=True):
        body = "*".join(jet_text(*v) + ("" if e == 1 else f"^{e}")
                        for v, e in sorted(mono))
        text = str(c) if not body else body if c == 1 else f"-{body}" if c == -1 \
            else f"{c}*{body}"
        if parts:
            text = "- " + text[1:] if text.startswith("-") else "+ " + text
        parts.append(text)
    return " ".join(parts) or "0"


class TestMonomialOrder:
    """Fields follow first appearance, but the canonical order stays the tuple
    order of the decoded views."""

    # orders no other test uses, met here high before low and names interleaved
    LATE = [(37, "F"), (33, "v"), (40, "u"), (31, "u"), (38, "v"), (32, "F"),
            (35, "u"), (34, "v"), (39, "F"), (36, "u")]

    def draw(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            exps = {}
            for _ in range(rng.randint(0, 3)):
                v = rng.choice(self.LATE) if rng.random() < 0.4 else \
                    (rng.randint(0, 4), rng.choice("uvF"))
                exps[v] = rng.choice((-3, -1, 1, 1, 2, 5))
            terms[ref_mono(exps)] = rng.choice(COEFFS)
        return terms

    def test_leading_sorted_terms_and_printer(self):
        for v in self.LATE:
            jet(v[1], v[0])
        rng = random.Random(0x0DE)
        for _ in range(300):
            terms = self.draw(rng)
            p = packed(terms)
            want = sorted(terms.items(), reverse=True)
            m, c = p.leading()
            assert (exponents(m), c) == want[0]
            assert format_poly(p) == ref_format(terms)

    def test_products_keep_the_order(self):
        rng = random.Random(0x0DF)
        for _ in range(100):
            a, b = packed(self.draw(rng)), packed(self.draw(rng))
            for p in (a * b, (a * b).total_derivative(), a - b):
                assert format_poly(p) == ref_format(view(p))

    def test_linear_basis_pivots_follow_the_tuple_order(self):
        rng = random.Random(0xB1A)
        for _ in range(60):
            fs = planted_inputs(rng, rng.randint(1, 6), lambda: packed(self.draw(rng)))
            basis, _ = constant_linear_basis(fs)
            assert [view(b) for b in basis] == ref_rref([view(f) for f in fs])


def ref_rref(rows):
    """Dense Gauss-Jordan over columns in descending tuple order: each row's
    pivot is its largest column, as the sparse kernel chooses it."""
    cols = sorted({m for row in rows for m in row}, reverse=True)
    matrix = [[row.get(m, Fraction(0)) for m in cols] for row in rows]
    r = 0  # the rows above r are reduced, with their pivots in order
    for j in range(len(cols)):
        k = next((i for i in range(r, len(matrix)) if matrix[i][j]), None)
        if k is None:
            continue
        matrix[r], matrix[k] = matrix[k], matrix[r]
        inv = 1 / matrix[r][j]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][j]:
                c = matrix[i][j]
                matrix[i] = [x - c * y for x, y in zip(matrix[i], matrix[r])]
        r += 1
    return [{m: x for m, x in zip(cols, row) if x} for row in matrix[:r]]


class TestScalarProduct:
    def test_times_one_is_shared(self):
        # DiffPoly is immutable, so a product by exactly 1 returns the operand
        p = 3 * u * u1 + u2
        assert p * 1 is p
        assert p * Fraction(1) is p
        assert 1 * p is p
        assert p * Fraction(2) == 2 * p and p * Fraction(2) is not p

    def test_one_is_shared(self):
        # the unit is one immutable object, not a fresh dict per query
        assert DiffPoly.const(1) is DiffPoly.const(Fraction(2, 2))
        assert RatFun(u).den is DiffPoly.const(1) and RatFun(u).den.is_one()
        assert not DiffPoly.const(2).is_one() and not u.is_one()


class TestTotalDerivative:
    def test_jet_shift(self):
        assert u.total_derivative() == u1
        assert jet("u", 7).total_derivative() == jet("u", 8)

    def test_leibniz_examples(self):
        assert (u * u).total_derivative() == 2 * u * u1
        assert (u * u1).total_derivative() == u1 * u1 + u * u2

    def test_constant(self):
        assert DiffPoly.const(Fraction(5, 3)).total_derivative().is_zero()

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_derivation(self, f, g):
        lhs = (f * g).total_derivative()
        assert lhs == f.total_derivative() * g + f * g.total_derivative()

    @settings(max_examples=60, deadline=None)
    @given(polys())
    def test_partial_commutator(self, f):
        # [d/du^(n+1), d] = d/du^(n)
        for n in range(0, 3):
            lhs = f.total_derivative().partial("u", n + 1) \
                - f.partial("u", n + 1).total_derivative()
            assert lhs == f.partial("u", n)


def ref_fields_derivative(nums):
    """The total derivative of {monomial: numerator}, decoded with ``_fields``
    and re-packed jet by jet: the reference for both arms of ``_derivative``."""
    out = {}
    for m, n in nums.items():
        exps = {jets._JETS[i]: e for i, e in jets._fields(m)}
        for (order, name), e in exps.items():
            moved = dict(exps)
            moved[order, name] -= 1
            moved[order + 1, name] = moved.get((order + 1, name), 0) + 1
            key = monomial(moved.items())
            out[key] = out.get(key, 0) + n * e
    return {m: n for m, n in out.items() if n}


def arm_nums(rng, exps, names):
    """A few terms with exponents drawn from exps, over jets of these names."""
    out = {}
    for _ in range(rng.randint(1, 6)):
        pairs = {(rng.randint(0, 5), rng.choice(names)): rng.choice(exps)
                 for _ in range(rng.randint(0, 4))}
        key = monomial(pairs.items())
        out[key] = out.get(key, 0) + rng.randint(-9, 9)
    return {m: n for m, n in out.items() if n}


SMALL = EXPONENT_LIMIT // 2  # 2**13: the least exponent that ``jets._small`` refuses


class TestDerivativeArms:
    """``_derivative`` peels a polynomial's digits from the top and a Laurent
    polynomial's signed digits from the bottom, then checks the range."""

    @pytest.mark.parametrize("exps", [(1, 2, 3), (1, 2, SMALL - 1), (-2, -1, 1, 3),
                                      (1, SMALL), (-1, SMALL - 1)],
                             ids=["polynomial", "polynomial-top", "laurent", "wide",
                                  "laurent-wide"])
    @pytest.mark.parametrize("names", ["u", "uF"])
    def test_matches_the_fields_reference(self, exps, names):
        rng = random.Random(0xD1F)
        for _ in range(150):
            nums = arm_nums(rng, exps, names)
            got = jets._derivative(nums)
            assert {m: n for m, n in got.items() if n} == ref_fields_derivative(nums)

    @pytest.mark.parametrize("e, signed", [(SMALL - 1, False), (SMALL, True)])
    def test_the_arms_switch_at_two_to_the_thirteen(self, monkeypatch, e, signed):
        checked = []
        check = jets._check
        monkeypatch.setattr(jets, "_check", lambda keys: checked.append(1) or check(keys))
        # d takes u*u'^e to u'^(e+1) + e*u*u'^(e-1)*u''
        nums = (u * DiffPoly.jet("u", 1, e) * 3 - u3).nums
        assert jets._derivative(nums) == ref_fields_derivative(nums)
        assert bool(checked) == signed

    def test_a_tower_level_drops_the_sums_that_cancel(self):
        # d(2 u u'' - u'^2) = 2 u u''': the two u' u'' terms cancel
        nums = (2 * u * u2 - u1 * u1).nums
        assert 0 in jets._derivative(nums).values()
        levels = list(jets._tower(nums, 3))
        assert [k for k, _ in levels] == [0, 1, 2, 3]
        assert levels[1][1] == (2 * u * u3).nums
        for (_, lower), (_, level) in zip(levels, levels[1:]):
            assert 0 not in level.values() and level == ref_fields_derivative(lower)

    def test_a_tower_ends_where_a_level_vanishes(self):
        assert list(jets._tower(DiffPoly.const(Fraction(5, 3)).nums, 4)) == [(0, {0: 5})]
        assert list(jets._tower({}, 2)) == [(0, {})]


class TestPartials:
    def test_examples(self):
        assert (3 * u * u1).partial("u", 1) == 3 * u
        assert u3.partial("u", 2).is_zero()

    def test_laurent_rule(self):
        inv = from_terms({monomial([((0, "u"), -1)]): 1})
        expected = from_terms({monomial([((0, "u"), -2)]): -1})
        assert inv.partial("u", 0) == expected

    def test_partials_commute(self, rng):
        for _ in range(30):
            f = rand_poly(rng)
            assert f.partial("u", 1).partial("u", 0) == \
                f.partial("u", 0).partial("u", 1)


class TestDiffOrder:
    def test_examples(self):
        assert diff_order(u3 + 3 * u * u1) == 3
        assert diff_order(DiffPoly.const(5)) is None

    def test_shift_raises_order(self, rng):
        for _ in range(30):
            f = rand_poly(rng, nonzero=True)
            if diff_order(f) is None:
                continue
            assert diff_order(f.total_derivative()) == diff_order(f) + 1

    def test_ratfun_order(self):
        r = RatFun(u2, u3)
        assert diff_order(r) == 3
        assert diff_order(RatFun(7)) is None
        assert diff_order(RatFun(u * u3, u3)) == 0


class TestGcdAndRatFun:
    def test_gcd_examples(self):
        a = (u + u1) * (u * u2 + 1)
        b = (u + u1) * u1
        assert poly_gcd(a, b) == u + u1
        assert poly_gcd((u + u1) ** 3 * (u2 + 5), (u + u1) ** 2 * u1) == (u + u1) ** 2
        assert poly_gcd(u * u1, u2 * u2).is_one()

    def test_gcd_divides(self, rng):
        for _ in range(25):
            f = rand_poly(rng, max_order=2, terms=2, nonzero=True)
            g = rand_poly(rng, max_order=2, terms=2, nonzero=True)
            h = poly_gcd(f, g)
            assert h * _poly_divexact(f, h) == f
            assert h * _poly_divexact(g, h) == g

    def test_divexact_raises_when_not_divisible(self):
        with pytest.raises(ArithmeticError):
            _poly_divexact(u * u + 1, u)
        with pytest.raises(ArithmeticError):
            _poly_divexact(u * u + 1, u + 1)

    def test_ratfun_reduction(self):
        r = RatFun((u + u1) * (u * u2 + 1), (u + u1) * u1)
        assert r == RatFun(u * u2 + 1, u1)
        assert r.den == u1

    def test_equality_cross_multiplied(self):
        assert RatFun(2 * u, 2 * u1) == RatFun(u, u1)
        assert RatFun(u * u, u) == RatFun(u)

    def test_laurent_clearing(self):
        r = RatFun(from_terms({monomial([((0, "u"), -1)]): 1}))
        assert r == RatFun(DiffPoly.const(1), u)

    def test_smart_arithmetic_matches_naive(self, rng):
        for _ in range(120):
            a = rand_poly(rng, max_order=2, terms=2, nonzero=True)
            b = rand_poly(rng, max_order=2, terms=2, nonzero=True)
            c = rand_poly(rng, max_order=2, terms=2, nonzero=True)
            d = rand_poly(rng, max_order=2, terms=2, nonzero=True)
            x, y = RatFun(a, b), RatFun(c, d)
            s = x + y
            assert s.num * (b * d) == (a * d + c * b) * s.den
            p = x * y
            assert p.num * (b * d) == (a * c) * p.den
            assert x.total_derivative() == RatFun(
                a.total_derivative() * b - a * b.total_derivative(), b * b)

    def test_lcm(self):
        assert poly_lcm(u, u1) == u * u1
        assert poly_lcm(u * u1, u1) == u * u1

    def test_laurent_input_is_refused(self):
        # every monomial is a unit among Laurent polynomials; these two pairs
        # once came back as the "gcds" u'^-1 and u^-1
        u_inv, u1_inv = DiffPoly.jet("u", 0, -1), DiffPoly.jet("u", 1, -1)
        with pytest.raises(ValueError, match="f has a negative exponent"):
            poly_gcd(u1_inv * u + u * u, u + u1)
        with pytest.raises(ValueError, match="g has a negative exponent"):
            poly_gcd(u + u1, u1_inv * u + u * u)
        with pytest.raises(ValueError, match="f has a negative exponent"):
            poly_gcd(u_inv * u1 + u, u_inv * u2)
        with pytest.raises(ValueError, match="negative exponent"):
            poly_lcm(u_inv * u1 + u, u2)
        with pytest.raises(ValueError, match="negative exponent"):
            poly_lcm(u1 + u, u_inv * u2)

    def test_field_axioms(self, rng):
        from helpers import rand_ratfun
        for _ in range(60):
            x, y, z = (rand_ratfun(rng) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x - x == RatFun(0)
            if not x.is_zero():
                assert x * x.inverse() == RatFun(1)
                assert (y / x) * x == y


class TestLinearBasis:
    def test_dependent_pair(self):
        basis, coords = constant_linear_basis([u, 2 * u])
        assert basis == [u]
        assert coords == [[Fraction(1)], [Fraction(2)]]

    def test_independent_pair(self):
        basis, _ = constant_linear_basis([u, u1])
        assert len(basis) == 2

    def test_rank_two(self):
        basis, coords = constant_linear_basis([u + u1, u - u1, u])
        assert len(basis) == 2
        for f, c in zip([u + u1, u - u1, u], coords):
            rebuilt = DiffPoly.zero()
            for x, b in zip(c, basis):
                rebuilt = rebuilt + x * b
            assert rebuilt == f

    def test_ratfun_inputs(self):
        one_over_u = RatFun(DiffPoly.const(1), u)
        basis, coords = constant_linear_basis([one_over_u, RatFun(2, u)])
        assert len(basis) == 1

    def test_span_check_stays(self, monkeypatch):
        # a kernel that loses u: its one (pivot, integer row) is the constant 1
        one = next(iter(DiffPoly.const(1).nums))
        monkeypatch.setattr(linalg, "_rref",
                            lambda rows, key=None: [(one, {one: 1})])
        with pytest.raises(AssertionError, match="escaped its own span"):
            constant_linear_basis([u])


class TestLinearBasisOracle:
    """constant_linear_basis against sympy's reduced row echelon form."""

    def test_matches_sympy_rref(self, rng):
        sympy = pytest.importorskip("sympy")
        dens = [DiffPoly.const(1), u, u1 + 2, u * u2 - u1]
        for trial in range(60):
            rational = trial % 2 == 1
            if rational:
                def draw():
                    return RatFun(rand_poly(rng, terms=3, nonzero=True),
                                  rng.choice(dens))
            else:
                def draw():
                    return rand_poly(rng, terms=4, nonzero=True)
            fs = planted_inputs(rng, rng.randint(1, 6), draw)
            basis, coords = constant_linear_basis(fs)
            # the oracle's rows: the inputs over their common denominator
            den = DiffPoly.const(1)
            if rational:
                for f in fs:
                    den = poly_lcm(den, f.den)
            rows = [terms((RatFun.coerce(f) * den).as_diffpoly()) for f in fs]
            cols = sorted({m for row in rows for m in row}, key=exponents, reverse=True)
            matrix = sympy.Matrix([[row.get(m, 0) for m in cols] for row in rows])
            reduced, pivots = matrix.rref()
            basis_rows = [terms((RatFun.coerce(b) * den).as_diffpoly()) for b in basis]
            assert basis_rows == [{m: Fraction(str(reduced[i, j]))
                                   for j, m in enumerate(cols) if reduced[i, j] != 0}
                                  for i in range(len(pivots))]
            assert [max(row, key=exponents) for row in basis_rows] == [cols[j] for j in pivots]
            for f, c in zip(fs, coords):
                rebuilt = RatFun(0)
                for x, b in zip(c, basis):
                    rebuilt = rebuilt + RatFun.coerce(b) * x
                assert rebuilt == RatFun.coerce(f)



class TestEchelonReference:
    """The integer echelon kernel against the Fraction loop it replaced
    (helpers.ref_sparse_rref and ref_linear_basis), compared by repr."""

    @pytest.mark.parametrize("columns", ["monomials", "integers"])
    def test_rref_matches_the_fraction_loop(self, columns):
        rng = random.Random(0xEC4)
        key = exponents if columns == "monomials" else None
        for _ in range(150):
            rows = []
            for _ in range(rng.randint(1, 7)):
                if rows and rng.random() < 0.35:  # a planted dependent row
                    row = {}
                    for r in rng.sample(rows, rng.randint(1, len(rows))):
                        c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                        for k, v in r.items():
                            accumulate(row, k, c * v)
                elif columns == "monomials":
                    row = terms(kernel_poly(rng, terms=4))
                else:  # the columns -i of basis_mod_total_derivatives
                    row = {-rng.randint(0, 6): rng.choice(COEFFS)
                           for _ in range(rng.randint(1, 4))}
                rows.append(row)
            got = linalg._rref((over_lcm(r)[0] for r in rows), key=key)
            for p, row in got:
                assert row[p] > 0 and gcd(*row.values()) == 1
            assert repr([{k: Fraction(v, row[p]) for k, v in row.items()}
                         for p, row in got]) == repr(ref_sparse_rref(rows, key=key))

    @pytest.mark.parametrize("kind", ["polynomial", "rational", "laurent"])
    def test_linear_basis_matches_the_fraction_loop(self, kind):
        rng = random.Random(0xB45)
        dens = [u, u1 + 2, u * u2 - u1, u1 * u1]
        for _ in range(80):
            def draw():
                f = rand_poly(rng, terms=4, names=("u", "F"), nonzero=True)
                f = f * rng.choice(COEFFS)
                if kind == "polynomial" or rng.random() < 0.3:
                    return f
                if kind == "laurent" and rng.random() < 0.5:
                    return f * DiffPoly.jet("u", 1, -1)  # a DiffPoly over u'
                return RatFun(f, rng.choice(dens))
            fs = planted_inputs(rng, rng.randint(1, 6), draw)
            assert repr(constant_linear_basis(fs)) == repr(ref_linear_basis(fs))



class TestGcdOracle:
    """poly_gcd, _poly_divexact and the RatFun normal form against sympy, on
    several names, jets first met after lower ones, and Laurent monomials."""

    # orders 21-24 appear in no other test, so this suite meets them first,
    # after the low jets every suite uses
    JETS = [(o, n) for o in (0, 1, 2, 21, 22, 24) for n in "uvF"]

    def draw(self, rng, terms=3, laurent=False):
        out = DiffPoly.zero()
        for _ in range(rng.randint(1, terms)):
            t = DiffPoly.const(Fraction(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 1, 2, 7))))
            for _ in range(rng.randint(0, 2)):
                order, name = rng.choice(self.JETS)
                e = rng.choice((-2, -1, 1, 2)) if laurent else rng.choice((1, 1, 2))
                t = t * DiffPoly.jet(name, order, e)
            out = out + t
        return out if out else jet("u", 21)

    @staticmethod
    def to_sympy(sympy, p):
        expr = sympy.Integer(0)
        for m, c in terms(p).items():
            term = sympy.Rational(c.numerator, c.denominator)
            for (order, name), e in exponents(m):
                term *= sympy.Symbol(f"{name}_{order}") ** e
            expr += term
        return expr

    def test_gcd_matches_sympy_up_to_a_unit(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0x6CD)
        for _ in range(30):
            a, b, c = self.draw(rng), self.draw(rng), self.draw(rng, terms=2)
            f, g = a * c, b * c
            ours = poly_gcd(f, g)
            assert ours.leading()[1] == 1
            theirs = sympy.gcd(self.to_sympy(sympy, f), self.to_sympy(sympy, g))
            ratio = sympy.cancel(self.to_sympy(sympy, ours) / theirs)
            assert ratio.is_Rational and ratio != 0

    def test_gcd_with_the_main_jet_on_one_side_matches_sympy(self):
        """The greatest jet of the pair occurs in one input only, on either
        side: the gcd is then the other input's gcd with the content."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0xF01D)
        top = jet("v", 25)  # above every jet that draw makes
        for trial in range(30):
            a, b, c = self.draw(rng), self.draw(rng), self.draw(rng, terms=2)
            f, g = a * c * (top * self.draw(rng, terms=2) + self.draw(rng)), b * c
            if trial % 2:
                f, g = g, f
            ours = poly_gcd(f, g)
            assert ours.leading()[1] == 1
            theirs = sympy.gcd(self.to_sympy(sympy, f), self.to_sympy(sympy, g))
            ratio = sympy.cancel(self.to_sympy(sympy, ours) / theirs)
            assert ratio.is_Rational and ratio != 0

    def test_subresultant_last_has_the_gcd_degree_on_integers(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(0x5B7)

        def draw(degree):
            return sympy.Poly([rng.choice((1, -1, 2, -3))]
                              + [rng.randint(-4, 4) for _ in range(degree)], x)

        for _ in range(100):
            c = draw(rng.randint(0, 3))
            f, g = draw(rng.randint(0, 4)) * c, draw(rng.randint(0, 4)) * c
            last = ratfun._subresultant_last(
                {m: int(k) for (m,), k in f.terms()},
                {m: int(k) for (m,), k in g.terms()}, ratfun._intdiv)
            assert max(last) == sympy.degree(sympy.gcd(f, g), x)

    def test_coprime_image_never_clears_a_shared_factor(self):
        """The screen may only prove coprimality: on a*c, b*c with c of
        positive degree in the main jet it never answers True."""
        rng = random.Random(0xC0B)
        for _ in range(200):
            a, b, c = self.draw(rng), self.draw(rng), self.draw(rng, terms=2)
            main = max((v for p in (a, b, c) for m in p.nums for v, _ in exponents(m)),
                       default=(21, "u"))
            if not c.as_univariate(main).keys() - {0}:
                c = c + DiffPoly.jet(main[1], main[0])
            f, g = a * c, b * c
            assert not ratfun._coprime_image(f, g, main, max(f.as_univariate(main)),
                                             max(g.as_univariate(main)))

    def test_divexact_matches_sympy_div(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0xD1F)
        for trial in range(40):
            a, b = self.draw(rng), self.draw(rng)
            f = a * b if trial % 3 else a * b + self.draw(rng, terms=1)
            gens = sorted(self.to_sympy(sympy, f * b).free_symbols, key=str) \
                or [sympy.Symbol("u_0")]
            q, r = sympy.div(sympy.Poly(self.to_sympy(sympy, f), *gens),
                             sympy.Poly(self.to_sympy(sympy, b), *gens))
            if r.is_zero:
                assert sympy.expand(self.to_sympy(sympy, _poly_divexact(f, b))
                                    - q.as_expr()) == 0
            else:
                with pytest.raises(ArithmeticError):
                    _poly_divexact(f, b)

    def test_divexact_on_contents_and_signs_matches_sympy_div(self):
        """Divisors whose numerators share a factor, with either sign of
        leading coefficient, and near misses whose quotient over Q would be
        an integer polynomial only up to a scale."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0xD1F2)
        scales = (Fraction(1), Fraction(-1), Fraction(6), Fraction(-10, 3),
                  Fraction(35, 4), Fraction(-2, 21), Fraction(10 ** 9, 7))
        for trial in range(60):
            a, b = self.draw(rng), self.draw(rng) * rng.choice(scales)
            f = a * b * rng.choice(scales)
            if trial % 3 == 0:
                f = f + self.draw(rng, terms=1)
            elif trial % 3 == 1 and not b.is_constant():
                # divisible only by b's multiples that scale one term apart
                m, c = b.leading()
                f = a * (b + DiffPoly._of({m: 1}) * (c / 2))
            gens = sorted(self.to_sympy(sympy, f * b).free_symbols, key=str) \
                or [sympy.Symbol("u_0")]
            q, r = sympy.div(sympy.Poly(self.to_sympy(sympy, f), *gens),
                             sympy.Poly(self.to_sympy(sympy, b), *gens))
            if r.is_zero:
                ours = _poly_divexact(f, b)
                assert sympy.expand(self.to_sympy(sympy, ours) - q.as_expr()) == 0
                assert ours * b == f
            else:
                with pytest.raises(ArithmeticError):
                    _poly_divexact(f, b)

    def test_divexact_refuses_a_quotient_off_the_integers(self):
        # 2u + 3 has no integer multiple equal to u + 1, so the integer
        # division stops at its first leading coefficient
        with pytest.raises(ArithmeticError):
            _poly_divexact(u + 1, 2 * u + 3)
        assert _poly_divexact(4 * u * u + 12 * u + 9, Fraction(-2, 3) * (2 * u + 3)) \
            == Fraction(-3, 2) * (2 * u + 3)

    def test_divexact_when_a_remainder_monomial_cancels_and_returns(self):
        """Dividing f = a*b by b = -2u'^2 + 2u' + 1: the first step cancels
        the remainder's u'^3, the second brings it back, and the third leads
        with it while a step remains.  The same in two jets, homogenised
        with u.  The quotient matches sympy.div, and its terms come in
        descending order, one per step."""
        sympy = pytest.importorskip("sympy")
        u1 = jet("u", 1)
        for a, b in ((u1 ** 3 + u1 ** 2 + u1 - 1, -2 * u1 ** 2 + 2 * u1 + 1),
                     (u1 ** 3 + u1 ** 2 * u + u1 * u ** 2 - u ** 3,
                      -2 * u1 ** 2 + 2 * u1 * u + u ** 2)):
            f = a * b
            gens = sorted(self.to_sympy(sympy, f).free_symbols, key=str)
            q, r = sympy.div(sympy.Poly(self.to_sympy(sympy, f), *gens),
                             sympy.Poly(self.to_sympy(sympy, b), *gens))
            assert r.is_zero
            ours = _poly_divexact(f, b)
            assert sympy.expand(self.to_sympy(sympy, ours) - q.as_expr()) == 0
            assert list(ours.nums) == sorted(ours.nums, key=exponents, reverse=True)

    def test_laurent_arithmetic_matches_sympy_with_no_gcd(self, monkeypatch):
        """Over denominators of one term, RatFun's constructor, sum, product,
        total derivative and partials are Laurent arithmetic: each result is
        the normal form of sympy.cancel, and no poly_gcd runs."""
        sympy = pytest.importorskip("sympy")
        calls = []
        gcd_ = ratfun.poly_gcd
        monkeypatch.setattr(ratfun, "poly_gcd", lambda f, g: calls.append(1) or gcd_(f, g))
        rng = random.Random(0x1A4)
        for _ in range(20):
            f, g = self.draw(rng, laurent=True), self.draw(rng, laurent=True)
            mono = self.draw(rng, terms=1, laurent=True)  # c times a monomial
            order, name = rng.choice(self.JETS)
            x, y = RatFun(f), RatFun(g, mono)
            sx, sy = self.to_sympy(sympy, f), self.to_sympy(sympy, g) / self.to_sympy(sympy, mono)
            dy = sum(sympy.diff(sy, s) * sympy.Symbol(f"{s.name[0]}_{int(s.name[2:]) + 1}")
                     for s in sy.free_symbols)
            for ours, theirs in ((x, sx), (y, sy), (x + y, sx + sy), (x * y, sx * sy),
                                 (y.total_derivative(), dy),
                                 (y.partial(name, order),
                                  sympy.diff(sy, sympy.Symbol(f"{name}_{order}")))):
                assert len(ours.den.nums) == 1 and ours.den.leading()[1] == 1
                assert not (ours.num.has_negative_exponent()
                            or ours.den.has_negative_exponent())
                p, q = sympy.fraction(sympy.cancel(theirs))
                num, den = self.to_sympy(sympy, ours.num), self.to_sympy(sympy, ours.den)
                assert sympy.expand(num * q - p * den) == 0
                assert sympy.cancel(den / q).is_Rational
        assert not calls

    def test_ratfun_normal_form_matches_sympy_cancel(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0xCA4)
        for _ in range(24):
            common = self.draw(rng, terms=2)
            n = self.draw(rng, laurent=True) * common
            d = self.draw(rng, laurent=True) * common
            r = RatFun(n, d)
            assert not r.num.has_negative_exponent()
            assert not r.den.has_negative_exponent()
            assert r.den.leading()[1] == 1
            p, q = sympy.fraction(sympy.cancel(self.to_sympy(sympy, n)
                                               / self.to_sympy(sympy, d)))
            num, den = self.to_sympy(sympy, r.num), self.to_sympy(sympy, r.den)
            assert sympy.expand(num * q - p * den) == 0
            assert sympy.cancel(den / q).is_Rational


class TestParity:
    even = Grading({"u": "even"})
    odd = Grading({"u": "odd"})

    def test_examples(self):
        assert self.even.of_poly(u1) == 1
        assert self.even.of_poly(u3 + 3 * u * u1) == 1
        assert self.even.of_poly(u + u1) is None  # mixed

    def test_derivative_flips_parity(self, rng):
        for _ in range(40):
            f = rand_poly(rng, nonzero=True)
            p = self.even.of_poly(f)
            if p is None:
                continue
            flipped = self.even.of_poly(f.total_derivative())
            if f.total_derivative().is_zero():
                continue
            assert {p, flipped} == {0, 1}

    def test_unassigned_raises(self):
        with pytest.raises(ValueError):
            self.even.of_poly(jet("F"))

    def test_ratfun_parity(self):
        assert self.even.of_ratfun(RatFun(u1, u)) == 1
        assert self.even.of_ratfun(RatFun(u1 + u, u)) is None
