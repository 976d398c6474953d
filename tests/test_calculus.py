"""Evolutionary fields, brackets, variational calculus, exact integration."""

from fractions import Fraction

import pytest

from diffalg import (DiffPoly, RatFun, basis_mod_total_derivatives, evo_apply,
                     integrate, is_total_derivative, jet, lie_bracket,
                     parse_function, potential, variational_derivative)
from diffalg.calculus import _integrate_reduce, _split, brackets
from diffalg.errors import NotExact, NotVariational, Unsupported
from diffalg.jets import EXPONENT_LIMIT, exponents
from diffalg.operators import helmholtz_residual

from helpers import rand_poly, ref_integrate_reduce, ref_lie_bracket, terms

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
F, G, H = jet("F"), jet("G"), jet("H")


class TestEvolutionaryFields:
    def test_maps_u_to_characteristic(self):
        assert evo_apply(F, u) == F
        assert evo_apply(u3 + 3 * u * u1, u) == u3 + 3 * u * u1

    def test_d_is_the_field_of_u1(self, rng):
        for _ in range(30):
            g = rand_poly(rng)
            assert evo_apply(u1, g) == g.total_derivative()

    def test_scaling_field(self):
        assert evo_apply(u, u2) == u2

    def test_commutes_with_total_derivative(self, rng):
        for _ in range(30):
            f = rand_poly(rng, max_order=3)
            g = rand_poly(rng, max_order=3)
            assert evo_apply(f, g.total_derivative()) == \
                evo_apply(f, g).total_derivative()

    def test_field_commutator(self, rng):
        # [X_F, X_G] = X_{{F, G}} applied to a random probe
        for _ in range(20):
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            h = rand_poly(rng, max_order=2, terms=2)
            lhs = evo_apply(f, evo_apply(g, h)) - evo_apply(g, evo_apply(f, h))
            assert lhs == evo_apply(lie_bracket(f, g), h)


class TestLieBracket:
    def test_skew(self, rng):
        for _ in range(20):
            f = rand_poly(rng)
            assert lie_bracket(f, f).is_zero()

    def test_u1_central(self, rng):
        for _ in range(20):
            g = rand_poly(rng)
            assert lie_bracket(u1, g).is_zero()

    def test_kdv_fifth_order_commutes(self):
        s1 = parse_function("u''' + 3*u*u'")
        s2 = parse_function("u(5) + 5*u*u''' + 10*u'*u'' + 15/2*u^2*u'")
        assert lie_bracket(s1, s2).is_zero()

    def test_jacobi(self, rng):
        for _ in range(20):
            f = rand_poly(rng, max_order=2, terms=2)
            g = rand_poly(rng, max_order=2, terms=2)
            h = rand_poly(rng, max_order=2, terms=2)
            total = (lie_bracket(f, lie_bracket(g, h))
                     + lie_bracket(g, lie_bracket(h, f))
                     + lie_bracket(h, lie_bracket(f, g)))
            assert total.is_zero()

    def test_nonzero_example(self):
        assert lie_bracket(u, u * u) == u * u

    def test_rational_operands(self):
        r = RatFun(u2, u)
        assert lie_bracket(u1, r).is_zero() and lie_bracket(r, u1).is_zero()
        assert lie_bracket(r, r).is_zero()
        assert lie_bracket(RatFun(u), RatFun(u * u)) == RatFun(u * u)
        assert lie_bracket(r, u) == evo_apply(r, u) - evo_apply(u, r) != 0

    def test_matches_sympy(self, rng):
        """{f, g} = sum dg/du_n d^n f - sum df/du_n d^n g, computed by sympy over
        explicit jet symbols u_0 .. u_11 (orders up to 5, so d^5 f fits)."""
        sympy = pytest.importorskip("sympy")
        ring, *jets = sympy.polys.rings.ring("u_0:12", sympy.QQ)

        def d(p):
            return sum(p.diff(x) * y for x, y in zip(jets, jets[1:]))

        def field(f, g):
            out, dnf = 0, f
            for x in jets[:6]:
                out += g.diff(x) * dnf
                dnf = d(dnf)
            return out

        def to_sympy(p):
            out = ring.zero
            for m, c in terms(p).items():
                term = ring(sympy.QQ(c.numerator, c.denominator))
                for (order, _), e in exponents(m):
                    term *= jets[order] ** e
                out += term
            return out

        def draw():
            return (rand_poly(rng, max_order=5, terms=4)
                    * Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7, 12))))

        for _ in range(50):
            f, g = draw(), draw()
            f_s, g_s = to_sympy(f), to_sympy(g)
            assert to_sympy(lie_bracket(f, g)) == field(f_s, g_s) - field(g_s, f_s)
        for _ in range(10):
            fs = [draw() for _ in range(4)]
            f_s = [to_sympy(f) for f in fs]
            got = brackets(fs)
            assert list(got) == [(i, j) for i in range(4) for j in range(i + 1, 4)]
            for (i, j), r in got.items():
                assert to_sympy(r) == field(f_s[i], f_s[j]) - field(f_s[j], f_s[i])


class TestBrackets:
    """brackets streams one tower per member for all pairs; the per-pair
    loop it replaced is the reference."""

    @staticmethod
    def member(rng):
        kind = rng.random()
        if kind < 0.08:
            return DiffPoly.zero()
        if kind < 0.16:
            return DiffPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        f = (rand_poly(rng, max_order=5, terms=4, names=("u", "F"), nonzero=True)
             * Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.choice((1, 2, 3, 7, 12))))
        if kind < 0.28:  # Laurent in the bracket's own indeterminate
            f = f * DiffPoly.jet("u", rng.randint(0, 3), -1)
        elif kind < 0.5:  # a total derivative d(g), split by brackets
            f = TestBrackets.exact_member(rng)
        elif kind < 0.56:  # a Laurent total derivative, which stays whole
            f = (f * DiffPoly.jet("u", rng.randint(0, 3), -1)).total_derivative()
        return f

    @staticmethod
    def exact_member(rng):
        """d(g) for a random g in u and F, over a denominator other than 1."""
        while True:
            g = (rand_poly(rng, max_order=4, terms=4, names=("u", "F"))
                 * Fraction(rng.choice((-5, 1, 2, 3)), rng.choice((7, 12, 35))))
            f = g.total_derivative()
            if f.den != 1:
                return f

    def test_matches_the_per_pair_reference(self, rng):
        nonzero = 0
        for _ in range(120):
            fs = [self.member(rng) for _ in range(rng.randint(1, 6))]
            got = brackets(fs)
            assert list(got) == [(i, j) for i in range(len(fs))
                                 for j in range(i + 1, len(fs))]
            for (i, j), r in got.items():
                assert repr(r) == repr(ref_lie_bracket(fs[i], fs[j]))
                nonzero += not r.is_zero()
        assert nonzero > 100

    def test_exact_members_are_split(self, rng):
        for _ in range(60):
            f = self.exact_member(rng)
            assert f.den != 1 and not f.has_negative_exponent()
            whole, q, exact = _split(f)
            assert whole is f and exact and q.total_derivative() == f
        for f in (u1 * u1, DiffPoly.const(3), (u1 * DiffPoly.jet("u", 0, -1)).total_derivative()):
            assert _split(f) == (f, f, False)

    def test_exact_meets_whole(self, rng):
        """Pairs of a split member f_j = d(Q_j) and a whole one f_i, with
        both parts nonzero: d(X_{f_i}(Q_j)) and -X_{f_j}(f_i)."""
        both = 0
        for _ in range(60):
            fs = [self.exact_member(rng) for _ in range(rng.randint(1, 3))]
            fs += [rand_poly(rng, max_order=4, terms=3, names=("u", "F"), nonzero=True)
                   * Fraction(rng.choice((-3, 1, 5)), rng.choice((1, 4, 9)))
                   for _ in range(rng.randint(1, 3))]
            rng.shuffle(fs)
            got = brackets(fs)
            for (i, j), r in got.items():
                assert repr(r) == repr(ref_lie_bracket(fs[i], fs[j]))
                (_, q_i, exact_i), (_, q_j, exact_j) = _split(fs[i]), _split(fs[j])
                if exact_i != exact_j:
                    q, whole, exact = (q_j, fs[i], fs[j]) if exact_j else (q_i, fs[j], fs[i])
                    h, rest = evo_apply(whole, q), evo_apply(exact, whole)
                    both += not h.is_constant() and not rest.is_zero() and not r.is_zero()
        assert both > 40

    def test_overflowing_antiderivative_stays_whole(self):
        f = u ** (EXPONENT_LIMIT - 1) * u1  # its antiderivative needs u^EXPONENT_LIMIT
        with pytest.raises(OverflowError):
            integrate(f)
        assert _split(f) == (f, f, False)
        fs = [f, u1, u2 + F, u3]
        for (i, j), r in brackets(fs).items():
            assert repr(r) == repr(ref_lie_bracket(fs[i], fs[j]))

    def test_split_bracket_past_the_range_raises(self):
        f = DiffPoly.jet("u", 0, EXPONENT_LIMIT - 1).total_derivative()
        assert _split(f)[2]  # Q = u^(LIMIT - 1), and X_{u^3}(Q) holds u^(LIMIT + 1)
        messages = set()
        for run in (lambda: brackets([f, u ** 3]), lambda: brackets([u ** 3, u1, f]),
                    lambda: lie_bracket(f, u ** 3)):
            with pytest.raises(OverflowError, match=str(EXPONENT_LIMIT)) as err:
                run()
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_unlike_denominators_and_the_other_name(self):
        f = Fraction(1, 3) * u * u1 + Fraction(2, 5) * F * u
        g = Fraction(1, 7) * u3 + Fraction(3, 2) * F * jet("F", 2)
        h = Fraction(5, 4) * u2 * jet("F", 1)
        got = brackets([f, g, h])
        for (i, j), r in got.items():
            pair = [(f, g, h)[i], (f, g, h)[j]]
            assert repr(r) == repr(ref_lie_bracket(*pair)) == repr(lie_bracket(*pair))
            assert not r.is_zero()
        # a member free of u contributes no partials, only its own tower
        assert brackets([F, u1]) == {(0, 1): jet("F", 1)}

    def test_small_lists(self):
        assert brackets([]) == {} and brackets([u3 * u]) == {}
        assert brackets([u, u * u]) == {(0, 1): u * u}

    def test_rational_member_takes_the_rational_arm(self):
        r = RatFun(u2, u)
        fs = [u1, r, u * u]
        got = brackets(fs)
        assert list(got) == [(0, 1), (0, 2), (1, 2)]
        for (i, j), b in got.items():
            assert b == evo_apply(fs[i], fs[j]) - evo_apply(fs[j], fs[i])
        assert not got[1, 2].is_zero()


class TestVariationalDerivative:
    def test_examples(self):
        assert variational_derivative(u1 * u1 * Fraction(1, 2)) == -u2
        assert variational_derivative(u ** 3) == 3 * u ** 2
        assert variational_derivative(u * u2) == 2 * u2

    def test_u_u2_congruent_to_minus_u1_squared(self):
        # u*u'' + u'^2 = (u*u')' is exact
        assert is_total_derivative(u * u2 + u1 * u1)

    def test_kills_total_derivatives(self, rng):
        for _ in range(40):
            g = rand_poly(rng)
            assert variational_derivative(g.total_derivative()).is_zero()


class TestIntegrate:
    def test_examples(self):
        assert integrate(u2) == u1
        assert integrate(u1 * u2) == u1 * u1 * Fraction(1, 2)
        assert integrate(u3 + 3 * u * u1) == u2 + Fraction(3, 2) * u ** 2

    def test_not_exact(self):
        with pytest.raises(NotExact) as err:
            integrate(u1 * u1)
        assert err.value.residual is not None
        assert variational_derivative(u1 * u1) == -2 * u2

    def test_nonzero_constant_is_not_exact(self):
        with pytest.raises(NotExact):
            integrate(DiffPoly.const(3))

    def test_inverts_total_derivative(self, rng):
        for _ in range(60):
            h = rand_poly(rng)
            recovered = integrate(h.total_derivative())
            constant = DiffPoly.const(h.constant_term())
            assert recovered == h - constant

    def test_multi_indeterminate(self):
        mixed = (u * F).total_derivative()
        assert integrate(mixed) == u * F

    def test_laurent_log_case_not_supported(self):
        # u'*u^-1 = d(log u) has no Laurent antiderivative
        with pytest.raises(Unsupported):
            integrate(parse_function("u^-1*u'"))

    def test_reduce_returns_constant_residual(self):
        h, r = _integrate_reduce(u1 * u + DiffPoly.const(4))
        assert r == DiffPoly.const(4)
        assert h.total_derivative() == u1 * u

    @pytest.mark.parametrize("names", [("u", "F"), ("F", "u")])
    def test_cycling_peels_return_the_residual(self, names):
        """Two indeterminates at the same top order: peeling one brings the
        other back, and the rests alternate with period 2."""
        a, b = names
        f = parse_function(
            f"-2*{b}'''*{a}(4) - 2*{a}'''*{b}(4) - {a}'*{b}''*{a}''' "
            f"+ {a}*{b}''' + {a}'*{b}'' + 4", ("u", "F"))
        assert not is_total_derivative(f)
        h, residual = _integrate_reduce(f)
        assert residual == parse_function(f"-{a}'*{b}''*{a}''' + 4", ("u", "F"))
        assert h.total_derivative() + residual == f
        with pytest.raises(NotExact) as err:
            integrate(f)
        assert err.value.residual == residual


class TestIntegrateReduceOracle:
    """The bucketed integer pass against the loop it replaced
    (``helpers.ref_integrate_reduce``): the same (h, residual), or the same
    exception with the same message."""

    @staticmethod
    def outcome(fn, f):
        try:
            h, residual = fn(f)
        except (Unsupported, OverflowError, AssertionError) as exc:
            return type(exc), str(exc)
        assert h.total_derivative() + residual == f
        return repr(h), repr(residual)

    def check(self, f):
        got = self.outcome(_integrate_reduce, f)
        assert got == self.outcome(ref_integrate_reduce, f)
        return got

    @staticmethod
    def draw(rng):
        """A seeded input: exact, exact plus a non-exact part, non-exact,
        constant or Laurent, over one to three indeterminates."""
        names = rng.choice((("u",), ("u",), ("u", "F"), ("F", "u", "G")))
        kind = rng.random()
        if kind < 0.08:
            return DiffPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        g = (rand_poly(rng, max_order=5, terms=4, names=names)
             * Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7, 12))))
        if rng.random() < 0.2:
            g = g * DiffPoly.jet(rng.choice(names), rng.randint(0, 4), -rng.randint(1, 3))
        if kind < 0.55:
            f = g.total_derivative()
            if kind > 0.4:
                f = f + rand_poly(rng, max_order=4, names=names)
            return f
        return g

    def test_matches_the_old_loop(self, rng):
        seen = {"exact": 0, "residual": 0, "multi": 0, "refused": 0}
        for _ in range(400):
            f = self.draw(rng)
            got = self.check(f)
            if isinstance(got[0], type):
                seen["refused"] += 1
            else:
                seen["exact" if got[1] == repr(DiffPoly.zero()) else "residual"] += 1
            seen["multi"] += len(f.indets()) > 1
        assert seen["exact"] > 100 and seen["residual"] > 100
        assert seen["multi"] > 100 and seen["refused"] > 0

    @pytest.mark.parametrize("names", [("u", "F"), ("F", "u")])
    def test_cycling_family(self, rng, names):
        """The period-2 family of TestIntegrate, scaled, with exact parts and
        constants added."""
        a, b = names
        base = parse_function(
            f"-2*{b}'''*{a}(4) - 2*{a}'''*{b}(4) - {a}'*{b}''*{a}''' + {a}*{b}''' "
            f"+ {a}'*{b}''", ("u", "F"))
        for _ in range(20):
            extra = rand_poly(rng, max_order=2, names=("u", "F")).total_derivative()
            f = (base * Fraction(rng.randint(1, 9), rng.randint(1, 9)) + extra
                 + Fraction(rng.randint(-3, 3)))
            assert self.check(f)[1] != repr(DiffPoly.zero())

    @pytest.mark.parametrize("layer", [
        "u'*u'' + u'^3*u''",
        "u'^3*u'' + u'*u'' + 5*u'^5*u''",
        "u*u'^3*u'' + 1/4*u'^5 - 7*u'^-2*u'' + u'*u''",
        "3*u'^2*u''*u''' + 3*u'*u''^3 + u'^3*u''",
    ])
    def test_rescaling_over_one_layer(self, rng, layer):
        """An exact f whose top layer has terms divided by e+1 = 2, 4, 6 or
        -1, so the running denominator grows by each factor in turn."""
        layer = parse_function(layer)
        for _ in range(10):
            exact = rand_poly(rng, max_order=1).total_derivative()
            f = layer * Fraction(rng.choice((1, 3, 5, 7)), rng.randint(1, 9)) + exact
            assert self.check(f)[1] == repr(DiffPoly.zero())
            self.check(f + rand_poly(rng, max_order=2))

    def test_refusals_and_stop_order(self):
        assert self.check(parse_function("u^-1*u'"))[0] is Unsupported
        # the top jet at exponent 2 stops the peel before the -1 below it is
        # reached, so f comes back whole rather than refused
        f = parse_function("u''^2*u'^-1 + u''*u'^-1")
        assert self.check(f) == (repr(DiffPoly.zero()), repr(f))
        # a -1 below a peelable top jet is refused
        assert self.check(parse_function("u''*u'^-1 + u'"))[0] is Unsupported

    def test_exponents_near_the_limit(self):
        top = EXPONENT_LIMIT - 1
        u1_top = DiffPoly.jet("u", 1, top)
        # the integral would need u'^EXPONENT_LIMIT
        assert self.check(u1_top * u2)[0] is OverflowError
        # one below, it still integrates
        assert self.check(DiffPoly.jet("u", 1, top - 1) * u2)[1] == repr(DiffPoly.zero())
        # the derivative of the peel raises u' past the limit
        assert self.check(u1_top * u * u3)[0] is OverflowError
        # the lowest exponents integrate too
        low = DiffPoly.jet("u", 1, -EXPONENT_LIMIT)
        assert self.check(low * u2)[1] == repr(DiffPoly.zero())


class TestPotential:
    def test_examples(self):
        assert potential(DiffPoly.const(1)) == u
        assert potential(u) == u * u * Fraction(1, 2)
        assert potential(-u2) == -u * u2 * Fraction(1, 2)

    def test_minus_u2_congruence(self):
        # -u*u''/2 differs from u'^2/2 by a total derivative
        assert is_total_derivative(
            -u * u2 * Fraction(1, 2) - u1 * u1 * Fraction(1, 2))

    def test_not_variational(self):
        with pytest.raises(NotVariational):
            potential(u1)
        with pytest.raises(NotVariational):
            potential(u * u2)

    def test_round_trip_on_random_densities(self, rng):
        # over u and F the homotopy weighs each term by its degree in u alone
        for names in (("u",), ("u", "F")):
            for _ in range(40):
                rho = rand_poly(rng, max_order=2, names=names)
                q = variational_derivative(rho)
                if q.is_zero():
                    continue
                density = potential(q)
                assert variational_derivative(density) == q
                assert density.constant_term() == 0

    @staticmethod
    def count_helmholtz(monkeypatch):
        import diffalg.calculus as calculus
        calls = []

        def counted(q, name="u"):
            calls.append(q)
            return helmholtz_residual(q, name)

        monkeypatch.setattr(calculus, "helmholtz_residual", counted)
        return calls

    def test_certified_potential_skips_the_helmholtz_test(self, rng, monkeypatch):
        calls = self.count_helmholtz(monkeypatch)
        checked = 0
        for _ in range(60):
            q = variational_derivative(rand_poly(rng, max_order=3, terms=4))
            if not q.is_zero():
                assert variational_derivative(potential(q)) == q
                checked += 1
        assert checked > 30 and calls == []

    def test_refusals_run_the_helmholtz_test(self, rng, monkeypatch):
        calls = self.count_helmholtz(monkeypatch)
        refused = [u1, u * u2]
        while len(refused) < 30:
            q = rand_poly(rng, max_order=3, terms=3)
            if helmholtz_residual(q):
                refused.append(q)
        # at the exponent limit the homotopy overflows, and q is still
        # refused as not variational
        refused.append(DiffPoly.jet("u", 0, EXPONENT_LIMIT - 1) * u1)
        for q in refused:
            with pytest.raises(NotVariational,
                               match="^Frechet derivative is not self-adjoint$"):
                potential(q)
        assert calls == refused
        # the homotopy in u leaves F fixed
        assert potential(-u * jet("F", 1)) == -u * u * jet("F", 1) * Fraction(1, 2)
        # variational, and its density needs u^EXPONENT_LIMIT
        with pytest.raises(OverflowError):
            potential(DiffPoly.jet("u", 0, EXPONENT_LIMIT - 1))


class TestBasisModTotalDerivatives:
    def test_single_exact(self):
        basis, coords, exact = basis_mod_total_derivatives([u1])
        assert basis == [] and exact[0] == u

    def test_single_nonexact(self):
        basis, _, _ = basis_mod_total_derivatives([u])
        assert basis == [u]

    def test_pair_with_relation(self):
        basis, coords, exact = basis_mod_total_derivatives([u * u1, u * u])
        assert basis == [u * u]
        assert exact[0] == u * u * Fraction(1, 2)
        assert coords[0] == [Fraction(0)]

    def test_constants_survive(self):
        basis, _, _ = basis_mod_total_derivatives([DiffPoly.const(1), u1])
        assert basis == [DiffPoly.const(1)]

    def test_three_way_relation(self):
        basis, coords, exact = basis_mod_total_derivatives(
            [u * u, u * u1, u * u + 2 * u * u1])
        assert basis == [u * u]
        assert coords[2] == [Fraction(1)]
        assert exact[2] == u * u

    def test_reconstruction(self, rng):
        for _ in range(20):
            fs = [rand_poly(rng, max_order=2, terms=2) for _ in range(3)]
            basis, coords, exact = basis_mod_total_derivatives(fs)
            for f, c, h in zip(fs, coords, exact):
                rebuilt = h.total_derivative()
                for x, b in zip(c, basis):
                    rebuilt = rebuilt + x * b
                assert rebuilt == f

    def test_exact_first(self, rng, monkeypatch):
        """An all-exact list returns before the echelon form; mixed and
        non-exact lists take the echelon path.  Either way there is one
        coordinate row and one exact part per input, an exact input has zero
        coordinates and its own integral, and the reconstruction holds."""
        import diffalg.calculus as calculus
        echelons = []

        def counted(rows):
            echelons.append(rows)
            return rref(rows)

        rref = calculus._rref
        monkeypatch.setattr(calculus, "_rref", counted)

        def non_exact(names):
            while True:
                f = rand_poly(rng, max_order=3, terms=3, names=names, nonzero=True)
                if not is_total_derivative(f):
                    return f

        for trial in range(90):
            names = ("u", "F") if trial % 2 else ("u",)
            kind = ("exact", "mixed", "non-exact")[trial % 3]
            n = rng.randint(1, 5)
            exact_in = [rand_poly(rng, max_order=3, names=names).total_derivative()
                        for _ in range(n)]
            fs = ([non_exact(names) for _ in range(n)] if kind == "non-exact" else
                  exact_in if kind == "exact" else
                  [non_exact(names)] + exact_in + [non_exact(names) * 3 + exact_in[0]])
            if kind == "mixed":
                rng.shuffle(fs)
            before = len(echelons)
            basis, coords, exact = basis_mod_total_derivatives(fs)
            assert len(coords) == len(exact) == len(fs)
            if kind == "exact":
                assert basis == [] and coords == [[]] * n and len(echelons) == before
            else:
                assert basis and len(echelons) == before + 1
            for f, c, h in zip(fs, coords, exact):
                assert len(c) == len(basis)
                rebuilt = h.total_derivative()
                for x, b in zip(c, basis):
                    rebuilt = rebuilt + x * b
                assert rebuilt == f
                if is_total_derivative(f):
                    assert not any(c) and h == integrate(f)

    def test_integration_check_stays(self, monkeypatch):
        import diffalg.calculus as calculus
        monkeypatch.setattr(calculus, "_integrate_reduce",
                            lambda f: (DiffPoly.zero(), u1 * u1))
        with pytest.raises(AssertionError, match="must integrate"):
            basis_mod_total_derivatives([u1])

    def test_matches_sympy_pivots(self, rng):
        """The basis is the inputs at sympy's pivot columns of the matrix whose
        column i is (delta_name f_i for each indeterminate, constant of f_i)."""
        sympy = pytest.importorskip("sympy")
        mixed = 0  # lists with exact and non-exact inputs
        for trial in range(60):
            names = ("u", "F") if trial % 3 == 0 else ("u",)
            n = rng.randint(1, 6)
            fs = [rand_poly(rng, terms=3, names=names, nonzero=True)]
            while len(fs) < n:
                r = rng.random()
                exact = rand_poly(rng, max_order=3, names=names).total_derivative()
                if r < 0.3:
                    combo = exact
                    for f in rng.sample(fs, rng.randint(1, len(fs))):
                        combo = combo + f * Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                    fs.append(combo)
                elif r < 0.45:
                    fs.append(exact)
                elif r < 0.55:
                    fs.append(exact + Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                else:
                    fs.append(rand_poly(rng, terms=4, names=names))
            basis, coords, exact_parts = basis_mod_total_derivatives(fs)
            assert len(coords) == len(exact_parts) == len(fs)
            exact_inputs = sum(map(is_total_derivative, fs))
            mixed += 0 < exact_inputs < len(fs)
            indets = sorted({n for f in fs for n in f.indets()})
            deltas = [{(n, m): c for n in indets
                       for m, c in terms(variational_derivative(f, n)).items()}
                      for f in fs]
            for f, d in zip(fs, deltas):
                d["const"] = f.constant_term()
            keys = sorted({k for d in deltas for k in d}, key=repr)
            matrix = sympy.Matrix([[d.get(k, 0) for d in deltas] for k in keys])
            reduced, pivots = matrix.rref()
            assert basis == [fs[i] for i in pivots]
            for i, (f, c, h) in enumerate(zip(fs, coords, exact_parts)):
                assert c == [Fraction(str(reduced[j, i])) for j in range(len(pivots))]
                rebuilt = h.total_derivative()
                for x, b in zip(c, basis):
                    rebuilt = rebuilt + x * b
                assert rebuilt == f
        assert mixed > 20
