"""The Lenard-Magri engine: chains, certification, powers, densities."""

from fractions import Fraction

import pytest

from diffalg import (DiffOp, DiffPoly, Grading, Hierarchy, NonlocalOp, RatFun,
                     conserved_densities, jet, lie_bracket, nl_power,
                     parse_function, seeds, to_fraction)
from diffalg.calculus import evo_apply, integrate, is_total_derivative
from diffalg.corpus import load_operator
from diffalg.errors import DiffAlgError, NotInImage, Unsupported
from diffalg.grammar import format_poly

from helpers import ref_lie_bracket

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
D = DiffOp.d()


def kdv_operator():
    return NonlocalOp(DiffOp({2: RatFun(1), 0: RatFun(2 * u)}),
                      ((RatFun(u1), RatFun(1)),))


def burgers_operator():
    return NonlocalOp(DiffOp({1: RatFun(1), 0: RatFun(u)}),
                      ((RatFun(u1), RatFun(1)),))


@pytest.fixture(scope="module")
def kdv_chain():
    h = Hierarchy.from_operator(kdv_operator(), grading=Grading({"u": "even"}))
    return h.extend(3)


class TestSeeds:
    def test_kdv(self):
        assert seeds(kdv_operator()) == [u1]

    def test_burgers(self):
        assert seeds(burgers_operator()) == [u1]

    def test_local_operator_has_none(self):
        assert seeds(NonlocalOp.from_local(D)) == []

    def test_seeds_are_recursion_directions(self):
        from diffalg import is_recursion_for
        for l in (kdv_operator(), burgers_operator()):
            for p in seeds(l):
                assert is_recursion_for(l, p)


class TestExtend:
    def test_kdv_chain_values(self, kdv_chain):
        assert kdv_chain.chain[0] == u1
        assert kdv_chain.chain[1] == parse_function("u''' + 3*u*u'")
        assert kdv_chain.chain[2] == parse_function(
            "u(5) + 5*u*u''' + 10*u'*u'' + 15/2*u^2*u'")
        assert kdv_chain.orders == [1, 3, 5, 7]

    def test_determinism(self, kdv_chain):
        again = Hierarchy.from_operator(kdv_operator()).extend(3)
        assert again.chain == kdv_chain.chain

    def test_local_operator_needs_seed(self):
        with pytest.raises(DiffAlgError):
            Hierarchy.from_operator(NonlocalOp.from_local(D))

    def test_counterexample_hypothesis_violation(self):
        l = NonlocalOp(DiffOp.of_function(u2), ((RatFun(-1), RatFun(u3)),))
        h = Hierarchy.from_operator(l, seed=u1)
        with pytest.raises(NotInImage) as err:
            h.extend(1)
        assert err.value.product == u1 * u3


class TestPairForm:
    def test_burgers_pair_chain(self):
        h = Hierarchy.from_pair(D * (D + u), D, DiffPoly.const(1))
        h.extend(5)
        # H_n = (d + u)^n (1) exactly
        hn = DiffPoly.const(1)
        for n in range(1, 6):
            hn = hn.total_derivative() + u * hn
            assert h.potentials[n] == hn
        assert h.chain[2] == u2 + 2 * u * u1
        assert h.scheme_consistency()

    def test_rational_member_is_refused(self):
        # A = (1/u) d + 1 sends the potential u to u'/u + u
        h = Hierarchy.from_pair(DiffOp({1: RatFun(1, u), 0: RatFun(1)}), D, u)
        with pytest.raises(Unsupported) as err:
            h.extend(1)
        assert str(err.value) == ("step 1: the chain member S_1 = (u' + u^2)/u "
                                  "is not a differential polynomial")

    def test_pair_needs_d(self):
        with pytest.raises(DiffAlgError):
            Hierarchy.from_pair(D * (D + u), D + u, DiffPoly.const(1))

    def test_pair_and_operator_routes_agree(self):
        pair_route = Hierarchy.from_pair(D * (D + u), D, DiffPoly.const(1)).extend(5)
        op_route = Hierarchy.from_operator(burgers_operator(), seed=u1).extend(4)
        assert op_route.chain == pair_route.chain[1:]

    def test_mkdv_fraction_runs_the_mkdv_chain(self):
        # B = u^-1 d: the pair form reaches past B = d
        mkdv, _ = load_operator("mkdv")
        h = Hierarchy.from_pair(*to_fraction(mkdv), 1).extend(4)
        assert h.chain[0] == 0
        assert h.chain[1:] == Hierarchy.from_operator(mkdv).extend(3).chain
        assert h.scheme_consistency()
        assert h.verify_commuting().all_zero

    def test_scaled_denominators(self):
        # B = 2 d and B = 2: H_n = B^-1(S_n) carries the 1/2 of each
        h = Hierarchy.from_pair(D * (D + u), 2 * D, DiffPoly.const(1)).extend(4)
        assert h.potentials[1] == u * Fraction(1, 2)
        assert h.scheme_consistency() and h.verify_commuting().all_zero
        e = D * D + DiffOp.of_function(u)
        h = Hierarchy.from_pair(e, DiffOp.of_function(RatFun(2)), u).extend(3)
        assert h.chain[:2] == [2 * u, u2 + u * u]
        assert h.potentials[1] == (u2 + u * u) * Fraction(1, 2)
        assert h.scheme_consistency()

    def test_member_that_is_not_exact_fails_one_step_later(self):
        # A = u sends H_0 = 1 to S_1 = u, which has no potential
        h = Hierarchy.from_pair(DiffOp.of_function(u), D, 1).extend(1)
        assert h.chain == [0, u]
        assert h.potentials == [1, None]
        assert not h.scheme_consistency()
        with pytest.raises(NotInImage) as err:
            h.extend(1)
        assert str(err.value) == ("Lenard-Magri hypothesis violated at step 2: "
                                  "q_0 * f = u is not a total derivative")


class TestVerifyCommuting:
    def test_kdv_all_zero(self, kdv_chain):
        report = kdv_chain.verify_commuting()
        assert report.all_zero and report.pairs_checked == 6

    def test_trivially_commuting_non_hierarchy(self):
        h = Hierarchy(operator=kdv_operator(), chain=[u1, u2])
        assert h.verify_commuting().all_zero

    def test_adversarial_chain_reported(self):
        h = Hierarchy(operator=kdv_operator(), chain=[u, u * u])
        report = h.verify_commuting()
        assert not report.all_zero
        (i, j, residual), = report.violations
        assert (i, j) == (0, 1) and residual == u * u

    def test_violations_in_pair_order(self):
        """(1, 2) and (0, 3) both fail, so the report order is the pair
        order, not the order in which the brackets complete."""
        chain = [u, u * u, u2, u3 * u]
        h = Hierarchy(operator=kdv_operator(), chain=chain)
        report = h.verify_commuting()
        expected = [(i, j, lie_bracket(chain[i], chain[j]))
                    for i in range(4) for j in range(i + 1, 4)]
        expected = [(i, j, r) for i, j, r in expected if not r.is_zero()]
        assert report.pairs_checked == 6 and not report.all_zero
        assert report.violations == expected
        assert [(i, j) for i, j, _ in expected] == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_reassigned_chain_prints_its_report(self):
        h = Hierarchy(operator=kdv_operator(), chain=[u1])
        other = Hierarchy(operator=kdv_operator(), chain=[u1])
        h.notes.append("note")
        assert other.notes == []  # each hierarchy has its own notes list
        h.chain = [u, u * u, u2]
        assert str(h.verify_commuting()) == (
            "CommutationReport(pairs_checked=3, all_zero=False, violations="
            "[(0, 1, DiffPoly(u^2)), (1, 2, DiffPoly(2*u'^2))])")

    def test_exact_chain_that_does_not_commute(self):
        """KdV S0..S5 with d(u u'') added to S3: every member is still a
        total derivative, so every bracket takes the split path, and the
        report equals the per-pair reference in pair order."""
        h = Hierarchy.from_operator(kdv_operator(), grading=Grading({"u": "even"}))
        chain = list(h.extend(5).chain)
        chain[3] = chain[3] + (u * u2).total_derivative()
        assert all(is_total_derivative(s) for s in chain)
        h.chain = chain
        report = h.verify_commuting()
        expected = [(i, j, r) for i in range(6) for j in range(i + 1, 6)
                    if not (r := ref_lie_bracket(chain[i], chain[j])).is_zero()]
        assert report.pairs_checked == 15 and not report.all_zero
        # S0 = u' is the field of d, which commutes with every x-free member
        assert [(i, j) for i, j, _ in expected] == [(1, 3), (2, 3), (3, 4), (3, 5)]
        assert repr(report.violations) == repr(expected)
        assert h.report(report)["violations"] == [
            f"{{S_{i}, S_{j}}} = {format_poly(r)}" for i, j, r in expected]

    def test_reassigned_chain_reads_its_orders(self):
        h = Hierarchy.from_operator(kdv_operator()).extend(2)
        h.chain = [u, u * u, u2]
        assert h.orders == [0, 0, 2]
        assert h.report()["orders"] == [0, 0, 2]

    def test_one_member_chain(self):
        h = Hierarchy(operator=kdv_operator(), chain=[u1])
        report = h.verify_commuting()
        assert report.pairs_checked == 0 and report.all_zero
        assert report.violations == []


class TestOrderGrowth:
    """The reported orders step by deg L."""

    def test_kdv(self, kdv_chain):
        assert kdv_chain.operator.degree() == 2
        assert kdv_chain.orders == [1, 3, 5, 7]

    def test_burgers_linear_growth(self):
        h = Hierarchy.from_operator(burgers_operator(), seed=u1).extend(4)
        assert h.orders == [1, 2, 3, 4, 5]


class TestSchemeConsistency:
    def test_kdv_potentials(self, kdv_chain):
        assert kdv_chain.scheme_consistency()
        a, b = to_fraction(kdv_chain.operator)
        potentials = kdv_chain.potentials
        for n in range(1, len(kdv_chain.chain)):
            f = potentials[n]
            assert DiffPoly.coerce(b.apply(f)) == kdv_chain.chain[n]

    def test_operator_chain_potentials(self):
        h = Hierarchy.from_operator(kdv_operator()).extend(2)
        (_, q), = h.operator.depth1
        assert h.potentials == [None] + [integrate((q * s).as_diffpoly())
                                         for s in h.chain[1:]]
        assert h.potentials[1] == u2 + Fraction(3, 2) * u * u

    def test_images_stay_exact(self, kdv_chain):
        # q_i * S_n is a total derivative at every step
        for s in kdv_chain.chain:
            for _, q in kdv_chain.operator.depth1:
                assert is_total_derivative((q * s).as_diffpoly())

    def test_chain_commutes_with_seeds(self, kdv_chain):
        for s in kdv_chain.chain:
            for p in kdv_chain.seeds:
                assert lie_bracket(s, p).is_zero()


class TestPowersAndDensities:
    def test_seeds_of_square_commute_with_seeds(self):
        l = kdv_operator()
        l2 = nl_power(l, 2)
        for p1, _ in l.depth1:
            for p2, _ in l2.depth1:
                assert lie_bracket(p1.as_diffpoly(), p2.as_diffpoly()).is_zero()

    def test_k1_density(self, kdv_chain):
        records = conserved_densities(kdv_operator(), 1, chain=kdv_chain.chain)
        assert len(records) == 1
        assert records[0].rho == u
        assert records[0].verified_against == (0, 1, 2, 3)
        # X_{S1}(u) = S1 = (u'' + 3/2 u^2)'
        s1 = kdv_chain.chain[1]
        assert evo_apply(s1, u) == s1
        assert is_total_derivative(s1)

    def test_k2_densities(self, kdv_chain):
        records = conserved_densities(kdv_operator(), 2, chain=kdv_chain.chain)
        rhos = {r.rho for r in records}
        assert rhos == {u, u * u * Fraction(1, 2)}
        for r in records:
            assert not r.trivial
            assert r.verified_against == (0, 1, 2, 3)

    def test_trivial_density_flag(self):
        record_like = is_total_derivative(u1)
        assert record_like  # rho in dV is trivially conserved

    def test_density_report_shape(self, kdv_chain):
        from diffalg.hierarchy import density_report
        records = conserved_densities(kdv_operator(), 2, chain=kdv_chain.chain)
        data = density_report(records)
        assert {d["q"] for d in data["densities"]} == {"1", "u"}

    def test_cube_tails_are_the_chain_and_hamiltonian_densities(self, kdv_chain):
        l3 = nl_power(kdv_operator(), 3)
        tails = {q: p for p, q in l3.depth1}
        assert tails[RatFun(1)] == RatFun(kdv_chain.chain[2])
        assert tails[RatFun(u)] == RatFun(kdv_chain.chain[1])
        assert tails[RatFun(u2 + Fraction(3, 2) * u * u)] == RatFun(u1)
        records = conserved_densities(kdv_operator(), 3, chain=kdv_chain.chain)
        rhos = {r.rho for r in records}
        # u, u^2/2 and the classical third density (u u'' + u^3)/2
        assert rhos == {u, u * u * Fraction(1, 2),
                        (u * u2 + u ** 3) * Fraction(1, 2)}

    def test_deep_chain_through_s5(self):
        h = Hierarchy.from_operator(kdv_operator(), seed=u1).extend(5)
        assert h.orders == [1, 3, 5, 7, 9, 11]
        assert h.verify_commuting().all_zero


class TestPotentialBurgers:
    def test_chain_and_commutation(self):
        l = NonlocalOp.from_local(DiffOp({1: RatFun(1), 0: RatFun(u1)}))
        h = Hierarchy.from_operator(l, seed=u1).extend(3)
        assert h.chain[1] == u2 + u1 * u1
        assert h.orders == [1, 2, 3, 4]
        assert h.verify_commuting().all_zero


class TestReport:
    def test_json_schema(self, kdv_chain):
        report = kdv_chain.report(kdv_chain.verify_commuting())
        assert set(report) >= {"chain", "orders", "pairwise_zero", "violations"}
        assert report["pairwise_zero"] is True
        assert report["violations"] == []
        assert report["chain"][1] == "u''' + 3*u*u'"
        assert report["orders"] == [1, 3, 5, 7]
        assert any("starts at the seed" in note for note in report["notes"])
