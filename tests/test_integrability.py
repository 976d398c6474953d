"""Decision procedures: Lie defects, integrability, hereditariness, pair tests."""

from fractions import Fraction

import pytest

from diffalg import (DiffOp, DiffPoly, NonlocalOp, RatFun, Refutation,
                     Verdict, Witness, compose_left, integrability, is_hereditary, is_integrable_diffop,
                     is_integrable_pair, is_integrable_wnl, is_recursion_for, jet,
                     lie_bracket, lie_defect, nl_power, operator_from_json,
                     operator_to_json, parse_function)
from diffalg import ratfun
from diffalg.bidiff import frechet_of_op
from diffalg.corpus import ENTRIES
from diffalg.errors import Unsupported
from diffalg.integrability import _mixed_defect
from diffalg.operators import FractionPair, evo_apply_op

from helpers import load_workloads, rand_op, slot_first

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
D = DiffOp.d()
BURGERS_A = D * (D + u)
WITNESS = DiffOp({1: -jet("F"), 0: jet("F", 1)})  # M_F = -F d + F'


def kdv_operator():
    return NonlocalOp(DiffOp({2: RatFun(1), 0: RatFun(2 * u)}),
                      ((RatFun(u1), RatFun(1)),))


def counterexample():
    return NonlocalOp(DiffOp.of_function(u2), ((RatFun(-1), RatFun(u3)),))


def counterexample_pair():
    a = DiffOp({1: RatFun(u2) / RatFun(u3), 0: RatFun(-1)})
    b = DiffOp({1: RatFun(1) / RatFun(u3)})
    return a, b


class TestLieDefect:
    def test_constant_coefficients_vanish(self):
        assert lie_defect(D).is_zero()
        assert lie_defect(D ** 3).is_zero()

    def test_order_zero(self):
        assert lie_defect(DiffOp.of_function(u)).is_zero()

    def test_burgers_witness_identity(self):
        assert lie_defect(BURGERS_A) == compose_left(BURGERS_A, WITNESS)

    def test_defects_match_their_definitions(self, rng):
        # T_F = X_{A(F)}(A) - (D_A)_F A, expanded at a function f in place
        # of the formal F: the defects commute with F := f
        f = DiffPoly.jet("v", 0) * jet("u", 1) + jet("v", 2)

        def x_part(a, b):
            return evo_apply_op(a.apply(f), b) - slot_first(frechet_of_op(a), f) * b

        for _ in range(40):
            a = rand_op(rng, rational=rng.random() < 0.3)
            b = rand_op(rng, rational=rng.random() < 0.3)
            assert slot_first(lie_defect(a), f) == x_part(a, a)
            assert slot_first(_mixed_defect(a, b), f) == x_part(a, b) + x_part(b, a)


class TestIntegrableOperator:
    def test_burgers_witness(self):
        verdict = is_integrable_diffop(BURGERS_A)
        assert verdict.result
        assert verdict.certificate.m == WITNESS

    def test_d_trivial_witness(self):
        verdict = is_integrable_diffop(D)
        assert verdict.result and verdict.certificate.m.is_zero()

    def test_counterexample_denominator_fails(self):
        _, b = counterexample_pair()
        verdict = is_integrable_diffop(b)
        assert not verdict.result
        assert not verdict.certificate.residual.is_zero()

    def test_formal_slot_refused(self):
        # A(F) would read the coefficient's F as the formal function
        with pytest.raises(Unsupported, match="collide with the formal slot"):
            is_integrable_diffop(DiffOp({1: RatFun(1), 0: RatFun(jet("F") * u)}))

    def test_witness_resubstitutes(self, rng):
        for candidate in (BURGERS_A, D * D, DiffOp({1: RatFun(1), 0: RatFun(u1)})):
            verdict = is_integrable_diffop(candidate)
            if verdict.result:
                assert compose_left(candidate, verdict.certificate.m) == \
                    lie_defect(candidate)


class TestIntegrablePair:
    def test_burgers_pair(self):
        verdict = is_integrable_pair(BURGERS_A, D)
        assert verdict.result
        assert verdict.certificate.m == WITNESS
        assert verdict.certificate.n.is_zero()

    def test_kdv_pair(self):
        kdv_a = DiffOp({2: RatFun(1), 0: RatFun(2 * u)}) * D + u1
        verdict = is_integrable_pair(kdv_a, D)
        assert verdict.result
        assert verdict.certificate.m == WITNESS

    def test_counterexample_pair_fails(self):
        a, b = counterexample_pair()
        verdict = is_integrable_pair(a, b)
        assert not verdict.result
        assert verdict.certificate.residual is not None

    def test_formal_slot_refused_before_either_test(self, monkeypatch):
        def no_test(op):
            raise AssertionError("an integrability test ran before the formal-slot check")

        monkeypatch.setattr(integrability, "is_integrable_diffop", no_test)
        with pytest.raises(Unsupported, match="collide with the formal slot"):
            is_integrable_pair(BURGERS_A, DiffOp({1: RatFun(1) / RatFun(jet("F", 1))}))

    def test_symmetric_in_lambda_scaling(self):
        # pair integrability includes each operator alone
        verdict = is_integrable_pair(D, BURGERS_A)
        assert verdict.result


class TestHereditary:
    def test_example_216b(self):
        l = NonlocalOp(DiffOp({1: RatFun(1), 0: RatFun(u)}),
                       ((RatFun(u1), RatFun(1)),))
        assert is_hereditary(l).result

    def test_kdv(self):
        assert is_hereditary(kdv_operator()).result

    def test_counterexample_is_hereditary(self):
        assert is_hereditary(counterexample()).result

    def test_fraction_pair_input(self):
        assert is_hereditary(FractionPair(BURGERS_A, D)).result
        a, b = counterexample_pair()
        assert is_hereditary(FractionPair(a, b)).result

    def test_fraction_pair_unsupported_kernel(self):
        with pytest.raises(Unsupported):
            is_hereditary(FractionPair(D * D, D + u))

    def test_non_hereditary_with_certificate(self):
        l = NonlocalOp.from_local(DiffOp({1: RatFun(1), 0: RatFun(jet("u", 4))}))
        verdict = is_hereditary(l)
        assert not verdict.result
        assert not verdict.certificate.residual.is_zero()

    def test_local_hereditary(self):
        l = NonlocalOp.from_local(DiffOp({1: RatFun(1), 0: RatFun(u1)}))
        assert is_hereditary(l).result

    def test_formal_slot_checked_before_the_fraction(self, monkeypatch):
        # to_fraction of a large rational operator takes seconds; an operator
        # that uses the formal slot is refused before it runs
        def no_fraction(l):
            raise AssertionError("to_fraction ran before the formal-slot check")

        monkeypatch.setattr(integrability, "to_fraction", no_fraction)
        l = NonlocalOp(DiffOp({2: RatFun(1), 0: RatFun(jet("F") * u)}),
                       ((RatFun(u1), RatFun(1)),))
        with pytest.raises(Unsupported, match="collide with the formal slot"):
            is_hereditary(l)

    def test_nonpolynomial_middle_slot_refused_before_local_sums(self):
        # LHS - RHS is canonicalized once, words first: the rational local
        # parts of this operator's sides are never added
        l, _ = operator_from_json({"local": [["3*u^2", 0], ["3*u^2", 1], ["u*u'", 2]],
                                   "nonlocal": [["u^2", "u''"], ["u^2", "u"]]})
        with pytest.raises(Unsupported, match="depth-2 middle slot is not polynomial"):
            is_hereditary(l)

    def test_refutations_reevaluate_nonzero(self):
        for op in (DiffOp({1: RatFun(1), 0: RatFun(u * u)}),
                   DiffOp({1: RatFun(1), 0: RatFun(jet("u", 4))}),
                   DiffOp({2: RatFun(u2)})):
            verdict = is_hereditary(NonlocalOp.from_local(op))
            if not verdict.result:
                assert not verdict.certificate.residual.is_zero()


class TestIntegrableWnl:
    def test_kdv_true(self):
        assert is_integrable_wnl(kdv_operator()).result

    def test_counterexample_certificate(self):
        verdict = is_integrable_wnl(counterexample())
        assert not verdict.result and not verdict
        assert verdict.certificate.reason == \
            "q = u''' not a variational derivative"

    def test_verdict_truth_is_its_result(self):
        # a verdict is a two-field record; its truth must be the result,
        # not that of a non-empty tuple
        refuted = Verdict(False, Refutation("r", residual=1))
        assert not refuted and Verdict(True) and Verdict(result=True).certificate is None
        assert repr(refuted) == ("Verdict(result=False, "
                                 "certificate=Refutation(reason='r', residual=1))")
        witness = Witness(m=DiffOp.zero())
        assert witness.n is None and witness == (DiffOp.zero(), None)

    def test_potential_burgers_reduces_to_local(self):
        l = NonlocalOp.from_local(DiffOp({1: RatFun(1), 0: RatFun(u1)}))
        verdict = is_integrable_wnl(l)
        assert verdict.result
        # the surfaced certificate is the local operator's witness
        assert verdict.certificate is not None

    def test_burgers_operator(self):
        l = NonlocalOp(DiffOp({1: RatFun(1), 0: RatFun(u)}),
                       ((RatFun(u1), RatFun(1)),))
        assert is_integrable_wnl(l).result

    def test_square_outside_polynomial_slot_class(self):
        # the square's fraction has rational coefficients, which pushes the
        # hereditary identity's middle slots out of the polynomial subring;
        # the procedure refuses rather than approximate
        l2 = nl_power(kdv_operator(), 2)
        with pytest.raises(Unsupported):
            is_hereditary(l2)
        # a refusal is not kept as a verdict: the second call refuses too
        with pytest.raises(Unsupported):
            is_hereditary(l2)

    def test_integrable_implies_hereditary_on_corpus(self):
        for l in (kdv_operator(),
                  NonlocalOp(DiffOp({1: RatFun(1), 0: RatFun(u)}),
                             ((RatFun(u1), RatFun(1)),)),
                  NonlocalOp.from_local(DiffOp({1: RatFun(1), 0: RatFun(u1)}))):
            if is_integrable_wnl(l).result:
                assert is_hereditary(l).result


def _decide_operators(seed):
    """The benchmark's decide operators lambda*L + c at this seed, as JSON."""
    return load_workloads().inputs("decide", seed)["operators"]


# KdV + u^2: its hereditary identity leaves a nonzero residual
REFUTED = {"local": [["2*u", 0], ["1", 2], ["u^2", 0]], "nonlocal": [["u'", "1"]]}


class TestOneProofPerOperator:
    """A NonlocalOp keeps its hereditary verdict, so asking is_hereditary and
    then is_integrable_wnl about one operator runs the proof once."""

    def test_each_proof_runs_once(self, monkeypatch):
        counts = {"sides": 0, "fraction": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(integrability, "_hereditary_sides",
                            counted("sides", integrability._hereditary_sides))
        monkeypatch.setattr(integrability, "to_fraction",
                            counted("fraction", integrability.to_fraction))
        l = kdv_operator()
        assert is_hereditary(l).result
        assert is_integrable_wnl(l).result
        assert is_hereditary(l).result
        assert counts == {"sides": 1, "fraction": 1}

    def test_kept_verdicts_equal_fresh_ones(self):
        ops = [entry.operator_json for entry in ENTRIES.values()]
        ops += [data for seed in (1, 7) for data in _decide_operators(seed).values()]
        ops.append(REFUTED)
        results = set()
        for data in ops:
            l, grading = operator_from_json(data)
            first = is_hereditary(l)
            integrable = is_integrable_wnl(l)
            kept = is_hereditary(l)
            assert kept is first
            rebuilt, _ = operator_from_json(operator_to_json(l, grading))
            fresh = is_hereditary(rebuilt)
            assert kept.result == fresh.result, data
            assert repr(kept.certificate) == repr(fresh.certificate), data
            again, _ = operator_from_json(operator_to_json(l, grading))
            assert repr(integrable) == repr(is_integrable_wnl(again)), data
            results.add(kept.result)
        assert results == {True, False}


class TestGcdBudget:
    """Every denominator on these corpus operators' verdicts is a monomial
    (mKdV's u, the counterexample's u'''), so RatFun's own arithmetic runs as
    Laurent arithmetic and takes no gcd, and the common denominator of a
    linear basis over them is the per-jet maximum of the monomials, with no
    poly_lcm: no gcd is taken at all."""

    @pytest.mark.parametrize("name, budget", [("kdv", 0), ("mkdv", 0),
                                              ("counterexample", 0)])
    def test_verdicts_stay_within_the_gcd_budget(self, name, budget, monkeypatch):
        entry = ENTRIES[name]
        op, _ = entry.load()
        calls = []
        gcd_ = ratfun.poly_gcd
        monkeypatch.setattr(ratfun, "poly_gcd", lambda f, g: calls.append(1) or gcd_(f, g))
        is_hereditary(op)
        is_integrable_wnl(op)
        for text in entry.recursion_true + entry.recursion_false:
            is_recursion_for(op, parse_function(text))
        assert len(calls) <= budget


class TestCoefficientBound:
    def test_contrapositive_of_the_screen(self):
        # a coefficient of order 4 > deg + 1 = 2 makes the operator not hereditary
        l = DiffOp({1: RatFun(1), 0: RatFun(jet("u", 4))})
        assert not is_hereditary(NonlocalOp.from_local(l)).result


class TestDownstreamProperties:
    def test_powers_of_hereditary_local_commute(self):
        # A = d + u' is hereditary and recursion for u'
        a = DiffOp({1: RatFun(1), 0: RatFun(u1)})
        images = [u1]
        for _ in range(3):
            images.append(DiffPoly.coerce(a.apply(images[-1])))
        for i, f in enumerate(images):
            for g in images[i + 1:]:
                assert lie_bracket(f, g).is_zero()

    def test_recursion_plus_integrable_pair_implies_commuting_images(self):
        # {A(F), B(F)} = 0 when the pair is integrable and A B^-1 recursion for B(F)
        kdv_a = DiffOp({2: RatFun(1), 0: RatFun(2 * u)}) * D + u1
        assert is_integrable_pair(kdv_a, D).result
        l = kdv_operator()
        for f in (u, u2 + u * u * Fraction(3, 2)):
            bf = DiffPoly.coerce(D.apply(f))
            if is_recursion_for(l, bf):
                af = DiffPoly.coerce(kdv_a.apply(f))
                assert lie_bracket(af, bf).is_zero()
