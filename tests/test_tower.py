"""The tower int, Fraction ⊂ DiffPoly ⊂ RatFun ⊂ DiffOp ⊂ NonlocalOp: one
operand rule and one repeated-squaring routine.  A bidifferential operator
is held as its operator M_F over the formal slot, a DiffOp, and takes
DiffOp's rule."""

import operator
from fractions import Fraction
from functools import reduce

import pytest

from diffalg import DiffOp, DiffPoly, NonlocalOp, RatFun, jet, nl_power
from diffalg.errors import DepthOverflow

from helpers import rand_op, rand_poly, rand_ratfun

u, u1 = jet("u"), jet("u", 1)

# one value per class, in tower order; the ints and Fractions are Python's
TOWER = [int, Fraction, DiffPoly, RatFun, DiffOp, NonlocalOp]
# labelled samples: one per class under its name, and, labelled BiDiffOp,
# the bidifferential operator M(F, G) = u F G' held as M_F = u F d, a DiffOp
# that must take DiffOp's rule
SAMPLES = {
    "int": 3,
    "Fraction": Fraction(2, 3),
    "DiffPoly": u + u1,
    "RatFun": RatFun(u, u1 + 1),
    "DiffOp": DiffOp({1: 1, 0: u}),
    "NonlocalOp": NonlocalOp(DiffOp.d(), ((RatFun(u1), RatFun(1)),)),
    "BiDiffOp": DiffOp({1: u * jet("F")}),
}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv, "==": operator.eq}
# each class's constructor from any value below it: the reference lift
UP = {DiffPoly: DiffPoly.const, RatFun: RatFun, DiffOp: DiffOp.of_function,
      NonlocalOp: NonlocalOp.from_local}
PAIRS = [(a, b) for a in SAMPLES for b in SAMPLES
         if not (a in ("int", "Fraction") and b in ("int", "Fraction"))]


def _lift(x, cls):
    return x if type(x) is cls else UP[cls](x)


def _expected(symbol: str, a: type, b: type):
    """The class of a `symbol` b, or None for Python's standard TypeError."""
    if symbol == "==":
        return bool
    high = max(a, b, key=TOWER.index)
    if symbol == "/":  # only the fraction field divides
        return RatFun if high is RatFun else None
    return high


@pytest.mark.parametrize("symbol", list(OPS))
@pytest.mark.parametrize("a, b", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
def test_operator_matrix(symbol, a, b):
    x, y = SAMPLES[a], SAMPLES[b]
    want = _expected(symbol, type(x), type(y))
    if want is None:
        with pytest.raises(TypeError) as err:
            OPS[symbol](x, y)
        assert str(err.value).startswith("unsupported operand type(s)")
        return
    got = OPS[symbol](x, y)
    assert type(got) is want
    if want is bool:
        # the samples differ, and each one equals its own lift to any higher class
        assert got is (a == b)
        if TOWER.index(type(x)) < TOWER.index(type(y)):
            lifted = _lift(x, type(y))
            assert type(lifted) is type(y) and lifted == x and x == lifted
    else:
        # the same as the operation on both operands lifted to the higher class
        assert got == OPS[symbol](_lift(x, want), _lift(y, want))


def test_coerce_names_the_class():
    for cls in (DiffPoly, RatFun, DiffOp, NonlocalOp):
        with pytest.raises(TypeError, match=f"^cannot coerce float to {cls.__name__}$"):
            cls.coerce(1.5)
    with pytest.raises(TypeError, match="^cannot coerce DiffOp to RatFun$"):
        RatFun.coerce(DiffOp.d())


class TestPower:
    def test_matches_the_repeated_product(self, rng):
        def product(x, n, one):
            return reduce(operator.mul, [x] * n, one)

        for _ in range(10):
            p = rand_poly(rng, max_order=2, terms=3, nonzero=True)
            for n in range(7):
                assert p ** n == product(p, n, DiffPoly.const(1))
            r = rand_ratfun(rng)
            for n in range(-3, 4):
                base = r if n >= 0 else r.inverse()
                assert r ** n == product(base, abs(n), RatFun(1))
            e = rand_op(rng, max_deg=2, max_order=1, rational=True)
            for n in range(4):
                assert e ** n == product(e, n, DiffOp.identity())

    def test_nonlocal_operators_have_no_power_operator(self):
        with pytest.raises(TypeError):
            SAMPLES["NonlocalOp"] ** 2

    def test_nl_power_checks_every_partial_product(self):
        # p q = -12 u' is exact, so L^2 is weakly non-local; L^3 = L L^2 is not
        l = NonlocalOp(DiffOp.of_function(u * u1 + 3), ((RatFun(-12 * u1), RatFun(1)),))
        assert not nl_power(l, 2).depth2
        with pytest.raises(DepthOverflow, match="a power left the weakly non-local"):
            nl_power(l, 3)
