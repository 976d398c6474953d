"""The rational layer's outputs, pinned byte for byte.

The benchmark's workloads barely reach ``poly_gcd`` past its monomial-content
split, and never reach ``right_lcm``, so ``bench_digests.json`` cannot see a
change there.  This test draws seeded inputs, prints the reprs of

- ``poly_gcd`` and the ``RatFun`` normal form of (a, b), (a c, b c) and
  (a c^2, b c) for 400 triples of polynomials in u and v,
- ``right_lcm`` (the lcm and both cofactors) of 40 operator pairs,
- ``right_gcd`` of 30 operator pairs,

and compares the SHA-256 of each section with ``rational_digests.json``.  A
change that means to alter one of these outputs regenerates the file (run this
module as a script) and says so in CHANGES.md; any other change, a new gcd
algorithm included, must leave every digest as it is.
"""

import hashlib
import json
import os
import random

import pytest

from diffalg import RatFun, right_gcd, right_lcm
from diffalg.jets import poly_gcd

from helpers import rand_op, rand_poly

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "rational_digests.json")


def _gcd_pairs():
    rng = random.Random(0x6CD0)
    for _ in range(400):
        a, b, c = (rand_poly(rng, max_order=3, max_degree=2, terms=3,
                             names=("u", "v"), nonzero=True) for _ in range(3))
        yield from ((a, b), (a * c, b * c), (a * c * c, b * c))


def _gcd_lines():
    return [repr(poly_gcd(f, g)) for f, g in _gcd_pairs()]


def _ratfun_lines():
    return [repr(RatFun(f, g)) for f, g in _gcd_pairs()]


def _right_lcm_lines():
    rng = random.Random(11)
    out = []
    for _ in range(40):
        a = rand_op(rng, max_deg=2, max_order=1)
        b = rand_op(rng, max_deg=1, max_order=1)
        out.extend(map(repr, right_lcm(a, b)))
    return out


def _right_gcd_lines():
    rng = random.Random(12)
    return [repr(right_gcd(rand_op(rng), rand_op(rng))) for _ in range(30)]


SECTIONS = {"poly_gcd": _gcd_lines, "RatFun": _ratfun_lines,
            "right_lcm": _right_lcm_lines, "right_gcd": _right_gcd_lines}


def digest(section: str) -> str:
    text = "\n".join(SECTIONS[section]())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_digest_matches_the_golden_file(section):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert digest(section) == golden[section]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({s: digest(s) for s in sorted(SECTIONS)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
