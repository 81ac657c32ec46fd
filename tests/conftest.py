import random
from fractions import Fraction

import pytest

from sl2wt import Weight, admissible_level
from sl2wt.arithmetic import Groth

# the seven acceptance levels; both v = 2 and v >= 3 branches are covered
TEST_LEVELS = [(3, 2), (5, 2), (2, 3), (3, 4), (5, 3), (4, 3), (7, 2)]


@pytest.fixture(params=TEST_LEVELS, ids=lambda uv: f"{uv[0]}-{uv[1]}")
def level(request):
    return admissible_level(*request.param)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_fraction(r: random.Random, num: int = 12, den: int = 9) -> Fraction:
    return Fraction(r.randint(-num, num), r.randint(1, den))


def random_weight(r: random.Random, allow_omega: bool = True) -> Weight:
    b = random_fraction(r, 3, 3) if allow_omega and r.random() < 0.5 else Fraction(0)
    return Weight(random_fraction(r), b)


def map_labels(x: Groth, fn) -> Groth:
    """The class of the labels fn(y), y running over the Grothendieck class x
    with its multiplicities."""
    out = {}
    for y, n in x.items():
        z = fn(y)
        out[z] = out.get(z, 0) + n
    return Groth(out)
