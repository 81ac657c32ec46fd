import random
from fractions import Fraction

import pytest

from sl2wt import Weight, admissible_level
from sl2wt.arithmetic import Groth
from sl2wt import functors as fn
from sl2wt import local_cat as lc
from sl2wt import weight_cat as wc
from sl2wt.pipeline import FLOWS, _typical_samples

# the seven acceptance levels; both v = 2 and v >= 3 branches are covered
TEST_LEVELS = [(3, 2), (5, 2), (2, 3), (3, 4), (5, 3), (4, 3), (7, 2)]

# the acceptance levels and the largest level of the benchmark's pipeline ladder
SAMPLE_LEVELS = TEST_LEVELS + [(13, 8)]


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


def step2_samples(level):
    """The simple A-labels that step 2 of the pipeline checks, in its order:
    tau-tilde of each atypical D+(r,s)@0, then the typical samples of (r, s)
    at every flow of FLOWS."""
    out = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            out.append(fn.tau_tilde(level, wc.atypical(level, r, s, 0)))
            for flow in FLOWS:
                out.extend(y for y, _ in _typical_samples(level, r, s, flow))
    return out


@pytest.fixture
def r_middle_up(monkeypatch):
    """A mutant of the projective covers R: ``local_cat.r_layers`` patched so
    that R's middle layer sits at lam + t/2 instead of lam - t/2.  The
    induction memo is cleared once the mutant is in and again once it is out.
    For v = 2, R has no middle layer, so there the mutant is the real code."""
    real = lc.r_layers

    def middle_up(level, y):
        layers = real(level, y)
        if len(layers) == 2:
            return layers
        top, mid, bot = layers
        return top, tuple(lc.simple_a(level, z.r, z.s, z.flow, z.lam + level.t) for z in mid), bot

    monkeypatch.setattr(lc, "r_layers", middle_up)
    fn.induce_simple.cache_clear()
    yield
    monkeypatch.undo()
    fn.induce_simple.cache_clear()
