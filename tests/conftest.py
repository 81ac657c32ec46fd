import contextlib
import random
from fractions import Fraction

import pytest

from sl2wt import Weight, admissible_level
from sl2wt.arithmetic import Groth, nu_ratio
from sl2wt import functors as fn
from sl2wt import fusion as fu
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


def _middle_up(real):
    """R's middle layer at lam + t/2 instead of lam - t/2, over the real
    ``local_cat.r_layers``.  For v = 2, R has no middle layer, so there the
    mutant is the real code."""

    def middle_up(level, y):
        layers = real(level, y)
        if len(layers) == 2:
            return layers
        top, mid, bot = layers
        return top, tuple(lc.simple_a(level, z.r, z.s, z.flow, z.lam + level.t) for z in mid), bot

    return middle_up


def _socle_flow_up(real):
    """M's socle one flow up, over the real ``local_cat.build_M``.  For
    v = 2, every M is simple, so there the mutant is the real code."""

    def socle_flow_up(level, r, s, flow):
        m = real(level, r, s, flow)
        if m.tag != "M":
            return m
        top, (bot,) = m.layers
        return lc.AObject("M", m.r, m.s, m.flow, (top, (lc.simple_a(level, bot.r, bot.s, bot.flow + 1, bot.lam),)))

    return socle_flow_up


def _drops_a_middle_label(real):
    """The peel's cover without the last label of its middle layer, over the
    real ``fusion._cover_layers``; a middle layer of one label goes
    altogether.  The functor and the certificate keep the real R.  For
    v = 2, no R has a middle layer and no M has three layers, so there the
    mutant is the real code."""

    def drops_a_middle_label(level, w, z):
        layers = real(level, w, z)
        if len(layers) < 3:
            return layers
        top, mid, bot = layers
        return (top, mid[:-1], bot) if len(mid) > 1 else (top, bot)

    return drops_a_middle_label


def _atypical_tau_flow_0(real):
    """tau with each atypical label sent to Pi-flow 0, over the real
    ``functors.tau``; typical labels keep theirs.  Step 4's witness then has
    monodromy exponent 0 with tau(Q), an integer, so Q looks Mueger central."""

    def atypical_tau_flow_0(level, x):
        y = real(level, x)
        return y if x.is_typical else lc.simple_a(level, y.r, y.s, 0, y.lam)

    return atypical_tau_flow_0


def _swapped_eminus_branches(real):
    """Restriction's two E- branches swapped, over the real derivation
    ``functors._restrict_simple``: lam on nu_{r,s} mod Z gives
    sigma^l(E-_{r,s}) and lam on nu_{u-r,v-s} gives sigma^l(E-_{u-r,v-s});
    typical labels restrict as before.  The memo derives once per orbit and
    moves that answer along it, so every flow of an atypical orbit is wrong."""

    def swapped_eminus_branches(level, y):
        flow = y.flow + 1
        if y.lam.on_coset(*nu_ratio(level, y.r, y.s), 1):
            return wc.eminus(level, y.r, y.s, flow)
        if y.lam.on_coset(*nu_ratio(level, level.u - y.r, level.v - y.s), 1):
            return wc.eminus(level, level.u - y.r, level.v - y.s, flow)
        return real(level, y)

    return swapped_eminus_branches


def _restriction_off_at_flow_1(real):
    """The real derivation ``functors._restrict_simple`` one flow too high on
    labels at Pi-flow 1 and right at every other flow.  Each flow on its own
    looks consistent; only a comparison across flows sees it, and the memo
    hides it wherever it moves an answer derived at another flow to flow 1."""

    def restriction_off_at_flow_1(level, y):
        out = real(level, y)
        return wc.spectral_flow(out, 1) if y.flow == 1 else out

    return restriction_off_at_flow_1


# name -> (module, function, the mutant built from the real function)
MUTANTS = {
    "r_middle_up": (lc, "r_layers", _middle_up),
    "m_socle_flow_up": (lc, "build_M", _socle_flow_up),
    "cover_drops_a_middle_label": (fu, "_cover_layers", _drops_a_middle_label),
    "atypical_tau_flow_0": (fn, "tau", _atypical_tau_flow_0),
    "swapped_eminus_branches": (fn, "_restrict_simple", _swapped_eminus_branches),
    "restriction_off_at_flow_1": (fn, "_restrict_simple", _restriction_off_at_flow_1),
}


@contextlib.contextmanager
def mutant(name):
    """The named entry of MUTANTS patched in for the body of the with block.
    The patch replaces the function by its module name, which every caller
    reads, so a level's warm tables cannot hide it."""
    module, attr, make = MUTANTS[name]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, attr, make(getattr(module, attr)))
        yield


@pytest.fixture
def r_middle_up():
    """R's middle-layer mutant (see _middle_up) for the whole test."""
    with mutant("r_middle_up"):
        yield
