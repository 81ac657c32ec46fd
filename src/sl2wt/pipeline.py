"""Mechanical re-verification of the four-step rigidity argument.

Step 1 checks that the induced algebra splits as A plus a length-<=2 module
with the expected local composition factors.  Step 2 re-runs the locality
multiplicity count: every typical simple occurs once, and every atypical
twice, in the restriction of N fused with its covering simple -- computed
through two independent code paths that must agree exactly.  Step 3 checks
the duality square F(X') = F(X)* layer for layer on a sample of simples.
Step 4 produces a Mueger-noncentrality witness for the simple quotient of A.

Steps 2 and 3 check the same simples, because both walk
``_typical_samples``: for each Kac label (r, s), each flow (``FLOWS`` unless
the caller passes others) and each lam in ``LAMBDA_SAMPLES``, the simple
M(r,s) x Pi_flow(lam) is kept when its restriction is typical.

All checks record outcomes; nothing short of a malformed level, a Kac table
above MAX_KAC_TABLE or an empty or oversized flow range aborts a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .arithmetic import OMEGA, AdmissibleLevel, Weight, wt
from . import weight_cat as wc
from . import local_cat as lc
from . import functors as fn
from . import fusion as fu


class NoWitness(RuntimeError):
    """The bounded noncentrality search failed (signals a bug, not a theorem gap)."""


# The flows and lambdas that steps 2 and 3 sample.  w stands for the generic
# stratum: it lies on no coset nu_{r,s} mod Z, so every (r, s, flow) yields a
# typical sample.
FLOWS: Tuple[int, ...] = (-2, -1, 0, 1, 2)
LAMBDA_SAMPLES: Tuple[Weight, ...] = (wt(0), wt(Fraction(1, 2)), OMEGA)

# Largest number of flows one run samples.  Steps 2 and 3 take time that
# grows with the flows: at 13/8, MAX_FLOWS of them take about 7.6 s against
# 0.25 s for FLOWS (one fresh process each, import included, shared 2-core
# Xeon, Python 3.11).
MAX_FLOWS = 100

# Largest Kac table (u-1)(v-1) one run walks.  Steps 2 and 3 take time that
# grows with the table: about 0.7 s at 23/12 (242 labels), 2.3 s at 37/18
# (612), 3.8 s at 41/26 (1000) and 5.6 s at 51/31 (1500), medians of two or
# three fresh processes each with FLOWS, import included (shared 2-core Xeon,
# Python 3.11), so 1001/1000 would run for hours.
MAX_KAC_TABLE = 1000

# The Pi-sector lambdas the noncentrality witness tries, w first.
WITNESS_LAMBDAS: Tuple[Weight, ...] = (OMEGA, *(wt(Fraction(*pq)) for pq in ((1, 2), (1, 3), (1, 5), (2, 5))))


@dataclass(frozen=True)
class MultCheck:
    """One locality count: the multiplicity of ``label`` in the direct route's
    class, and the direct route's class minus the ring route's, which is zero
    when the two routes agree."""

    label: object
    expected: int
    got: int
    difference: wc.GrothC

    @property
    def routes_agree(self) -> bool:
        return self.difference.is_zero

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> List[str]:
        """The sub-checks that failed, in words."""
        out = [] if self.routes_agree else [f"routes disagree: direct - ring = {self.difference}"]
        if self.got != self.expected:
            out.append(f"multiplicity expected {self.expected}, got {self.got}")
        return out


@dataclass(frozen=True)
class Step1:
    factors: Tuple[lc.SimpleALabel, ...]
    all_local: bool
    matches_expected: bool

    @property
    def passed(self) -> bool:
        return self.all_local and self.matches_expected


@dataclass(frozen=True)
class Step2:
    typical_multiplicity_checks: Tuple[MultCheck, ...]
    atypical_multiplicity_checks: Tuple[MultCheck, ...]

    @property
    def passed(self) -> bool:
        return all(
            c.passed
            for c in self.typical_multiplicity_checks + self.atypical_multiplicity_checks
        )


@dataclass(frozen=True)
class Step3:
    duality_checks: Tuple[Tuple[wc.SimpleCLabel, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.duality_checks)


@dataclass(frozen=True)
class Step4:
    witness: Optional[Tuple[lc.SimpleALabel, Weight]]
    passed: bool


@dataclass(frozen=True)
class Report:
    level: AdmissibleLevel
    step1: Step1
    step2: Step2
    step3: Step3
    step4: Step4

    @property
    def verdict(self) -> bool:
        return self.step1.passed and self.step2.passed and self.step3.passed and self.step4.passed

    def to_json(self) -> dict:
        def mc(c: MultCheck) -> dict:
            return {
                "label": str(c.label),
                "expected": c.expected,
                "got": c.got,
                "pass": c.passed,
            }

        witness = None
        if self.step4.witness is not None:
            z, e = self.step4.witness
            witness = {"Z": lc.label_to_json(z), "exponent": e.to_json()}
        return {
            "level": {"u": self.level.u, "v": self.level.v},
            "step1": {
                "factors": [lc.label_to_json(x) for x in self.step1.factors],
                "all_local": self.step1.all_local,
                "matches_expected": self.step1.matches_expected,
                "pass": self.step1.passed,
            },
            "step2": {
                "typical_multiplicity_checks": [mc(c) for c in self.step2.typical_multiplicity_checks],
                "atypical_multiplicity_checks": [mc(c) for c in self.step2.atypical_multiplicity_checks],
                "pass": self.step2.passed,
            },
            "step3": {
                "duality_checks": [
                    {"label": wc.label_to_json(x), "pass": ok} for x, ok in self.step3.duality_checks
                ],
                "pass": self.step3.passed,
            },
            "step4": {"witness": witness, "pass": self.step4.passed},
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines: List[str] = [f"rigidity pipeline at level {self.level}"]
        mark = lambda ok: "pass" if ok else "FAIL"
        lines.append(f"step 1 [{mark(self.step1.passed)}]  F(A) splits with local factors:")
        for part in fn.induce_vacuum(self.level).parts:
            lines.extend("    " + ln for ln in lc.loewy_lines(part))
        s2 = self.step2
        lines.append(
            f"step 2 [{mark(s2.passed)}]  locality multiplicities: "
            f"{len(s2.typical_multiplicity_checks)} typical (expect 1), "
            f"{len(s2.atypical_multiplicity_checks)} atypical (expect 2)"
        )
        for c in s2.typical_multiplicity_checks + s2.atypical_multiplicity_checks:
            if not c.passed:
                lines.append(f"    FAIL {c.label}: {'; '.join(c.failures())}")
        good = sum(ok for _, ok in self.step3.duality_checks)
        lines.append(
            f"step 3 [{mark(self.step3.passed)}]  duality squares: "
            f"{good}/{len(self.step3.duality_checks)}"
        )
        for x, ok in self.step3.duality_checks:
            if not ok:
                lines.append(f"    FAIL {x}")
                for name, side in zip(("F(x')", "F(x)*"), duality_square(self.level, x)):
                    lines.append(f"      {name}:")
                    lines.extend("        " + ln for ln in lc.loewy_lines(side))
        if self.step4.witness is not None:
            z, e = self.step4.witness
            lines.append(
                f"step 4 [{mark(self.step4.passed)}]  noncentrality witness Z = {z}, "
                f"monodromy exponent {e}"
            )
        else:
            lines.append(f"step 4 [{mark(self.step4.passed)}]  no witness found")
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


def expected_vacuum_factors(level: AdmissibleLevel) -> List[lc.SimpleALabel]:
    """The composition factors of F(A) as printed: A, M(1,2) x Pi_1(-t/2)
    (absent for v = 2), and M(1,1) x Pi_2(-t)."""
    t = level.t
    out = [lc.unit_a(level)]
    if level.v >= 3:
        out.append(lc.simple_a(level, 1, 2, 1, -t / 2))
    out.append(lc.simple_a(level, 1, 1, 2, -t))
    return out


def duality_square(level: AdmissibleLevel, x: wc.SimpleCLabel) -> Tuple[lc.AObject, lc.AObject]:
    """The two sides F(x') and F(x)* of the duality square at x."""
    lhs = fn.induce_simple(level, wc.contragredient(level, x))
    rhs = lc.rigid_dual(level, fn.induce_simple(level, x))
    return lhs, rhs


def duality_square_holds(level: AdmissibleLevel, x: wc.SimpleCLabel) -> bool:
    """F(x') = F(x)* including Loewy layers, not just K-classes."""
    lhs, rhs = duality_square(level, x)
    return lhs == rhs


def noncentrality_witness(level: AdmissibleLevel, q: wc.SimpleCLabel) -> Tuple[lc.SimpleALabel, Weight]:
    """A simple Z = M(1,1) x Pi_l'(lam') whose Pi-sector monodromy with tau(q)
    is a nontrivial scalar, found with l' in {0, 1}.

    The unit label is Mueger central, so q must not be the canonical L(1,0).
    """
    if q == wc.lr0(level, 1, 0):
        raise ValueError("the tensor unit is Mueger central; no witness exists")
    tq = fn.tau(level, q)
    for flow_p in (0, 1):
        for lam_p in WITNESS_LAMBDAS:
            e = lc.monodromy_exponent(level, tq.flow, tq.lam, flow_p, lam_p)
            if not e.is_integral:
                return lc.simple_a(level, 1, 1, flow_p, lam_p), e
    raise NoWitness(f"no Pi-sector witness for {q} with flow in {{0, 1}}")


def _step1(level: AdmissibleLevel) -> Step1:
    factors_class = lc.comp_factors_a(level, fn.induce_vacuum(level))
    factors = tuple(sorted(factors_class.support(), key=lambda x: x.sort_key()))
    all_local = all(lc.is_local_flow(x.flow) for x in factors)
    expected = lc.a_class(level, *expected_vacuum_factors(level))
    return Step1(factors, all_local, factors_class == expected)


def _typical_samples(
    level: AdmissibleLevel, r: int, s: int, flow: int
) -> Iterator[Tuple[lc.SimpleALabel, wc.SimpleCLabel]]:
    """(y, x) for each y = M(r,s) x Pi_flow(lam), lam in LAMBDA_SAMPLES, whose
    restriction is the typical simple x."""
    for lam in LAMBDA_SAMPLES:
        y = lc.simple_a(level, r, s, flow, lam)
        res = fn.restrict_simple(level, y)
        if res.tag == "simple":
            yield y, res.layers[0][0]


def _mult_check(level: AdmissibleLevel, y: lc.SimpleALabel, x: wc.SimpleCLabel, expected: int) -> MultCheck:
    """The multiplicity of x in the restriction of N fused with y, computed
    directly and through the fusion ring."""
    direct = fu.a_tensor_restriction(level, y)
    via_ring = fu.a_tensor_restriction_via_ring(level, y)
    return MultCheck(x, expected, direct.multiplicity(x), direct - via_ring)


def _step2(level: AdmissibleLevel, flows: Sequence[int]) -> Step2:
    typ: List[MultCheck] = []
    atyp: List[MultCheck] = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            x = wc.atypical(level, r, s, 0)
            atyp.append(_mult_check(level, fn.tau_tilde(level, x), x, 2))
            for flow in flows:
                typ.extend(_mult_check(level, y, x, 1) for y, x in _typical_samples(level, r, s, flow))
    return Step2(tuple(typ), tuple(atyp))


def _step3(level: AdmissibleLevel, flows: Sequence[int]) -> Step3:
    samples: Dict[wc.SimpleCLabel, None] = {}  # insertion-ordered set
    for r in range(1, level.u):
        for s in range(1, level.v):
            for flow in flows:
                samples[wc.atypical(level, r, s, flow)] = None
                samples.update((x, None) for _, x in _typical_samples(level, r, s, flow))
    return Step3(tuple((x, duality_square_holds(level, x)) for x in samples))


def _step4(level: AdmissibleLevel) -> Step4:
    q = wc.atypical(level, 1, 1, 1)  # the simple quotient of A in the weight category
    try:
        z, e = noncentrality_witness(level, q)
    except NoWitness:
        return Step4(None, False)
    return Step4((z, e), not e.is_integral)


def run_pipeline(level: AdmissibleLevel, flows: Sequence[int] = FLOWS) -> Report:
    """The four steps at level, steps 2 and 3 sampling the given flows (a
    tuple or a range of at most MAX_FLOWS integers); the level's Kac table
    holds at most MAX_KAC_TABLE labels."""
    kac = (level.u - 1) * (level.v - 1)
    if kac > MAX_KAC_TABLE:
        raise ValueError(f"the Kac table at {level} has {kac} labels; a run walks at most {MAX_KAC_TABLE}")
    if not flows:
        raise ValueError("no flows to sample: a pipeline run would check nothing")
    if flows[MAX_FLOWS:]:  # sliced, not len(): a range past sys.maxsize has no len
        raise ValueError(f"at most {MAX_FLOWS} flows can be sampled in one run")
    return Report(
        level=level,
        step1=_step1(level),
        step2=_step2(level, flows),
        step3=_step3(level, flows),
        step4=_step4(level),
    )
