"""Mechanical re-verification of the four-step rigidity argument.

Step 1 checks that the induced algebra splits as A plus a length-<=2 module
with the expected local composition factors.  Step 2 re-runs the locality
multiplicity count: every typical simple occurs once, and every atypical
twice, in the restriction of N fused with its covering simple -- computed
through two independent code paths that must agree exactly.  Step 3 checks
the duality square F(X') = F(X)* layer for layer on a sample of simples.
Step 4 produces a Mueger-noncentrality witness for the simple quotient of A.

All checks record outcomes; nothing short of a malformed level aborts a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arithmetic import OMEGA, AdmissibleLevel, Weight, as_weight, wt
from . import weight_cat as wc
from . import local_cat as lc
from . import functors as fn
from . import fusion as fu


class NoWitness(RuntimeError):
    """The bounded noncentrality search failed (signals a bug, not a theorem gap)."""


@dataclass(frozen=True)
class SampleConfig:
    flows: Tuple[int, ...] = (-2, -1, 0, 1, 2)
    lambda_samples: Tuple[Weight, ...] = (wt(0), wt(Fraction(1, 2)), OMEGA)

    def __post_init__(self):
        if not self.flows:
            raise ValueError("no flows to sample: a pipeline run would check nothing")

    def with_omega(self) -> "SampleConfig":
        """Generic typicality must always be exercised, so w is forced in."""
        if OMEGA in self.lambda_samples:
            return self
        return SampleConfig(self.flows, self.lambda_samples + (OMEGA,))


@dataclass(frozen=True)
class MultCheck:
    """One locality count: the multiplicity of ``label`` in the direct route's
    class, and whether the direct and the ring route gave the same class."""

    label: object
    expected: int
    got: int
    routes_agree: bool

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> List[str]:
        """The sub-checks that failed, in words."""
        out = [] if self.routes_agree else ["routes disagree"]
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


def duality_square_holds(level: AdmissibleLevel, x: wc.SimpleCLabel) -> bool:
    """F(x') = F(x)* including Loewy layers, not just K-classes."""
    lhs = fn.induce_simple(level, wc.contragredient(level, x))
    rhs = lc.rigid_dual(level, fn.induce_simple(level, x))
    return lhs == rhs


def noncentrality_witness(
    level: AdmissibleLevel,
    q: wc.SimpleCLabel,
    rational_samples: Sequence[Fraction] = (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 5),
        Fraction(2, 5),
    ),
) -> Tuple[lc.SimpleALabel, Weight]:
    """A simple Z = M(1,1) x Pi_l'(lam') whose Pi-sector monodromy with tau(q)
    is a nontrivial scalar, found with l' in {0, 1}.

    The unit label is Mueger central, so q must not be the canonical L(1,0).
    """
    if q == wc.lr0(level, 1, 0):
        raise ValueError("the tensor unit is Mueger central; no witness exists")
    tq = fn.tau(level, q)
    for flow_p in (0, 1):
        for lam_p in (OMEGA, *map(as_weight, rational_samples)):
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


def _step2(level: AdmissibleLevel, config: SampleConfig) -> Step2:
    typ: List[MultCheck] = []
    atyp: List[MultCheck] = []
    for r in range(1, level.u):
        for s in range(1, level.v):
            x = wc.atypical(level, r, s, 0)
            y = fn.tau_tilde(level, x)
            direct = fu.a_tensor_restriction(level, y)
            via_ring = fu.a_tensor_restriction_via_ring(level, y)
            atyp.append(MultCheck(x, 2, direct.multiplicity(x), direct == via_ring))
            for flow in config.flows:
                for lam in config.lambda_samples:
                    y = lc.simple_a(level, r, s, flow, lam)
                    res = fn.restrict_simple(level, y)
                    if not isinstance(res, wc.Simple):
                        continue
                    z = res.label
                    direct = fu.a_tensor_restriction(level, y)
                    via_ring = fu.a_tensor_restriction_via_ring(level, y)
                    typ.append(MultCheck(z, 1, direct.multiplicity(z), direct == via_ring))
    return Step2(tuple(typ), tuple(atyp))


def _step3(level: AdmissibleLevel, config: SampleConfig) -> Step3:
    checks: List[Tuple[wc.SimpleCLabel, bool]] = []
    seen = set()
    for r in range(1, level.u):
        for s in range(1, level.v):
            for flow in config.flows:
                samples: List[wc.SimpleCLabel] = [wc.atypical(level, r, s, flow)]
                for lam in config.lambda_samples:
                    y = lc.simple_a(level, r, s, flow, lam)
                    res = fn.restrict_simple(level, y)
                    if isinstance(res, wc.Simple):
                        samples.append(res.label)
                for x in samples:
                    if x in seen:
                        continue
                    seen.add(x)
                    checks.append((x, duality_square_holds(level, x)))
    return Step3(tuple(checks))


def _step4(level: AdmissibleLevel) -> Step4:
    q = wc.atypical(level, 1, 1, 1)  # the simple quotient of A in the weight category
    try:
        z, e = noncentrality_witness(level, q)
    except NoWitness:
        return Step4(None, False)
    return Step4((z, e), not e.is_integral)


def run_pipeline(level: AdmissibleLevel, config: Optional[SampleConfig] = None) -> Report:
    config = (config or SampleConfig()).with_omega()
    return Report(
        level=level,
        step1=_step1(level),
        step2=_step2(level, config),
        step3=_step3(level, config),
        step4=_step4(level),
    )
