"""Self-tests of the benchmark: tracing reaches every binding and comes off
cleanly, traced runs give the untraced outputs, and every per-layer metric
moves on the workload whose mechanism it measures.

    python3 -m pytest bench -q
"""

import argparse
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402

LABEL_LAYERS = [
    "weight_cat.typical.calls", "weight_cat.typical.self_s", "weight_cat.typical.distinct_ratio",
    "local_cat.simple_a.calls", "local_cat.simple_a.distinct_ratio",
    "arithmetic.weight_new.calls", "arithmetic.reduce.calls",
]
GROTH_PRODUCTS = [
    "local_cat.grotha_mul.calls", "local_cat.grotha_mul.self_s",
    "local_cat.grotha_add.calls", "local_cat.a_fuse.calls",
]
# workload -> the per-layer metrics whose mechanism it runs (they must read nonzero)
MECHANISM = {
    "pipeline_ladder": LABEL_LAYERS + GROTH_PRODUCTS + [
        "functors.restrict_simple.calls", "functors.restrict_simple.self_s",
        "functors.restrict_simple.distinct_ratio", "functors.tau.calls", "functors.tau.distinct_ratio",
        "fusion.a_tensor_restriction.self_s", "fusion.a_tensor_restriction_via_ring.self_s",
        "pipeline.step1_s", "pipeline.step2_s", "pipeline.step3_s", "pipeline.step4_s",
        "weight_cat.grothc_add.calls",
    ],
    "fuse_mix": LABEL_LAYERS + GROTH_PRODUCTS + [
        "functors.induce_simple.calls", "functors.induce_simple.self_s",
        "functors.induce_simple.distinct_ratio", "functors.groth_F.self_s",
        "local_cat.comp_factors_a.self_s", "fusion.groth_fuse_C.self_s",
        "fusion.p_support", "fusion.candidates", "fusion.candidate_yield",
    ],
    "oracle_windows": [
        "sl2_oracle.check_brackets_s", "sl2_oracle.check_casimir_s",
        "sl2_oracle.reducibility_points_s", "sl2_oracle.is_submodule_stable_s",
        "sl2_oracle.verify_affine_singular_s", "arithmetic.weight_new.calls",
    ],
}
# layers a workload must not reach at all
BYPASSED = {
    "pipeline_ladder": ["fusion.p_support", "fusion.groth_fuse_C.self_s", "sl2_oracle.check_brackets_s"],
    "fuse_mix": ["pipeline.step2_s", "sl2_oracle.check_brackets_s"],
    "oracle_windows": [
        "functors.restrict_simple.calls", "functors.induce_simple.calls", "weight_cat.typical.calls",
        "local_cat.simple_a.calls", "local_cat.grotha_mul.calls", "pipeline.step2_s",
    ],
}


def _snapshot():
    """Every binding the tracer may touch: sl2wt module dicts and the
    dicts of the classes whose methods it wraps."""
    import sl2wt.cli  # noqa: F401

    spaces = {n: vars(m) for n, m in sys.modules.items() if n == "sl2wt" or n.startswith("sl2wt.")}
    for _, module, owner, _, _, _ in LAYERS:
        if owner:
            cls = getattr(sys.modules[f"sl2wt.{module}"], owner)
            spaces[f"{module}.{owner}"] = vars(cls)
    return {(n, attr): value for n, ns in spaces.items() for attr, value in ns.items()}


def test_wrappers_rebind_every_namespace_and_unwrap():
    from sl2wt import admissible_level
    from sl2wt import functors as fn
    from sl2wt import fusion as fu
    from sl2wt import local_cat as lc

    before = _snapshot()
    original = fn.restrict_simple
    tracer = Tracer().install()
    try:
        assert fu.restrict_simple is fn.restrict_simple is not original
        assert fu.groth_F is fn.groth_F and fu.induce_simple is fn.induce_simple
        level = admissible_level(5, 3)
        fu.a_tensor_restriction(level, lc.unit_a(level))  # reaches restrict_simple through fusion's binding
        patched = tracer.originals()
    finally:
        tracer.uninstall()
    assert tracer.stats()["functors.restrict_simple"]["calls"] > 0
    assert len(patched) >= len(LAYERS) + 3  # fusion's own bindings come on top
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_restrict_counts_at_13_8():
    """The counts behind the restrict cache item: 11,784 calls on 2,082
    distinct labels in one pipeline run at 13/8."""
    from sl2wt import admissible_level
    from sl2wt.pipeline import run_pipeline

    with Tracer() as tracer:
        assert run_pipeline(admissible_level(13, 8)).verdict
    stats = tracer.stats()["functors.restrict_simple"]
    assert (stats["calls"], stats["distinct"]) == (11784, 2082)


def test_generators_are_seeded():
    for stream in (inputs.fuse_cycles, inputs.oracle_cycles, inputs.ladder_passes):
        assert next(stream(7)) == next(stream(7))
    for stream in (inputs.fuse_cycles, inputs.oracle_cycles):
        assert next(stream(7)) != next(stream(8))


def test_expected_points_enumerates_both_roots():
    lam = inputs.Fraction(1, 3)
    for sign, other in (("minus", lambda mu: -2 - mu), ("plus", lambda mu: 2 - mu)):
        mu = lam + 6
        case = {
            "lam": inputs.weight_json(lam),
            "casimir": inputs.weight_json(inputs._casimir(mu, sign)),
            "sign": sign,
            "window": 20,
        }
        roots = {mu, other(mu)}
        assert inputs.expected_points(case) == sorted(x for x in roots if ((x - lam) / 2).denominator == 1)


@pytest.fixture(scope="module")
def traced():
    args = argparse.Namespace(seed=11, seconds=1, trace=1)
    return {w: run.run_workload(args, w)[0] for w in run.RUNNERS}


@pytest.mark.parametrize("workload", sorted(MECHANISM))
def test_traced_run_matches_untraced_and_checks_pass(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(MECHANISM))
def test_layer_metrics_move_on_their_mechanism(traced, workload):
    metrics = traced[workload]["metrics"]
    assert [m for m in MECHANISM[workload] + ["cli.import_s"] if metrics[m]["value"] <= 0] == []
    assert [m for m in BYPASSED[workload] if metrics[m]["value"] != 0] == []


def test_benchmark_json_lists_what_the_runs_report(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(traced["fuse_mix"]["metrics"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.RUNNERS)
    ops = [["small", 0.1, 1, 0.1, 0], ["large", 0.3, 1, 0.3, 0]]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([0.1, 0.2], ops, 1024)[0])
