"""Run one benchmark job in a fresh interpreter and print its result as JSON.

    python3 bench/worker.py '{"job": "pipeline", "level": [13, 8], "trace": false}'

Jobs:

- ``setup``: import ``sl2wt.cli`` and build the given levels; reports the
  import time.  The caller times the whole process from outside.
- ``pipeline``: ``run_pipeline`` plus the canonical ``to_json`` dump at one
  level, the bytes ``sl2wt pipeline --json`` prints, against its golden digest.
- ``fuse``: a library session of ``groth_fuse_C`` calls on the seeded
  ``fuse_mix`` stream, each output checked, then the golden products.
- ``oracle``: the seeded ``oracle_windows`` checks, each compared with an
  independent enumeration of the reducibility points, and the singular-vector
  check at the levels of ``inputs.SINGULAR_LEVELS``.

``fuse`` and ``oracle`` run whole cycles of their stream: ``cycles`` of them,
or until ``seconds`` have passed when ``cycles`` is null.  Outputs are checked
as they come, outside the timed calls, and only counts and a running digest
are kept, so the peak resident set is the program's own.  With ``trace`` set,
the sl2wt layers are wrapped by ``layers.Tracer`` during the timed calls only.
"""

import hashlib
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

GOLDEN_PATH = os.path.join(BENCH, "golden.json")
GOLDEN_SEED, GOLDEN_CYCLES = 0, 2


def _use_checkout_sources() -> None:
    """Import sl2wt from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sl2wt", "__init__.py")):
        raise SystemExit(f"worker: no sl2wt sources under {SRC}")
    sys.path.insert(0, SRC)


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden(section: str):
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[section]


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Session:
    """Operations, checks and outputs of one job.

    Operations run inside ``with session.speed:``, which samples the
    reference loop on a timer.  :meth:`op` times one call and records
    ``[class, normalized seconds, work, raw seconds, pass]``, the times
    filled in by :meth:`result`.  The tracer, when there is one, is live
    inside :meth:`op` only.
    """

    def __init__(self, trace: bool):
        from layers import Tracer
        from refclock import SpeedLog

        self.tracer = Tracer() if trace else None
        self.speed = SpeedLog()
        self.ops = []
        self.intervals = []
        self.passes = 0
        self.attempted = 0
        self.failures = []
        self.digest = hashlib.sha256()

    def op(self, cls: str, work: int, call):
        """(result, error) of one timed ``call()``; an exception is an error.
        The call must look sl2wt functions up when it runs, so that it meets
        the tracer's wrappers."""
        if self.tracer:
            self.tracer.install()
        start = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # every failure is counted, the loop goes on
            result, error = None, _describe(exc)
        end = time.perf_counter()
        if self.tracer:
            self.tracer.uninstall()
        self.ops.append([cls, None, work, None, self.passes])
        self.intervals.append((start, end))
        return result, error

    def end_pass(self) -> None:
        self.passes += 1

    def check(self, ok: bool, what: str, output) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        self.digest.update(canonical(output).encode() + b"\n")

    def result(self, **extra) -> dict:
        import resource

        for op, (start, end) in zip(self.ops, self.intervals):
            op[1], op[3] = self.speed.normalize(start, end)
        out = {
            "ops": self.ops,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "digest": self.digest.hexdigest(),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stats": self.tracer.stats() if self.tracer else None,
        }
        out.update(extra)
        return out


def cycles_of(stream, job: dict):
    """Whole cycles from ``stream``: a fixed number, or until the deadline."""
    deadline = time.perf_counter() + job["seconds"]
    for i, cycle in enumerate(stream):
        if job["cycles"] is not None and i == job["cycles"]:
            return
        yield cycle
        if job["cycles"] is None and time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------


def job_setup(job: dict) -> dict:
    start = time.perf_counter()
    import sl2wt.cli  # noqa: F401
    from sl2wt import admissible_level

    imported = time.perf_counter()
    for u, v in job["levels"]:
        admissible_level(u, v)
    return {"import_s": imported - start}


def job_pipeline(job: dict) -> dict:
    from sl2wt import admissible_level
    from sl2wt.pipeline import run_pipeline

    level = admissible_level(*job["level"])

    def run():
        report = run_pipeline(level)
        return report.verdict, canonical(report.to_json())

    session = Session(job["trace"])
    with session.speed:
        result, error = session.op("level", 1, run)
    verdict, text = result if error is None else (False, None)
    key = f"{level.u}/{level.v}"
    digest = sha256(text) if error is None else error
    session.check(verdict and digest == golden("pipeline")[key], f"pipeline at {key}: verdict {verdict}, {digest}", digest)
    return session.result()


def job_fuse(job: dict) -> dict:
    from sl2wt import admissible_level
    from sl2wt import functors as fn
    from sl2wt import fusion as fu
    from sl2wt import weight_cat as wc

    import inputs

    levels = {}

    def parse(item):
        uv = tuple(item["level"])
        if uv not in levels:
            levels[uv] = admissible_level(*uv)
        lv = levels[uv]
        x = wc.GrothC.of(*(wc.label_from_json(lv, d) for d in item["lhs"]))
        y = wc.GrothC.of(*(wc.label_from_json(lv, d) for d in item["rhs"]))
        return lv, x, y

    def kclass(z) -> list:
        return [[wc.label_to_json(lbl), n] for lbl, n in z.sorted_items()]

    session = Session(job["trace"])
    kinds, products, p_support = {}, {}, []
    with session.speed:
        for cycle in cycles_of(inputs.fuse_cycles(job["seed"]), job):
            for item in cycle:
                lv, x, y = parse(item)
                size = item["size"]
                cls = "small" if size == 1 else "large" if size == 8 else "mid"
                z, error = session.op(cls, 1, lambda: fu.groth_fuse_C(lv, x, y))
                # the check, untimed: z effective and F(z) = F(x) * F(y)
                ok = error is None
                if ok:
                    p = fn.groth_F(lv, x) * fn.groth_F(lv, y)
                    p_support.append(len(p.support()))
                    ok = z.is_effective and fn.groth_F(lv, z) == p
                session.check(ok, error or f"F(z) != F(x)F(y) at {lv}: {x} x {y} -> {z}", kclass(z) if ok else error)
                key = f"{lv} x{size}"
                products[key] = products.get(key, 0) + 1
                for label in item["lhs"] + item["rhs"]:
                    kind = inputs.label_kind(label)
                    kinds[kind] = kinds.get(kind, 0) + 1
            session.end_pass()

    digests = golden("fuse")
    items = [item for _, cycle in zip(range(GOLDEN_CYCLES), inputs.fuse_cycles(GOLDEN_SEED)) for item in cycle]
    session.check(len(digests) == len(items), f"golden.json holds {len(digests)} products, not {len(items)}", None)
    for i, (item, digest) in enumerate(zip(items, digests)):
        try:
            text = canonical(kclass(fu.groth_fuse_C(*parse(item))))
        except Exception as exc:
            text = _describe(exc)
        session.check(sha256(text) == digest, f"golden product {i} differs: {text}", None)

    total = sum(kinds.values()) or 1
    p_support.sort()
    mix = {
        "labels": total,
        "shares": {kind: n / total for kind, n in sorted(kinds.items())},
        "products": products,
        "p_support": p_support and {"min": p_support[0], "median": p_support[len(p_support) // 2], "max": p_support[-1]},
    }
    return session.result(mix=mix)


def job_oracle(job: dict) -> dict:
    from sl2wt import Weight, admissible_level
    from sl2wt import sl2_oracle as so

    import inputs

    singular_levels = [admissible_level(*uv) for uv in inputs.SINGULAR_LEVELS]

    def check_window(lam, casimir, sign, n):
        window = so.build_relaxed(lam, casimir, sign, n)
        brackets, casimir_ok = window.check_brackets(), window.check_casimir()
        points = so.reducibility_points(lam, casimir, sign, n)
        stable = sign != "minus" or all(window.is_submodule_stable(mu) for mu in points)
        return brackets, casimir_ok, points, stable

    session = Session(job["trace"])
    kinds = {}
    with session.speed:
        for cycle in cycles_of(inputs.oracle_cycles(job["seed"]), job):
            for case in cycle:
                lam, casimir = Weight.from_json(case["lam"]), Weight.from_json(case["casimir"])
                n = case["window"]
                cls = "mid" if case["kind"].startswith("w/") else "small" if n == inputs.ORACLE_SMALL else "large"
                outcome, error = session.op(cls, 2 * n + 1, lambda: check_window(lam, casimir, case["sign"], n))
                if error is None:
                    brackets, casimir_ok, points, stable = outcome
                    found = [p.a for p in points if p.is_rational]
                    ok = brackets and casimir_ok and stable and len(found) == len(points)
                    ok = ok and found == inputs.expected_points(case)
                    output = [brackets, casimir_ok, [str(p) for p in points], stable]
                else:
                    ok, output = False, error
                session.check(ok, error or f"oracle check failed for {case}: {output}", output)
                key = f"{case['kind']}@{n}"
                kinds[key] = kinds.get(key, 0) + 1
            for level in singular_levels:
                ok, error = session.op("aux", 0, lambda: so.verify_affine_singular(level))
                session.check(ok is True, f"singular vector not annihilated at {level}: {error}", error or ok)
            session.end_pass()
    return session.result(mix={"checks": kinds})


JOBS = {"setup": job_setup, "pipeline": job_pipeline, "fuse": job_fuse, "oracle": job_oracle}


def main(argv) -> int:
    job = json.loads(argv[1])
    _use_checkout_sources()
    print(json.dumps(JOBS[job["job"]](job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
