"""Benchmark of the qck curvature pipeline.

One closed-loop client runs one named workload in this process: it sends the
next operation only after the previous one returned, and checks the output of
every operation.  Run from the repository root:

    python3 perfbench/run.py --workload potential-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, from a traced half of the run
compared against an untraced half.  The last line of standard output is the
result object; the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

# Named here so that a gain claimed on tuning seeds can be re-checked on a
# seed that played no part in writing the change.
HELD_OUT_SEED = 9973

SETUP_REPEATS = 7
WARMUP_OPS = 6

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SELF_SPANS = (
    "cli.main",
    "sampling.radial_points",
    "curvature.metric_second_jet",
    "curvature.curvature_bundle",
    "curvature.metric_first_jet",
    "curvature.christoffel",
    "curvature.kahler_defect",
    "curvature.metric_second_jet_fd",
    "qch.extract_shape_data",
    "qch.build_basis_tensors",
    "qch.bochner_of_tensor",
    "ambient.radial_frame",
    "tensors.tensor4_fit",
    "duals.eval_with_partials",
    "sasakian.sphere_report",
    "sasakian.family_h1_report",
    "rotational.embed_and_verify",
    "rotational.const_hsc_profile",
)
COUNTS = ("ambient.metric_evals", "duals.mul_calls", "duals.eval_with_partials.calls")
CRITERIA = (
    "flat-baselines", "disc-model", "negative-class-potentials",
    "definite-potentials", "radial-derivative-law", "bochner-equivalence",
    "hypersphere-structures", "deformed-sphere-family", "meridian-identities",
    "embedded-rotational", "numerical-hygiene",
)


def per_layer_units():
    units = {f"{name}.self_ms": "ms" for name in SELF_SPANS}
    units.update({name: "count" for name in COUNTS})
    units.update({f"verify.criterion.{name}.ms": "ms" for name in CRITERIA})
    units["trace.overhead"] = "ratio"
    return units


class Phase:
    """Outcomes of the operations of one closed-loop phase.

    A round runs each of its operations once, so an operation's position in
    the round (its slot) fixes its kind and size.  A slot's latency is the
    minimum of its latencies over the phase's rounds.  Other tenants of a
    shared machine slow it for stretches of seconds to minutes; the fastest
    execution is the one they disturbed least.  The program's own costs, the
    GIL contention of its thread pool included, are in every execution, so
    the minimum still carries them.
    """

    def __init__(self):
        self.slots = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.points = 0
        self.rounds = 0
        self.wall = 0.0
        self.criteria = defaultdict(list)

    def execute(self, op, slot=None, tracer=None):
        self.attempted += 1
        try:
            with tracer.op(self.attempted) if tracer else nullcontext():
                start = time.perf_counter()
                result = op.call()
                latency = time.perf_counter() - start
            checked = op.check(result)
        except Exception:
            self.failed += 1
            print(f"operation {op!r} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return
        self.completed += 1
        self.slots[slot].append(latency)
        self.points += checked.points
        for name, seconds in checked.criteria.items():
            self.criteria[name].append(seconds)
        if checked.problems:
            self.failed += 1
            print(f"operation {op!r} failed its check: "
                  f"{'; '.join(checked.problems)}", file=sys.stderr)

    def run(self, rounds, seconds, tracer=None):
        """Whole rounds, from the first, until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            for slot, op in enumerate(rounds[self.rounds % len(rounds)]):
                self.execute(op, slot, tracer)
            self.rounds += 1
            self.wall = time.perf_counter() - start
            if self.wall >= seconds:
                return self

    def typical_round(self, estimator=min):
        """Latency of each slot, in seconds."""
        return [estimator(self.slots[k]) for k in sorted(self.slots)]

    def ops_per_s(self, estimator=min):
        typical = self.typical_round(estimator)
        return len(typical) / sum(typical)


def measure_setup(workload, seed):
    """Wall seconds from launching a fresh interpreter until it has imported
    qck.cli and built the workload's inputs, one per repeat.

    The probe prints the system-wide monotonic clock when its set-up ends.
    Timing the child's exit instead would add its teardown, and waiting
    with a timeout polls the child at up to 50 ms intervals.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run(cmd, check=True, timeout=120,
                               capture_output=True, text=True)
        samples.append(float(probe.stdout.split()[-1]) - start)
    return samples


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(workload, seed):
    import numpy
    import scipy
    from qck.config import worker_count

    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "worker_count": worker_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
    }


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(phase, setup_samples):
    typical_ms = [1e3 * t for t in phase.typical_round()]
    ops_per_s = phase.ops_per_s()
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s,
        "points_per_s": ops_per_s * phase.points / phase.completed,
        "op_p50_ms": statistics.median(typical_ms),
        "op_p90_ms": p90(typical_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_ms = [1e3 * t for lat in phase.slots.values() for t in lat]
    extra = {"slots": len(typical_ms), "samples": len(raw_ms),
             "wall_ops_per_s": phase.completed / phase.wall,
             "median_slot_ops_per_s": phase.ops_per_s(statistics.median),
             "raw_p50_ms": statistics.median(raw_ms),
             "raw_p90_ms": p90(raw_ms),
             "setup_samples_s": setup_samples}
    return values, extra


def per_layer(untraced, traced, tracer, unit_count):
    values = dict.fromkeys(per_layer_units(), 0.0)
    own = tracer.self_seconds()
    for name in SELF_SPANS:
        values[f"{name}.self_ms"] = 1e3 * own.get(name, 0.0) / unit_count
    counts = {**tracer.counts,
              "duals.eval_with_partials.calls": tracer.calls()["duals.eval_with_partials"]}
    for name in COUNTS:
        values[name] = counts.get(name, 0) / unit_count
    for name, seconds in untraced.criteria.items():
        if name in CRITERIA:
            values[f"verify.criterion.{name}.ms"] = 1e3 * statistics.median(seconds)
    values["trace.overhead"] = traced.ops_per_s() / untraced.ops_per_s()
    extra = {"trace_overhead_base": {"untraced_ops_per_s": untraced.ops_per_s(),
                                     "traced_ops_per_s": traced.ops_per_s()},
             "spans": len(tracer.spans)}
    return values, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("potential-sweep", "bochner-algebra", "verify-suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "qck" / "cli.py").is_file():
        print(f"error: no qck sources under {REPO / 'src'}", file=sys.stderr)
        return 2

    import spans
    import workloads

    meta = run_metadata(args.workload, args.seed)
    # Set-up is an end-to-end metric; the traced run has no use for it.
    setup_samples = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    rounds = workloads.build(args.workload, args.seed)
    spec = workloads.WORKLOADS[args.workload]

    warmup = Phase()
    for op in rounds[-1][:WARMUP_OPS]:
        warmup.execute(op)

    if args.trace == 0:
        main_phase = Phase().run(rounds, args.seconds)
        phases = [warmup, main_phase]
        metrics, extra = end_to_end(main_phase, setup_samples)
        units = END_TO_END
    else:
        untraced = Phase().run(rounds, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Phase().run(rounds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = [warmup, untraced, traced]
        unit_count = traced.points if spec.layer_unit == "point" else traced.completed
        metrics, extra = per_layer(untraced, traced, tracer, unit_count)
        extra["per_layer_unit"] = f"{unit_count} {spec.layer_unit}s"
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(REPO))
        units = per_layer_units()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    meta.update(extra, trace=args.trace, seconds=args.seconds,
                measured_s=sum(p.wall for p in phases[1:]),
                rounds=[p.rounds for p in phases[1:]], point=spec.point,
                failed_fraction={"value": failed / attempted, "failed": failed,
                                 "attempted": attempted})
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
