"""pdrwm benchmark: one workload per invocation, timed from outside.

    python3 perfbench/run.py --workload oracle-table1 --seed 0 --seconds 15 --trace 0

Load is a closed loop: one client runs the workload's operations one at a
time, pass after pass, until ``--seconds`` have elapsed (at least one
pass).  Every operation's output is checked; an operation that raises or
fails a check counts as failed and the run goes on.  An operation's time
is its CPU time scaled by the host speed sampled while it runs (see
calibration.py), so that a shared host's changing speed does not move it.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half traced, then prints
the per-layer metrics, including the tracing overhead between the halves;
the oracle workload also adds its n = 8001 cell to the traced half.
The last line of standard output is the JSON result.

``--record-reference`` rewrites ``reference.json`` from the current code.
See NOTES.md for what each workload and metric stands for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from calibration import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpRecord:
    name: str
    #: timed pass index, or None for an operation only the traced run adds
    pass_idx: int | None
    seconds: float
    units: int
    #: turns ``seconds`` into CPU seconds at the reference kernel's nominal speed
    scale: float


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, workload: str, seed: int, reference: dict, shipped: bool,
                 speed: HostSpeed):
        self.workload = workload
        self.speed = speed
        self.seed = seed
        self.reference = reference.get(workload, {})
        self.shipped = shipped
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.records: list[OpRecord] = []

    def _reference_for(self, op):
        if op.seeded:
            if not self.shipped:
                return None
            return self.reference.get(str(self.seed), {}).get(op.name)
        return self.reference.get("any", {}).get(op.name)

    def run_op(self, op, tracer, pass_idx) -> None:
        op_id = len(self.records)
        self.attempted += 1
        tracer.op_id = op_id
        try:
            with self.speed.timing() as timing:
                result = op.run()
            tracer.op_id = -1
            ref = self._reference_for(op)
            if ref is None and (self.shipped or not op.seeded):
                failures, dev = [f"{op.name}: no reference recorded"], 0.0
            else:
                failures, dev = op.check(result, ref)
            tracer.note("reference.dev", dev, op=op_id)
        except Exception:  # a failing operation is counted, never fatal
            failures = [f"{op.name} raised:\n{traceback.format_exc()}"]
        tracer.op_id = -1
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"FAILED {self.workload}/{msg}", file=sys.stderr)
        self.records.append(
            OpRecord(op.name, pass_idx, timing.seconds, op.units, timing.scale))

    def run_passes(self, ops, tracer, seconds: float) -> list[float]:
        """Whole passes until ``seconds`` of wall time have elapsed; returns
        each pass's scaled CPU time in its operations."""
        cpu: list[float] = []
        start = time.perf_counter()
        while not cpu or time.perf_counter() - start < seconds:
            first = len(self.records)
            for op in ops:
                self.run_op(op, tracer, self.passes)
            self.passes += 1
            cpu.append(sum(r.seconds * r.scale for r in self.records[first:]))
        return cpu


# ---------------------------------------------------------------------------
# metrics

def end_to_end(runner: Runner, setups: list[float]) -> dict:
    """Every timing is built from each operation's median scaled CPU time
    over the passes, so that one slow pass does not move it."""
    per_op = defaultdict(list)
    units = {}
    for r in runner.records:
        per_op[r.name].append(r.seconds * r.scale)
        units[r.name] = r.units
    median = {name: statistics.median(v) for name, v in per_op.items()}
    busy = sum(median[name] for name in median if units[name])
    return {
        "setup_s": statistics.median(setups),
        "pass_cpu_s": sum(median.values()),
        "op_cpu_s_p50": statistics.median(median.values()),
        "op_cpu_s_max": max(median.values()),
        "units_per_cpu_s": sum(units.values()) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, runner: Runner, untraced: list[float], traced: list[float]) -> dict:
    import numpy as np

    s = tracer.spans()
    ids = {n: i for i, n in enumerate(tracer.names())}
    op_pass = np.array([-1 if r.pass_idx is None else r.pass_idx for r in runner.records])
    in_pass = (s["op"] >= 0) & (op_pass[s["op"]] >= 0)

    def named(pred):
        return np.isin(s["name"], [i for n, i in ids.items() if pred(n)])

    def is_base(layer):
        return named(lambda n: n.split("#")[0] == layer)

    n_pass = len(traced)

    def per_pass(mask, field="dur"):
        return float(s[field][mask & in_pass].sum()) / n_pass

    def calls(mask):
        return float((mask & in_pass).sum()) / n_pass

    def median_dur(name):
        d = s["dur"][s["name"] == ids.get(name, -1)]
        return float(np.median(d)) if d.size else 0.0

    def spread(name):
        d = s["dur"][s["name"] == ids.get(name, -1)]
        return float((d.max() - d.min()) / np.median(d)) if d.size > 1 else 0.0

    def noted(name, how):
        values = [v for n, _, v in tracer.notes if n == name]
        if how == "max":
            return max(values, default=0.0)
        if how == "per_pass":
            return sum(v for n, op, v in tracer.notes
                       if n == name and op >= 0 and op_pass[op] >= 0) / n_pass
        return sum(values)

    def us_per(span_name, units_note):
        total = noted(units_note, "sum")
        d = s["dur"][s["name"] == ids.get(span_name, -1)]
        return float(d.sum()) / total * 1e6 if total else 0.0

    m = {}
    for b in ("small", "n1601", "n2001", "n3201", "n8001"):
        m[f"oracle.build_discretized.s.{b}"] = median_dur(f"oracle.build_discretized#{b}")
        m[f"oracle.spectral_gap.s.{b}"] = median_dur(f"oracle.spectral_gap#{b}")
    m["oracle.spectral_gap.spread.n3201"] = spread("oracle.spectral_gap#n3201")
    m["oracle.build_discretized.peak_mb.n8001"] = noted(
        "oracle.build_discretized.peak_mb#n8001", "max")
    m["oracle.build_discretized.bytes_computed"] = noted(
        "oracle.build_discretized.bytes", "per_pass")
    # every fingerprint number on this workload is a gap
    m["oracle.gap_dev_max"] = (
        noted("reference.dev", "max") if runner.workload == "oracle-table1" else 0.0)
    m["oracle.construction_residual_max"] = noted("oracle.construction_residual", "max")
    m["oracle.drift_ratio_quadrature.s"] = per_pass(is_base("oracle.drift_ratio_quadrature"))

    m["chain.run_chain.s"] = per_pass(is_base("chain.run_chain"))
    m["chain.run_chain.self_s"] = per_pass(is_base("chain.run_chain"), "self")
    for tag in ("1d", "2d", "staircase"):
        m[f"chain.us_per_step.{tag}"] = us_per(f"chain.run_chain#{tag}", f"chain.steps#{tag}")
    rates = [v for n, _, v in tracer.notes if n == "chain.acceptance_rate"]
    m["chain.acceptance_rate"] = statistics.fmean(rates) if rates else 0.0

    for probe in ("drift_ratio", "acceptance_set_mass", "rejection_probability"):
        span = f"diagnostics.{probe}#1d"
        m[f"diagnostics.{probe}.us_per_draw"] = us_per(span, f"{span}.draws")
    span = "diagnostics.rejection_probability#2d"
    m["diagnostics.rejection_probability.us_per_draw.2d"] = us_per(span, f"{span}.draws")
    m["diagnostics.self_s"] = per_pass(named(lambda n: n.startswith("diagnostics.")), "self")
    m["diagnostics.tune_step_size.s"] = per_pass(is_base("diagnostics.tune_step_size"))
    m["diagnostics.drift_ratio.truncated_mass"] = noted(
        "diagnostics.drift_ratio.truncated_mass", "max")

    for layer in ("targets.log_density", "targets.support_test", "fields.inv_metric",
                  "proposals.sample", "proposals.sample_batch", "proposals.log_q"):
        m[f"{layer}.calls"] = calls(is_base(layer))
        m[f"{layer}.self_s"] = per_pass(is_base(layer), "self")
    ops_2d = np.unique(s["op"][s["name"] == ids.get("chain.run_chain#2d", -1)])
    steps_2d = noted("chain.steps#2d", "sum")
    m["fields.inv_metric.calls_per_step.2d"] = (
        float((is_base("fields.inv_metric") & np.isin(s["op"], ops_2d)).sum()) / steps_2d
        if steps_2d else 0.0)

    m["rectangle.exact_rejection_disc.s"] = per_pass(is_base("rectangle.exact_rejection_disc"))
    m["rectangle.hemisphere_sweep.s"] = per_pass(is_base("rectangle.hemisphere_sweep"))

    import workloads
    for scenario in workloads.SCENARIOS:
        m[f"experiments.run_scenario.s.{scenario}"] = median_dur(
            f"experiments.run_scenario#{scenario}")
    m["experiments.csv_bytes"] = noted("experiments.csv_bytes", "per_pass")

    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


# ---------------------------------------------------------------------------
# provenance and set-up

def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_rev": git_rev(),
        "seed": seed,
    }


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setups(args) -> list[float]:
    """CPU time of fresh processes that import pdrwm and build the inputs,
    each scaled by the host speed the process sampled while it did so."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = children_cpu()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append((children_cpu() - start) * float(out.stdout.split()[-1]))
    return times


def record_reference(path: Path, workdir: Path) -> None:
    import workloads
    from tracing import NullTracer

    ref = {}
    for name in workloads.WORKLOADS:
        entry: dict = {"any": {}}
        seeds = workloads.SHIPPED_SEEDS
        for seed in seeds:
            wl = workloads.build(name, seed, NullTracer(), workdir)
            ops = wl.ops + wl.traced_extra
            if seed != seeds[0] and not any(op.seeded for op in ops):
                break
            for op in ops:
                result = op.run()
                failures, _ = op.check(result, None)
                if failures:
                    raise SystemExit(f"cannot record {name}/{op.name}: {failures}")
                where = entry.setdefault(str(seed), {}) if op.seeded else entry["any"]
                where[op.name] = op.fingerprint(result)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        ref[name] = entry
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=HERE / "reference.json")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pdrwm" / "__init__.py").is_file():
        print(f"error: no pdrwm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread: on a shared 2-CPU host a second thread made the
    # oracle's pass time swing by a quarter from run to run
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("PDRWM_OUTPUT_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir: Path) -> int:
    if args.record_reference:
        record_reference(args.reference, workdir)
        return 0
    from calibration import HostSpeed

    if args.setup_only:
        # set-up is import and input building: interpreter work on every
        # workload; the host-speed scale goes to the parent on stdout
        speed = HostSpeed("interpreter")
        with speed.timing() as timing:
            import workloads
            from tracing import NullTracer

            workloads.build(args.workload, args.seed, NullTracer(), workdir)
        print(timing.scale)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setups = [] if args.trace else time_setups(args)
    import workloads
    from tracing import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    reference = json.loads(args.reference.read_text())
    null = NullTracer()
    plain = workloads.build(args.workload, args.seed, null, workdir)
    # the traced run's spans must not hold kernel samples, so it times raw
    runner = Runner(args.workload, args.seed, reference, args.seed in workloads.SHIPPED_SEEDS,
                    HostSpeed(plain.kernel, enabled=not args.trace))
    if args.trace:
        untraced = runner.run_passes(plain.ops, null, args.seconds / 2)
        tracer = Tracer()
        traced_wl = workloads.build(args.workload, args.seed, tracer, workdir)
        traced = runner.run_passes(traced_wl.ops, tracer, args.seconds / 2)
        for op in traced_wl.traced_extra:
            runner.run_op(op, tracer, None)
        metrics = per_layer(tracer, runner, untraced, traced)
        tracer.save(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
        declared = spec["per_layer"]
        samples = f"{len(traced)} traced passes after {len(untraced)} untraced"
    else:
        passes = runner.run_passes(plain.ops, null, args.seconds)
        metrics = end_to_end(runner, setups)
        declared = spec["end_to_end"]
        speed = statistics.median(r.scale for r in runner.records)
        samples = (f"medians over {len(passes)} passes and {SETUP_REPEATS} set-ups; "
                   f"median host speed {speed:.3f} of the {plain.kernel} kernel's nominal")

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} ({samples}; unit of work: {plain.unit})")
    for d in declared:
        print(f"{d['name']:<48} {metrics[d['name']]:>16.6g} {d['unit']}")
    print(f"{'ops_failed_frac':<48} {runner.failed / runner.attempted:>16.6g} "
          f"(ops_total {runner.attempted})")
    print("# provenance " + json.dumps(provenance(args.seed)))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
