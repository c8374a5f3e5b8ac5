"""Benchmark of ofdmsar's user-facing commands, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is image-point, image-car, mse-sweep or tradeoff (see README.md); ``all``
runs each in its own process and prints one table. Every operation is an
in-process call of ``ofdmsar.cli.run`` and every completed operation's outputs
are checked. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics of a traced run. A failed check prints ``"correct": false`` and exits 1.
"""

import os

# Thread pools are sized when numpy and scipy are imported, so the caps go
# into the environment first; set-up probes inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # timed fresh interpreters before the loop, and as many after
IMPORT_PROBES = 3  # fresh interpreters under -X importtime in a traced run

#: (metric, unit, aggregate, span). Every value is per completed operation.
LAYERS = (
    ("cli.run.self_s", "s", "self", "cli.run"),
    ("scenes.make_scene_s", "s", "total", "scenes.make_scene"),
    ("geometry.scene_coefficients_s", "s", "total", "geometry.scene_coefficients"),
    ("geometry.scene_coefficients.calls", "count", "calls", "geometry.scene_coefficients"),
    ("waveform.draw_symbols_s", "s", "total", "waveform.draw_symbols"),
    ("echo.pulse_rng_s", "s", "total", "echo.pulse_rng"),
    ("echo.synthesize_pulse_s", "s", "total", "echo.synthesize_pulse"),
    ("echo.synthesize_pulse.calls", "count", "calls", "echo.synthesize_pulse"),
    ("echo.synthesize_raw.self_s", "s", "self", "echo.synthesize_raw"),
    ("rangeproc.range_profile_cube_s", "s", "total", "rangeproc.range_profile_cube"),
    ("rangeproc.ls_estimate_s", "s", "total", "rangeproc.ls_estimate"),
    ("rangeproc.ls_estimate.calls", "count", "calls", "rangeproc.ls_estimate"),
    ("azimuth.rcmc_bulk_s", "s", "total", "azimuth.rcmc_bulk"),
    ("azimuth.azimuth_compress_s", "s", "total", "azimuth.azimuth_compress"),
    ("output.write_db_csv_s", "s", "total", "output.write_db_csv"),
    ("output.write_pgm_s", "s", "total", "output.write_pgm"),
    ("output.write_table_csv_s", "s", "total", "output.write_table_csv"),
    ("metrics.mse_vs_snr_s", "s", "total", "metrics.mse_vs_snr"),
    ("metrics.mse_vs_snr.self_s", "s", "self", "metrics.mse_vs_snr"),
    ("allocation.water_filling_s", "s", "total", "allocation.water_filling"),
    ("allocation.water_filling.calls", "count", "calls", "allocation.water_filling"),
    ("allocation.emse_rate_constrained_s", "s", "total", "allocation.emse_rate_constrained"),
    ("allocation.emse_rate_constrained.calls", "count", "calls",
     "allocation.emse_rate_constrained"),
    ("allocation.tradeoff_sweep.self_s", "s", "self", "allocation.tradeoff_sweep"),
)


@dataclass
class Sample:
    """Completed-operation times and counts of one timed loop."""

    raw: list = field(default_factory=list)  # wall seconds
    scaled: list = field(default_factory=list)  # at reference machine speed
    units: int = 0
    attempted: int = 0
    failed: int = 0

    def median(self, raw: bool = False) -> float:
        if not self.scaled:
            raise SystemExit("perfbench: no operation completed")
        return statistics.median(self.raw if raw else self.scaled)

    def extend(self, other: "Sample") -> None:
        self.raw += other.raw
        self.scaled += other.scaled
        self.units += other.units
        self.attempted += other.attempted
        self.failed += other.failed


def run_probe(workload: str, seed: int, short: bool, importtime: bool = False):
    """Time one fresh interpreter that imports ofdmsar and builds the inputs."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), workload, str(seed), *(["short"] if short else [])]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def setup_samples(workload: str, seed: int, short: bool) -> Sample:
    """Times of fresh set-ups. A first, discarded one warms the file cache."""
    run_probe(workload, seed, short)
    scaler = speed.Scaler()
    sample = Sample()
    for _ in range(1 if short else SETUP_PROBES):
        wall = run_probe(workload, seed, short)[0]
        sample.raw.append(wall)
        sample.scaled.append(wall * scaler.scale(wall))
    return sample


def scipy_self_seconds(importtime_log: str) -> float:
    """Sum of the self import times of scipy's modules in a -X importtime log."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(self_us)
    return total_us * 1e-6


def import_split(workload: str, seed: int, short: bool) -> tuple[float, float]:
    run_probe(workload, seed, short)
    scaler = speed.Scaler()
    whole, scipy_part = [], []
    for _ in range(1 if short else IMPORT_PROBES):
        wall, report, log = run_probe(workload, seed, short, importtime=True)
        factor = scaler.scale(wall)
        whole.append(report["import_ofdmsar_s"] * factor)
        scipy_part.append(scipy_self_seconds(log) * factor)
    return statistics.median(whole), statistics.median(scipy_part)


class Runner:
    """Runs a plan's operations in this process and checks their outputs."""

    def __init__(self, plan: inputs.Plan, checker):
        import ofdmsar.cli
        from ofdmsar.errors import IllConditionedWaveformError

        if not Path(ofdmsar.cli.__file__).resolve().is_relative_to(inputs.SRC):
            raise SystemExit(f"perfbench: ofdmsar imported from {ofdmsar.cli.__file__}")
        self.cli = ofdmsar.cli
        self.known_exceptions = (IllConditionedWaveformError,)
        self.plan = plan
        self.checker = checker
        self.tracer = None
        plan.outdir.mkdir(parents=True, exist_ok=True)

    def run_op(self, op: inputs.Op) -> tuple[float, bool]:
        """(wall seconds, completed). Outputs are checked after the clock stops."""
        outdir = self.plan.outdir
        for stale in outdir.iterdir():
            stale.unlink()
        argv = ["--out", str(outdir), *op.argv]
        log = io.StringIO()
        completed = True
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = self.cli.run(argv)  # looked up here, so a trace wrapper applies
            except self.known_exceptions:
                completed = False
            seconds = time.perf_counter() - start
        if completed:
            if code != 0:
                raise checks.CheckError(f"{' '.join(argv)} exited {code}: {log.getvalue()[-500:]}")
            try:
                self.checker.op(op, outdir)
            except checks.KnownFault:
                completed = False
        return seconds, completed

    def warm_up(self) -> None:
        for op in self.plan.warmup:
            self.run_op(op)

    def loop(self, seconds: float) -> Sample:
        """Whole rounds until the next one would end past ``seconds``."""
        sample = Sample()
        start = time.perf_counter()
        longest_round = 0.0
        index = 0
        scaler = speed.Scaler()
        while True:
            round_start = time.perf_counter()
            for op in self.plan.round_ops(index):
                if self.tracer:
                    self.tracer.begin_op()
                elapsed, completed = self.run_op(op)
                factor = scaler.scale(elapsed)
                if self.tracer:
                    self.tracer.end_op(completed, factor)
                sample.attempted += 1
                if completed:
                    sample.raw.append(elapsed)
                    sample.scaled.append(elapsed * factor)
                    sample.units += op.units
                else:
                    sample.failed += 1
            index += 1
            now = time.perf_counter()
            longest_round = max(longest_round, now - round_start)
            if now - start + longest_round > seconds:
                return sample


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> tuple[dict, Sample, dict]:
    if args.trace:
        import_s, scipy_s = import_split(args.workload, args.seed, args.short)
    else:
        setup = setup_samples(args.workload, args.seed, args.short)
    plan = inputs.build(args.workload, args.seed, args.short)
    runner = Runner(plan, checks.CHECKS[args.workload](plan))
    runner.warm_up()

    if not args.trace:
        sample = runner.loop(args.seconds)
        # Set-ups on both sides of the loop sample two states of a drifting machine.
        setup.extend(setup_samples(args.workload, args.seed, args.short))
        figures = runner.checker.run_end()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": metric(setup.median(), "s"),
            "op_s": metric(sample.median(), "s"),
            "work_per_s": metric(sample.units / sum(sample.scaled), "1/s"),
            "peak_rss_mb": metric(peak_kib / 1024.0, "MiB"),
        }
        figures.update({
            "raw_setup_s": setup.median(raw=True),
            "raw_op_s": sample.median(raw=True),
            "raw_work_per_s": sample.units / sum(sample.raw),
        })
        return metrics, sample, figures

    untraced = runner.loop(args.seconds / 2.0)
    runner.tracer = tracing.Tracer()
    runner.tracer.install()
    try:
        sample = runner.loop(args.seconds / 2.0)
    finally:
        runner.tracer.uninstall()
    figures = runner.checker.run_end()
    tr = runner.tracer
    tr.write(inputs.WORK / f"trace-{args.workload}.jsonl")
    ops = tr.ops
    aggregates = {"self": tr.self_time, "total": tr.total, "calls": tr.calls}
    metrics = {"import.ofdmsar_s": metric(import_s, "s"),
               "import.scipy_s": metric(scipy_s, "s")}
    for name, unit, kind, span in LAYERS:
        metrics[name] = metric(aggregates[kind].get(span, 0) / ops, unit)
    metrics["output.bytes"] = metric(tr.bytes_written / ops, "B")
    metrics["trace.overhead_s"] = metric(sample.median() - untraced.median(), "s")
    figures.update({
        "untraced_op_s": untraced.median(),
        "traced_op_s": sample.median(),
        "raw_untraced_op_s": untraced.median(raw=True),
        "raw_traced_op_s": sample.median(raw=True),
        "self_time_sum_s": sum(tr.self_time.values()) / ops,
        "self_s": {name: t / ops for name, t in sorted(tr.self_time.items())},
    })
    untraced.extend(sample)
    return metrics, untraced, figures


def run_one(args) -> int:
    inputs.use_checkout_src()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    try:
        metrics, sample, figures = measure(args)
        result.update(attempted=sample.attempted, failed=sample.failed, metrics=metrics)
    except checks.CheckError as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        figures, code = {}, 1
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  operations attempted {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in figures.items():
        if not isinstance(value, dict):
            print(f"  check figure {name}: {value:.6g}")
    inputs.WORK.mkdir(parents=True, exist_ok=True)
    (inputs.WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "seed": args.seed, "figures": figures}, indent=1) + "\n")
    print(json.dumps(result))
    return code


def run_all(args) -> int:
    """Each workload in its own process, as the single-workload command runs it."""
    results, code = {}, 0
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), *(["--short"] if args.short else [])]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.splitlines()
        if not lines:
            raise SystemExit(f"perfbench: {workload} printed nothing")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':42s} {'unit':6s}" + "".join(f"{w:>14s}" for w in results))
    for key in ("attempted", "failed"):
        print(f"{key:42s} {'ops':6s}" + "".join(f"{r[key]:>14d}" for r in results.values()))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'].get(name, {}).get('value', float('nan')):>14.6g}"
                        for r in results.values())
        print(f"{name:42s} {unit:6s}{cells}")
    print(json.dumps(results))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one set-up probe, no warm-up and a round of one or two operations")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
