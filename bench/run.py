"""Benchmark of the joinforge command line on four workloads.

One operation is one in-process call to ``joinforge.cli.main(argv)`` with
standard output and error captured, then checked.  A single thread drives
the load in a closed loop (the next operation starts when the previous one
returns), with ``--jobs 1`` on every fuzz command and one thread for BLAS and
OpenMP.  Each workload runs in its own interpreter.

Usage, from the repository root::

    python3 bench/run.py --workload deep-binary --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --record-reference      # rewrite reference_seed0.json

A run measures set-up, generates its instance files (untimed), runs one
untimed warm-up operation, then measures whole cycles of operations until
``--seconds`` of operation time have passed.  Times are CPU times scaled to
a reference processor speed (see ``calibration.py``), so that steal time
and speed changes of a shared host move them little.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it gives details (tail
percentile, sample counts, input properties).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half with every target function
wrapped (see ``tracing.py``), and reports the per-layer metrics together
with the tracing overhead: the traced time of the operations both halves
ran, over their untraced time, minus one.
"""

from __future__ import annotations

import os

# before anything imports numpy
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from calibration import calibration_s, scaled  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference_seed0.json"

# set-up is timed in fresh interpreters, several per run, and reported as
# their median; the run's own import cannot be repeated
SETUP_SAMPLES = 7
SETUP_CALIBRATIONS = 5  # calibration runs after each probe's import
TAIL_BEYOND = 10  # successful operations the tail percentile leaves above it
# With at least five cycles, every class of a cycle (the k=14 files of
# deep-binary, for one) has more than TAIL_BEYOND samples, so the tail and
# the median each fall inside one class however many cycles fit in a run,
# and neither sits at the edge of its class.  Five deep-binary cycles take
# about 34 s of scaled time, so that workload measures longer than
# --seconds 12.
MIN_CYCLES = 5
WALL_LIMIT = 1.5  # a phase ends after this many times --seconds of wall time
# calibrations this close to an operation scale its time; the host's speed
# changes over seconds, so a short window averages out the noise of single
# calibrations without mixing in another speed
CALIBRATION_WINDOW_S = 0.25
# the calibration is imported after the timed import, so the standard
# modules it uses do not shorten it
IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "t = time.process_time()\n"
    "import joinforge, joinforge.cli\n"
    "t = time.process_time() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calibration import calibration_s\n"
    "c = statistics.median(calibration_s() for _ in range(int(sys.argv[2])))\n"
    "print(t, c)\n"
    "print(joinforge.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _from_checkout(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """Import time of ``joinforge`` and ``joinforge.cli`` in fresh interpreters.

    Each sample is the import's CPU time at the reference speed, scaled by
    the calibration runs the same interpreter makes right after it.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR), str(SETUP_CALIBRATIONS)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2 or not _from_checkout(lines[1]):
            raise BenchError(f"cannot import joinforge from {SRC}: {proc.stderr.strip()}")
        import_s, calibration = map(float, lines[0].split())
        samples.append(scaled(import_s, calibration))
    return samples


def require_sources() -> None:
    if not (SRC / "joinforge" / "__init__.py").is_file():
        raise BenchError(f"no joinforge sources under {SRC}")


def import_cli():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("joinforge.cli")
    if not _from_checkout(cli.__file__):
        raise BenchError(f"joinforge imported from {cli.__file__}, not {SRC}")
    return cli


def cpu_time() -> float:
    """CPU seconds used by this process and by its children that have ended.

    The benchmark times operations in CPU time, not wall time: on a shared
    virtual machine the host takes the processor away from the guest for
    stretches of seconds (steal time), which stretches wall time by up to
    two thirds and does not count as CPU time.  With ``--jobs 1`` and one BLAS
    thread the library does all of its work on this process's one thread,
    so CPU time is its compute time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def run_op(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """One call of the command line; an escaping exception is exit None, a wrong output.

    The last element is the call's CPU time.
    """
    out, err = io.StringIO(), io.StringIO()
    start = cpu_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the library must not raise; the check reports it
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), cpu_time() - start


def check(op, code, out, err) -> Outcome:
    if code is None:
        return Outcome(errors=[f"{op.argv}: raised {_last_line(err)}"])
    try:
        return op.check(code, out)
    except (KeyError, TypeError, ValueError) as exc:
        return Outcome(errors=[f"{op.argv}: unreadable output: {exc!r}"])


class Phase:
    """Operations run back to back in whole cycles, and their checked outcomes.

    Each operation is followed by a garbage collection and one calibration
    run (see ``calibration.py``), neither of them timed.  An operation's
    duration is its CPU time scaled to the reference speed by the median of
    the calibrations made from ``CALIBRATION_WINDOW_S`` before it starts to
    as long after it ends, and at least the ones just before and just after
    it.  The phase stops at the first cycle boundary after ``seconds`` of
    scaled time, and not before ``min_cycles`` cycles and ``min_instances``
    instances.  Once those are met, it also stops at a cycle boundary after
    ``WALL_LIMIT`` times ``seconds`` of wall time, so that a slow or busy
    host does not stretch a run much.
    """

    def __init__(
        self, cli, workload, seconds: float, min_cycles: int = 1, min_instances: int = 0
    ) -> None:
        records = []
        cpu_durations = []
        spans = []  # wall-clock start and end of each operation
        calibrations = [calibration_s()]
        calibrated_at = [perf_counter()]
        start, cpu_start = perf_counter(), cpu_time()
        elapsed = 0.0  # scaled by the neighbouring calibrations, to stop on
        attempted = 0
        i = 0
        while True:
            op = workload.op_at(i)
            began = perf_counter()
            code, out, err, cpu = run_op(cli, op.argv)
            spans.append((began, perf_counter()))
            gc.collect()  # each operation starts from a collected heap
            calibrations.append(calibration_s())
            calibrated_at.append(perf_counter())
            records.append((op, code, out, err))
            attempted += op.instances
            cpu_durations.append(cpu)
            elapsed += scaled(cpu, (calibrations[-2] + calibrations[-1]) / 2)
            i += 1
            cycles, within = divmod(i, workload.cycle_len)
            if within or cycles < min_cycles or attempted < min_instances:
                continue
            if elapsed >= seconds or perf_counter() - start >= WALL_LIMIT * seconds:
                break
        self.wall = perf_counter() - start
        self.cpu = cpu_time() - cpu_start
        self.ops_cpu = sum(cpu_durations)
        self.calibration_s = statistics.median(calibrations)
        self.durations = []  # scaled CPU time of each operation
        for i, ((began, ended), cpu) in enumerate(zip(spans, cpu_durations)):
            first = min(i, bisect.bisect_left(calibrated_at, began - CALIBRATION_WINDOW_S))
            last = max(i + 2, bisect.bisect_right(calibrated_at, ended + CALIBRATION_WINDOW_S))
            self.durations.append(scaled(cpu, statistics.median(calibrations[first:last])))
        self.attempted = attempted
        self.outcomes = [check(op, code, out, err) for op, code, out, err in records]
        self.failure_notes = sorted(
            {f"exit {code}: {_last_line(err)}" for _, code, _, err in records if code != 0}
        )

    @property
    def succeeded(self) -> int:
        return sum(o.ok for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def errors(self) -> list[str]:
        return [e for o in self.outcomes for e in o.errors]

    def success_latencies(self) -> list[float]:
        return [
            d for d, o in zip(self.durations, self.outcomes) if o.ok > 0 and not o.failed
        ]


def _last_line(err: str) -> str:
    lines = err.strip().splitlines()
    return lines[-1] if lines else ""


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    index = n - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / n, ordered[index]


def end_to_end(phase: Phase, setup: list[float]) -> tuple[dict, dict]:
    latencies = phase.success_latencies()
    if not latencies:
        raise BenchError("no operation succeeded: " + "; ".join(phase.failure_notes))
    percentile, tail_value = tail(latencies)
    ok = phase.succeeded
    metrics = {
        "throughput_per_s": (ok / sum(phase.durations), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "success_frac": (ok / phase.attempted, "frac"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "latency_samples": len(latencies),
        "latency_tail_percentile": percentile,
        "failed_frac": phase.failed / phase.attempted,
        "operations": len(phase.durations),
        "wall_s": phase.wall,
        "cpu_s": phase.cpu,
        "ops_cpu_s": phase.ops_cpu,
        "ops_scaled_s": sum(phase.durations),
        "calibration_median_s": phase.calibration_s,
        "setup_samples_s": setup,
    }
    return metrics, details


def per_layer(untraced: Phase, traced: Phase, tracer: Tracer) -> tuple[dict, dict]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    checks = tracer.calls["verify.check_inequality"]
    for name in ("tree.cylinder_masses", "orbits.extract_shape"):
        metrics[f"{name}.per_check"] = (tracer.calls[name] / checks if checks else 0.0, "count")
    inductive = sum(o.inductive_ok for o in traced.outcomes)
    estimated = sum(o.estimated for o in traced.outcomes)
    metrics["bounds.estimated_frac"] = (estimated / inductive if inductive else 0.0, "frac")
    shared = min(len(untraced.durations), len(traced.durations))
    overhead = sum(traced.durations[:shared]) / sum(untraced.durations[:shared]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["input.instances"] = (traced.attempted, "count")
    metrics["input.vertices_total"] = (tracer.vertices_total, "count")
    metrics["input.max_join_degree"] = (tracer.max_join_degree, "count")
    bracket = tracer.bracket_calls / tracer.closed_form_calls if tracer.closed_form_calls else 0.0
    metrics["input.bracket_frac"] = (bracket, "frac")
    details = {
        "absent": tracer.absent,
        "property_errors": tracer.property_errors[:5],
        "overhead_ops_compared": shared,
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "untraced_scaled_s": sum(untraced.durations),
        "traced_scaled_s": sum(traced.durations),
    }
    return metrics, details


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)[workload]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read recorded outputs from {REFERENCE}: {exc!r}") from exc


def scratch_dir(label: str) -> Path:
    workdir = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def remove_scratch(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()  # only when no other run is using it


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = [] if trace else measure_setup()
    workdir = scratch_dir(f"{name}-{seed}")
    try:
        # builds every input before anything is timed
        workload = WORKLOADS[name](seed, str(workdir), load_reference(name, seed))
        cli = import_cli()
        warm = workload.op_at(0)
        run_op(cli, warm.argv)
        gc.collect()
        if trace:
            untraced = Phase(cli, workload, seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = Phase(cli, workload, seconds / 2)
            metrics, details = per_layer(untraced, traced, tracer)
            phases = [untraced, traced]
        else:
            phase = Phase(cli, workload, seconds, MIN_CYCLES, workload.min_instances)
            metrics, details = end_to_end(phase, setup)
            phases = [phase]
    finally:
        remove_scratch(workdir)
    errors = [e for p in phases for e in p.errors]
    details.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        failures=sorted({n for p in phases for n in p.failure_notes}),
        errors=errors[:5],
    )
    print(json.dumps(details, sort_keys=True))
    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh interpreter; a table, then all results as JSON."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = {"details": json.loads(lines[-2]), **json.loads(lines[-1])}
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:15} {metric:38} {entry['value']:14.6g} {entry['unit']}")
        print(f"{name:15} {'correct':38} {str(results[name]['correct']):>14}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def record_reference() -> int:
    """Write the regime-independent outputs of the default seed to the reference file."""
    cli = import_cli()
    recorded = {}
    for name, build in WORKLOADS.items():
        workdir = scratch_dir(f"record-{name}")
        try:
            workload = build(DEFAULT_SEED, str(workdir), None)
            entries = []
            for i in workload.reference_ops:
                op = workload.op_at(i)
                code, out, err, _ = run_op(cli, op.argv)
                outcome = check(op, code, out, err)
                if outcome.errors or outcome.reference is None:
                    raise BenchError(f"{name} op {i} cannot be recorded: {outcome.errors}")
                entries.append(outcome.reference)
            recorded[name] = entries
        finally:
            remove_scratch(workdir)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        require_sources()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
