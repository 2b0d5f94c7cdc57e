"""Benchmark of `fermiperm reduce`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload embed_onebody --seed 1 --seconds 24 --trace 0

A run sets up in a child process (a fresh Python imports ``fermiperm``
from ``src/`` and writes the workload input from ``--seed``, see
``workloads.py``), imports ``fermiperm`` itself and makes one untimed
warm-up call.  Then it runs a closed loop, one caller and one in-process
``cli.main(["reduce", ...])`` at a time, for ``--seconds`` in all, in three
parts separated by two untimed passes: a layer-by-layer pass (see
``layers.py``) whose reduced term count every CLI output must match, and a
memory pass.  Set-up is timed again after each part.

* ``--trace 0`` prints the end-to-end metrics.  A fixed reference kernel
  (see ``reference.py``) runs before and after every timed call, and
  ``reduce_rel`` is the median over the timed calls of call seconds divided
  by the mean seconds of the two kernel runs around it: a shared machine's
  speed drifts by up to 2x over minutes, and the ratio cancels most of
  that.  The median wall seconds of a call (``reduce_s``), its tail
  percentiles and ``us_per_term`` are in the report and in the lines above
  the result.  ``setup_s`` is the median wall time of the child-process
  set-ups.  The memory pass is one CLI call under tracemalloc, which gives
  ``peak_mib``.
* ``--trace 1`` prints the per-layer metrics.  Each timed CLI call is
  followed by a layer pass whose calls are kept as spans; the memory pass
  is a layer pass that traces the calls behind the ``*_peak_mib`` metrics.

Every CLI output is checked, and a failed check counts in ``failed``.  The
last line of stdout is the JSON result; the full report (environment, input
sha256, samples, spans) is written to ``perfbench/work/``.
"""

import os

# BLAS and OpenMP read these when numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402

from layers import (  # noqa: E402
    INSIDE_ENCODE_AND_REDUCE, PERM_BUILDERS, PIPELINE, PeakMemory, Spans, layer_pass,
)
from reference import ReferenceKernel  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
MODULES = ("minimal", "encodings", "permutations", "reduction", "pauli", "cli")
SETUP_REPS = 2  # at each of four points of a run
# One set-up, as a user's first `fermiperm` command pays it: a fresh Python
# imports fermiperm (numpy with it) and writes the workload input.
# argv: src dir, perfbench dir, workload, seed, "smoke" or "full", out dir.
SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import fermiperm.cli
from workloads import WORKLOADS, write_input
w = WORKLOADS[sys.argv[3]]
if sys.argv[5] == "smoke":
    w = w.smoke()
path, sha = write_input(w, int(sys.argv[4]), Path(sys.argv[6]))
print(path.name, sha)
"""
MIB = float(1 << 20)
# Layer calls whose tracemalloc peak --trace 1 reports, as <name>_peak_mib.
PEAK_CALLS = ("permutations.conjugate", "pauli.to_dense", "reduction.oracle",
              "reduction.verify")

END_TO_END = {
    "reduce_rel": "x_ref",
    "peak_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "perm_build_s": "s",
    "encodings.encode_s": "s",
    "encodings.terms_in": "count",
    "encodings.terms_out": "count",
    "permutations.classify_s": "s",
    "permutations.affine_path": "count",
    "permutations.conjugate_s": "s",
    "permutations.terms_out": "count",
    "minimal.redundancy_s": "s",
    "minimal.fixed_qubits": "count",
    "reduction.project_s": "s",
    "reduction.terms_out": "count",
    "reduction.kept_ratio": "ratio",
    "reduction.output_density": "ratio",
    "reduction.encode_and_reduce_s": "s",
    "reduction.unaccounted_s": "s",
    "reduction.oracle_s": "s",
    "reduction.sector_dim": "count",
    "reduction.verify_s": "s",
    "pauli.to_dense_s": "s",
    "pauli.to_dense_bytes": "bytes_computed",
    "pauli.decompose_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.reduce_s": "s",
    "cli.us_per_term": "us",
    "trace.coverage": "ratio",
    "trace.uncovered_s": "s",
    "permutations.conjugate_peak_mib": "MiB",
    "pauli.to_dense_peak_mib": "MiB",
    "reduction.oracle_peak_mib": "MiB",
    "reduction.verify_peak_mib": "MiB",
}


def import_fermiperm() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(
        **{m: importlib.import_module(f"fermiperm.{m}") for m in MODULES}
    )


def time_setup(name: str, smoke: bool, seed: int) -> tuple[float, Path, str]:
    """One set-up in a child process (see SETUP_CHILD); returns its wall
    seconds, the input path and the input's sha256 as the child saw it."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), name, str(seed),
         "smoke" if smoke else "full", str(inputs)],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.strip()}")
    file_name, sha = child.stdout.split()
    return elapsed, inputs / file_name, sha


def call_reduce(fp, w: Workload, hamiltonian: Path, output: Path) -> int:
    return fp.cli.main(
        ["reduce", "--modes", str(w.n_modes), "--fermions", str(w.n_fermions),
         "--hamiltonian", str(hamiltonian), "--hermitize", *w.selector,
         "--output", str(output)]
    )


def check_output(w: Workload, code, output: Path) -> tuple[list[str], int | None]:
    """What the call's own output shows is wrong (exit code, verify flag,
    register width), and its term count."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        doc = json.loads(output.read_text())
        passed = doc["verify"]["passed"]
        width = doc["hamiltonian"]["n_qubits"]
        terms = len(doc["hamiltonian"]["terms"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], None
    problems = []
    if passed is not True:
        problems.append("verify.passed is false")
    if width != w.out_qubits:
        problems.append(f"register width {width} != {w.out_qubits}")
    return problems, terms


class Runner:
    """Calls the CLI and the layer pass and records every call's checks."""

    def __init__(self, fp, w: Workload, hamiltonian: Path) -> None:
        self.fp, self.w, self.hamiltonian = fp, w, hamiltonian
        self.text = hamiltonian.read_text()
        self.output = WORK / "out" / f"{w.name}-N{w.n_modes}.json"
        self.output.parent.mkdir(parents=True, exist_ok=True)
        self.calls: list[dict] = []

    def reduce(self, what: str) -> float:
        """One CLI call, garbage collected beforehand; returns its seconds."""
        self.output.unlink(missing_ok=True)  # a call that writes nothing fails
        gc.collect()
        start = time.perf_counter()
        try:
            code = call_reduce(self.fp, self.w, self.hamiltonian, self.output)
        except Exception:  # the loop keeps running; the failure is recorded
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        problems, terms = check_output(self.w, code, self.output)
        self.calls.append({"call": what, "problems": problems, "terms": terms})
        return elapsed

    def layers(self, what: str, measure):
        gc.collect()
        try:
            result = layer_pass(self.fp, self.w, self.text, measure)
            problems = result.problems
        except Exception:
            result, problems = None, [traceback.format_exc()]
        self.calls.append({"call": what, "problems": problems, "terms": None})
        return result

    def failures(self, expected_terms: int) -> list[dict]:
        """Every failed call.  A CLI output fails also when its term count
        differs from the reference layer pass's reduction.terms_out."""
        out = []
        for c in self.calls:
            problems = list(c["problems"])
            if c["terms"] is not None and c["terms"] != expected_terms:
                problems.append(f"{c['terms']} terms != {expected_terms} from the layer pass")
            if problems:
                out.append({"call": c["call"], "problems": problems})
        return out


def peak_of_call(runner: Runner) -> float:
    """Untimed: the tracemalloc peak of one CLI call, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        runner.reduce("memory pass call")
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


def peaks_of_layers(runner: Runner) -> dict[str, int]:
    """Untimed: a layer pass with the tracemalloc peak of each PEAK_CALLS call."""
    peaks = PeakMemory(PEAK_CALLS)
    if runner.layers("memory pass layers", peaks.measure) is None:
        raise RuntimeError(f"memory pass raised: {runner.calls[-1]['problems']}")
    return peaks.peaks


def median_of(rows: list[dict], key) -> float:
    return statistics.median(key(r) for r in rows)


def per_layer_metrics(ref, durations, cli_samples, peaks) -> dict:
    """Seconds are medians over the traced layer passes and counts come from
    the reference pass.  ``trace.coverage`` is the share of the median CLI
    call that the spans of the calls a reduce makes today add up to."""
    covered = median_of(durations, lambda d: sum(d[n] for n in PIPELINE))
    reduce_s = statistics.median(cli_samples)
    m = {f"{name}_s": median_of(durations, lambda d, n=name: d[n]) for name in (
        "perm_build", "encodings.encode",
        "permutations.classify", "permutations.conjugate", "minimal.redundancy",
        "reduction.project", "reduction.encode_and_reduce", "reduction.oracle",
        "reduction.verify", "pauli.to_dense", "pauli.decompose", "cli.parse",
        "cli.emit",
    )}
    m.update({
        "encodings.terms_in": ref.terms_in,
        "encodings.terms_out": ref.encoded_terms,
        "permutations.affine_path": int(ref.affine),
        "permutations.terms_out": ref.conjugated_terms,
        "minimal.fixed_qubits": ref.fixed_qubits,
        "reduction.terms_out": ref.reduced_terms,
        "reduction.kept_ratio": ref.reduced_terms / ref.conjugated_terms,
        "reduction.output_density": ref.reduced_terms / 4 ** ref.n_qubits,
        "reduction.unaccounted_s": median_of(
            durations,
            lambda d: d["reduction.encode_and_reduce"]
            - sum(d[n] for n in INSIDE_ENCODE_AND_REDUCE),
        ),
        "reduction.sector_dim": ref.sector_dim,
        "pauli.to_dense_bytes": 16 * 4 ** ref.n_qubits,
        "cli.reduce_s": reduce_s,
        "cli.us_per_term": reduce_s / ref.reduced_terms * 1e6,
        "trace.coverage": covered / reduce_s,
        "trace.uncovered_s": reduce_s - covered,
    })
    for name in PEAK_CALLS:
        m[f"{name}_peak_mib"] = peaks[name] / MIB
    return m


def tail_percentiles(samples: list[float]) -> dict:
    """p90/p99 only where at least ten samples lie beyond the percentile."""
    out = {}
    ordered = sorted(samples)
    for p in (90, 99):
        if len(ordered) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[int(len(ordered) * p / 100)]
    return out


def run(w: Workload, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the full report, whose ``result`` entry is
    the JSON line the benchmark prints last."""
    phases: dict[str, float] = {}
    lap = time.perf_counter()

    def phase_done(name: str) -> None:
        nonlocal lap
        now = time.perf_counter()
        phases[name] = now - lap
        lap = now

    setup_times: list[float] = []
    input_shas: set[str] = set()

    def set_up() -> Path:
        for _ in range(SETUP_REPS):
            elapsed, path, sha = time_setup(w.name, smoke, seed)
            setup_times.append(elapsed)
            input_shas.add(sha)
        if len(input_shas) != 1:
            raise RuntimeError(f"seed {seed} gave different inputs: {sorted(input_shas)}")
        return path

    hamiltonian = set_up()
    fp = import_fermiperm()
    runner = Runner(fp, w, hamiltonian)
    runner.reduce("warm-up call")
    phase_done("setup_and_warm_up")

    spans = Spans()
    kernel = ReferenceKernel()
    samples: list[float] = []
    kernel_samples: list[float] = []
    ratios: list[float] = []  # call seconds / mean of the kernel runs around it
    passes = []

    def timed_calls(budget: float) -> None:
        start = time.perf_counter()
        kernel_samples.append(kernel.seconds())
        while True:
            samples.append(runner.reduce(f"timed call {len(samples)}"))
            kernel_samples.append(kernel.seconds())
            ratios.append(samples[-1] / statistics.fmean(kernel_samples[-2:]))
            if trace:
                with spans.operation(f"{w.name}/layer pass {len(passes)}"):
                    passes.append(runner.layers(f"layer pass {len(passes)}", spans.measure))
            if time.perf_counter() - start >= budget:
                return

    # The timed calls come in three parts between the untimed passes, and
    # set-up is repeated after each part, so that every figure draws on
    # several moments of a run.
    timed_calls(seconds / 3)
    set_up()
    phase_done("timed_part_1")
    # An untimed layer pass gives the term count every CLI output must match.
    ref = runner.layers("reference layer pass", lambda name: nullcontext())
    if ref is None:
        raise RuntimeError(f"reference layer pass raised: {runner.calls[-1]['problems']}")
    phase_done("reference_pass")
    timed_calls(seconds / 3)
    set_up()
    phase_done("timed_part_2")
    # tracemalloc slows a call up to tenfold, so each mode traces only the
    # memory figures it reports.
    if trace:
        peaks = peaks_of_layers(runner)
    else:
        peak_mib = peak_of_call(runner)
    phase_done("memory_pass")
    timed_calls(seconds / 3)
    set_up()
    phase_done("timed_part_3")

    failures = runner.failures(ref.reduced_terms)
    if trace:
        if None in passes:
            raise RuntimeError(f"layer pass raised: {failures}")
        metrics = per_layer_metrics(ref, spans.durations(), samples, peaks)
        units = PER_LAYER
    else:
        metrics = {
            "reduce_rel": statistics.median(ratios),
            "peak_mib": peak_mib,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": not failures,
            "attempted": len(runner.calls),
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
        "fail_ratio": len(failures) / len(runner.calls),
        "workload": {"name": w.name, "N": w.n_modes, "K": w.n_fermions,
                     "two_body": w.two_body, "selector": w.selector, "why": w.why},
        "seed": seed,
        "input": {"path": str(hamiltonian.relative_to(ROOT)), "sha256": input_shas.pop()},
        "labels": {"permutations.path": "affine" if ref.affine else "general",
                   "perm_build": PERM_BUILDERS[w.parity]},
        "reduce_s": {"median": statistics.median(samples), "min": min(samples),
                     "samples": len(samples), **tail_percentiles(samples)},
        "us_per_term": statistics.median(samples) / ref.reduced_terms * 1e6,
        "reduce_s_samples": samples,
        "reference_kernel_s_samples": kernel_samples,
        "phases_s": phases,
        "setup_s_samples": setup_times,
        "failures": failures,
        "environment": environment(),
        "spans": spans.records,
    }


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    sources = hashlib.sha256()
    for path in sorted((SRC / "fermiperm").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": sources.hexdigest(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout (src_sha256 then identifies the sources)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="same workload shape at N=4, K=2")
    args = parser.parse_args(argv)
    if not (SRC / "fermiperm" / "__init__.py").is_file():
        print(f"error: no fermiperm sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    report = run(w, args.seed, args.seconds, args.trace, args.smoke)
    name = f"{w.name}-N{w.n_modes}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=1))

    result = report["result"]
    print(f"workload {w.name} N={w.n_modes} K={w.n_fermions} seed={args.seed} "
          f"input sha256 {report['input']['sha256']}")
    env = report["environment"]
    print(f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, commit {env['commit']}, src sha256 {env['src_sha256']}")
    print(f"labels {report['labels']}")
    for key, entry in result["metrics"].items():
        print(f"{key:34s} {entry['value']:.6g} {entry['unit']}")
    calls = report["reduce_s"]
    print(f"{'reduce_s (median)':34s} {calls['median']:.6g} s over {calls['samples']} "
          f"timed calls; " + ", ".join(f"{k} {v:.6g} s" for k, v in calls.items()
                                       if k.startswith("p")))
    print(f"{'us_per_term (median)':34s} {report['us_per_term']:.6g} us")
    print(f"{'fail_ratio':34s} {report['fail_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for failure in report["failures"]:
        print(f"FAILED {failure['call']}: {failure['problems']}")
    print(f"report {(WORK / name).relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
