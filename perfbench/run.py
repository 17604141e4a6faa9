"""dispersive_sw benchmark: whole CLI runs in fresh processes, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/dispersive_sw`` must exist).
A closed loop starts one child process (``child.py``) at a time and waits
for it, until S seconds have passed.  Each child runs the workload's
``dispersive-sw run ... --check --output-dir <tmp>`` through ``run_cli``.

--trace 0 prints the end-to-end metrics: medians over the children, each
child's times scaled to the reference machine speed it measured for
itself (calibrate.py); the record keeps the unscaled medians too.
--trace 1 alternates untraced and traced children and prints the
per-layer metrics of the traced ones; the ratio of their wall times is
the tracing overhead.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics.  The full record, with the
environment block and per-child samples, goes to .bench_out/.

Inputs are deterministic PDE initial data; --seed is recorded but changes
nothing.  Exit code 2 means the benchmark could not run (no source tree, a
missing hook, a layer that saw no call); no result line is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, cli_argv  # noqa: E402

OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"

#: BLAS/OpenMP threads in every child; one thread keeps runs on a shared
#: two-core machine steady and is at most nproc anywhere
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3  # rounds per run; a round is one child of each kind
# a run must end within 180 s: no round starts after RUN_LIMIT_S, and a round
# of at most two children lasts at most 2 * CHILD_TIMEOUT_S (children take < 10 s)
CHILD_TIMEOUT_S = 30.0
RUN_LIMIT_S = 100.0

#: end-to-end metrics, each the median over the children of the child's
#: value divided by slowdown ** exponent, the slowdown the child measured
#: for itself (calibrate.py)
END_TO_END = {"wall_s": 1, "setup_s": 1, "steps_per_s": -1, "peak_rss_mb": 0,
              "import_s": 1}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; exit 2 without a result line."""


# -- statistics -------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- environment ------------------------------------------------------------


def source_digest():
    """sha256 of the Python sources under src/ and the workload table."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(children, overhead):
    versions = next((c["versions"] for c in children if c.get("versions")), {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(THREAD_VARS),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "sympy": versions.get("sympy"),
        "pyyaml": versions.get("yaml"),
        "tracing_overhead": overhead,
    }


# -- outputs ----------------------------------------------------------------


def output_digest(out_dir: Path):
    """sha256 over the names and bytes of every file a run wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def output_problems(workload, out_dir: Path):
    """Reasons the written CSVs are wrong for the workload (empty when fine)."""
    written = {p.stem for p in out_dir.glob("*.csv")}
    problems = []
    if written != set(workload.tables):
        problems.append(f"wrote tables {sorted(written)}, expected {sorted(workload.tables)}")
    if workload.exact_rest and "errors" in written:
        header, row = (out_dir / "errors.csv").read_text().splitlines()[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        for key in ("l2_error_eta", "l2_error_v"):
            if float(fields[key]) != 0.0:
                problems.append(f"lake at rest moved: {key} = {fields[key]}")
    return problems


def check_digest_history(workload_name, source_id, digest):
    """Compare with earlier runs of the same sources; True when they agree."""
    path = OUT / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    known = history.setdefault(source_id, {}).setdefault(workload_name, digest)
    path.write_text(json.dumps(history, indent=1, sort_keys=True))
    return known == digest


def baseline_digest(workload_name):
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"].get(workload_name, {}).get("digest")


# -- children ---------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload, traced, index, spans_path=None):
    """Run one child to completion and check its outputs; its sample dict."""
    work = TMP / f"{workload.name}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir, result = work / "out", work / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--out-dir", str(out_dir), "--result", str(result),
           "--trace", str(int(traced))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 4:  # child.HOOK_EXIT
            raise BenchError(proc.stderr.strip().splitlines()[-1])
        if proc.returncode != 0 or not result.exists():
            sample = {"cli_rc": None, "error": f"child exited {proc.returncode}: "
                      + proc.stderr.strip()[-2000:]}
        else:
            sample = json.loads(result.read_text())
        sample["traced"] = traced
        sample["problems"] = []
        digest = None
        if sample.get("cli_rc") == 0:
            expected = str(ROOT / "src" / "dispersive_sw")
            if not sample["dispersive_sw_file"].startswith(expected):
                raise BenchError(f"child imported {sample['dispersive_sw_file']}, "
                                 f"not the checkout's {expected}")
            sample["problems"] = output_problems(workload, out_dir)
            digest = output_digest(out_dir)
        sample["digest"] = digest
        return sample
    except subprocess.TimeoutExpired:
        return {"cli_rc": None, "error": f"timed out after {CHILD_TIMEOUT_S} s",
                "traced": traced, "problems": [], "digest": None}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def failed(sample):
    return sample.get("cli_rc") != 0 or bool(sample["problems"])


def normalised(sample, name):
    """The child's value of an end-to-end metric at the reference machine speed."""
    return sample[name] / sample["slowdown"] ** END_TO_END[name]


# -- one benchmark run ------------------------------------------------------


def measure(workload, seconds, trace):
    """Run rounds of children (untraced, then traced if tracing) for `seconds`.

    A round is not started when the median round so far would end past
    `seconds`, so a run takes about `seconds`, never less than MIN_ROUNDS.
    """
    OUT.mkdir(exist_ok=True)
    kinds = (False, True) if trace else (False,)
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    samples, rounds = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for traced in kinds:
            samples.append(run_child(workload, traced, len(samples),
                                     spans_path if traced else None))
        rounds.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and (
            elapsed + statistics.median(rounds) > seconds or elapsed >= RUN_LIMIT_S
        ):
            return samples, elapsed


def result_record(workload, args, samples, elapsed):
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    ok = [s for s in samples if not failed(s)]
    n_failed = len(samples) - len(ok)
    digests = sorted({s["digest"] for s in ok})
    source_id = source_digest()
    digest = digests[0] if len(digests) == 1 else None
    history_ok = digest is not None and check_digest_history(workload.name, source_id, digest)

    def ok_values(group, key, at_reference=False):
        return [normalised(s, key) if at_reference else s[key] for s in group
                if not failed(s) and s.get(key) is not None]

    e2e = {name: summary(ok_values(untraced, name, True))
           for name in END_TO_END if ok_values(untraced, name)}
    e2e_measured = {name: summary(ok_values(untraced, name))
                    for name in END_TO_END if ok_values(untraced, name)}
    overhead = None
    if ok_values(traced, "wall_s") and ok_values(untraced, "wall_s"):
        overhead = statistics.median(ok_values(traced, "wall_s", True)) \
            / statistics.median(ok_values(untraced, "wall_s", True)) - 1.0
    layers = {}
    layer_samples = [s["layers"] for s in traced if not failed(s)]
    if layer_samples:
        layers = {k: statistics.median(ls[k] for ls in layer_samples)
                  for k in layer_samples[0]}
    correct = n_failed == 0 and len(digests) == 1 and history_ok
    slowdowns = [s["slowdown"] for s in samples if "slowdown" in s]
    return {
        "workload": workload.name,
        "cli_argv": cli_argv(workload, "<tmp>"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "environment": environment(samples, {workload.name: overhead} if args.trace else None),
        "correct": correct,
        "attempted": len(samples),
        "failed": n_failed,
        "error_rate": n_failed / len(samples),
        "digest": digest,
        "digests_agree_within_run": len(digests) <= 1,
        "digest_matches_earlier_runs": history_ok,
        "digest_matches_baseline": digest is not None and digest == baseline_digest(workload.name),
        "slowdown": summary(slowdowns) if slowdowns else None,
        "end_to_end": e2e,
        "end_to_end_as_measured": e2e_measured,
        "per_layer": layers,
        "failures": [{k: s.get(k) for k in ("cli_rc", "error", "problems", "cli_stdout")}
                     for s in samples if failed(s)],
        "samples": [{k: v for k, v in s.items() if k != "cli_stdout"} for s in samples],
    }


def declared_metrics(kind):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found at the checkout root")
    return [(m["name"], m["unit"]) for m in json.loads(path.read_text())[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (ROOT / "src" / "dispersive_sw" / "cli.py").is_file():
            raise BenchError(f"no dispersive_sw sources under {ROOT / 'src'}")
        kind = "per_layer" if args.trace else "end_to_end"
        declared = declared_metrics(kind)
        samples, elapsed = measure(workload, args.seconds, bool(args.trace))
        record = result_record(workload, args, samples, elapsed)
        name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record, indent=1))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    source = record["end_to_end"] if not args.trace else record["per_layer"]
    metrics = {}
    for name, unit in declared:
        value = source.get(name)
        value = value["median"] if isinstance(value, dict) else value
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate: {record['error_rate']:.6g} 1 "
          f"({record['failed']} of {record['attempted']} runs failed)")
    print(f"digest: {record['digest']} (baseline match: {record['digest_matches_baseline']})")
    if args.trace:
        print(f"tracing_overhead: {record['environment']['tracing_overhead']}")
    for failure in record["failures"]:
        print(f"FAILED: {json.dumps(failure)[:2000]}")
    print(json.dumps({
        "correct": record["correct"] and len(metrics) == len(declared),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
