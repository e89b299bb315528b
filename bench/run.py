"""twistk benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates the workload's
inputs from the seed (gen.py), writes them as JSON under .bench_work/,
then starts bench/worker.py in a fresh interpreter that drives
``twistk.cli.main(argv)`` in-process, one job at a time.  Every outcome is
checked against the job's expected outcome (check.py).

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (spans.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the metrics, the workloads and the predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402

# Set-up is timed this many times per run (fresh interpreters, one after
# another, none overlapping the timed phase).  Each sample is scaled by the
# slowdown of the calibration loops run just before and after it, and the
# median is reported.
SETUP_SAMPLES = 21
SETUP_CALIBRATIONS = 3  # loops on each side of a set-up sample
# A run gives up this long after the requested seconds (set-up, a last pass
# and the traced run's replays take the rest).
DEADLINE_SLACK_S = 155.0
# One BLAS thread (the limit is nproc = 2): with two, the idle OpenBLAS worker
# spins on the second core after each SVD, which on a 2-core host slowed the
# next jobs and the speed calibration; one thread was as fast for these shapes.
BLAS_THREADS = "1"

END_TO_END = {
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {"_ms": "ms", "_us": "us", "_ns": "ns", "_mb": "MiB", "_per_s": "1/s", "_bits": "bits", "_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    return next((unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")


def _worker(manifest: Path, mode: str, result: Path, deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return seconds from start to its ``ready`` line, and the process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(manifest), mode, str(result)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line != "ready\n":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return setup, proc


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def _job_info(job: gen.Job) -> dict:
    """Sizes the traced run turns into computed counts."""
    m = job.model
    if isinstance(m, gen.Finite):
        return {"kind": "finite", "order": m.group.order, "pairs": m.group.order * m.classes}
    return {"kind": type(m).__name__.lower(), "order": 0, "pairs": 0}


def write_inputs(workload: gen.Workload, work: Path) -> tuple[dict[str, str], str, int]:
    """Input files by name, their digest and their total size."""
    (work / "inputs").mkdir(parents=True)
    paths, digest, size = {}, hashlib.sha256(), 0
    for name, spec in sorted({**workload.inputs, **workload.warmup_inputs}.items()):
        data = gen.dump(spec)
        path = work / "inputs" / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path)
        if name in workload.inputs:
            digest.update(name.encode() + b"\0" + data)
            size += len(data)
    return paths, digest.hexdigest(), size


def measure(workload: gen.Workload, seed: int, seconds: int, trace: bool, work: Path, deadline: float) -> dict:
    paths, input_digest, input_bytes = write_inputs(workload, work)
    center = [j for j in workload.jobs if j.command == "center" and j.expect == "answer"]
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "warmup": [job.argv(paths[job.input]) for job in workload.warmup],
        "jobs": [job.argv(paths[job.input]) for job in workload.jobs],
        "info": [_job_info(job) for job in workload.jobs],
        "replay": {
            "inputs": sorted({paths[job.input] for job in workload.jobs if job.expect != "malformed"}),
            "center_peak": paths[max(center, key=lambda j: j.model.group.order).input] if center else None,
            "fp_box": gen.FP_BOX,
        },
    }
    (work / "manifest.json").write_text(json.dumps(manifest))
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES):
        loops = [speed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
        setup, proc = _worker(work / "manifest.json", "setup", work / "setup.json", deadline)
        _finish(proc, deadline)
        loops += [speed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
        setups.append((setup, statistics.median(loops) / speed.REFERENCE_S))
    _, proc = _worker(work / "manifest.json", "trace" if trace else "measure", work / "result.json", deadline)
    _finish(proc, deadline)
    result = json.loads((work / "result.json").read_text())
    result.update(setups=setups, input_digest=input_digest, input_bytes=input_bytes,
                  input_files=len(workload.inputs))
    return result


def judge(workload: gen.Workload, result: dict) -> dict:
    """Verdict per attempt; the report digest; byte-identical repeats."""
    verdicts = [check.verdict(workload.jobs[job], code, out, err, exc) for job, code, out, err, exc in result["outcomes"]]
    first: dict[int, int] = {}
    for job, _, outcome in result["attempts"]:
        first.setdefault(job, outcome)
    digest = hashlib.sha256()
    for job in sorted(first):
        _, code, out, _, exc = result["outcomes"][first[job]]
        digest.update(f"{job}\0{code}\0{exc}\0".encode() + out.encode())
    ok, reasons, unstable = [], Counter(), 0
    for job, _, outcome in result["attempts"]:
        kind, why = verdicts[outcome]
        if outcome != first[job]:
            kind, why = "wrong", "report differs from the first run of the same job"
            unstable += 1
        ok.append(kind == "ok")
        if kind != "ok":
            reasons[(kind, f"{workload.jobs[job].command} {workload.jobs[job].input}: {why}")] += 1
    wrong = sum(count for (kind, _), count in reasons.items() if kind == "wrong")
    return {"ok": ok, "reasons": reasons, "wrong": wrong, "unstable": unstable, "report_digest": digest.hexdigest()}


def end_to_end(name: str, result: dict, judged: dict) -> tuple[dict, dict]:
    """The metrics at reference speed, and the same from raw wall times."""
    raw = [seconds for _, seconds, _ in result["attempts"]]
    scaled = speed.job_times(result["attempts"], result["calibrations"], name)
    beyond = speed.beyond_p90(scaled, judged["ok"])
    if beyond < speed.MIN_BEYOND_P90:
        raise BenchError(f"only {beyond} correctly answered jobs lie beyond p90; {speed.MIN_BEYOND_P90} are needed")
    setup_scaled = [speed.at_reference(s, slow, speed.SETUP_ELASTICITY) for s, slow in result["setups"]]
    setup_raw = [s for s, _ in result["setups"]]
    out = []
    for times, setups in ((scaled, setup_scaled), (raw, setup_raw)):
        ok_times = [t for t, ok in zip(times, judged["ok"]) if ok]
        out.append({
            "job_p50_ms": statistics.median(ok_times) * 1e3,
            "job_p90_ms": speed.p90(ok_times) * 1e3,
            "jobs_per_s": len(ok_times) / sum(times),
            "ok_frac": len(ok_times) / len(times),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        })
    return out[0], out[1]


def report(name: str, seed: int, seconds: int, trace: int, workload: gen.Workload, result: dict, judged: dict,
           metrics: dict, units: dict, raw: dict) -> None:
    env = result["env"]
    attempted = len(result["attempts"])
    failed = attempted - sum(judged["ok"])
    print(f"twistk benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}")
    print(f"environment: nproc={env['nproc']} (affinity {env['affinity']}) python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} {env['blas_version']} blas_threads={env['blas_threads']}")
    print(f"inputs: {result['input_files']} files, {result['input_bytes']} bytes, sha256={result['input_digest']}")
    print(f"reports: sha256={judged['report_digest']} over {len(workload.jobs)} jobs")
    print(f"passes: {result['passes']} of {len(workload.jobs)} jobs in {result['wall']:.2f} s; closed loop, one client")
    print(f"fail_frac: {failed / attempted:.4f} ({failed} / {attempted}); wrong answers: {judged['wrong']}; "
          f"unstable reports: {judged['unstable']}")
    for (kind, why), count in sorted(judged["reasons"].items()):
        print(f"  {kind} x{count}: {why}")
    slow = speed.slowdowns(result["calibrations"])
    print(f"machine slowdown against the reference speed: median {statistics.median(slow):.3f}, "
          f"range {min(slow):.3f}..{max(slow):.3f}; elasticity {speed.ELASTICITY[name]:.3g} (jobs), "
          f"{speed.SETUP_ELASTICITY:.3g} (set-up)")
    if trace:
        tc = result["trace_check"]
        print(f"trace: {tc['spans']} spans; span self time {tc['span_self_ms']:.1f} ms = root spans "
              f"{tc['root_span_ms']:.1f} ms; traced jobs {tc['traced_ms']:.1f} ms vs untraced {tc['untraced_ms']:.1f} ms")
    else:
        beyond = speed.beyond_p90(speed.job_times(result["attempts"], result["calibrations"], name), judged["ok"])
        print(f"correct jobs: {sum(judged['ok'])}, {beyond} beyond p90; setup samples (s, raw / slowdown): "
              f"{', '.join(f'{s:.3f}/{slow:.2f}' for s, slow in result['setups'])}")
        print(f"  {'metric':36s} {'reference speed':>15s} {'raw wall':>14s}")
    for metric, value in metrics.items():
        extra = f" {raw[metric]:14.4f}" if raw else ""
        print(f"  {metric:36s} {value:15.4f}{extra} {units[metric]}")


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run: prints the report and returns the summary object."""
    deadline = time.monotonic() + seconds + DEADLINE_SLACK_S
    workload = gen.build(name, seed)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(workload, seed, seconds, bool(trace), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    judged = judge(workload, result)
    if trace:
        metrics, raw = result["layers"], {}
        units = {metric: _unit(metric) for metric in metrics}
    else:
        metrics, raw = end_to_end(name, result, judged)
        units = END_TO_END
    report(name, seed, seconds, trace, workload, result, judged, metrics, units, raw)
    attempted = len(result["attempts"])
    summary = {
        "correct": judged["wrong"] == 0,
        "attempted": attempted,
        "failed": attempted - sum(judged["ok"]),
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"),
                        help="one workload, or all: each workload untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twistk" / "cli.py").is_file():
        print(f"bench: no twistk sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    runs = [(w, t) for w in gen.WORKLOADS for t in (0, 1)] if args.workload == "all" else [(args.workload, args.trace)]
    summaries = []
    for name, trace in runs:
        try:
            summaries.append(run_one(name, args.seed, args.seconds, trace))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
    if len(summaries) == 1:
        print(json.dumps(summaries[0]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {f"{name}:{metric}": value for (name, _), s in zip(runs, summaries)
                        for metric, value in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
