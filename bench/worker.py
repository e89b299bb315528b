"""The benchmark's fresh process: set up, then run the workload's pass.

    python3 bench/worker.py MANIFEST MODE RESULT

MODE is ``setup`` (set up and exit), ``measure`` (the timed phase) or
``trace`` (the traced run, see spans.py).  The process prints ``ready``
on stdout once ``twistk.cli`` is imported and one warm-up job of each
command has run; run.py times set-up up to that line.  Each job is one
in-process ``twistk.cli.main(argv)`` call, one after another (a closed
loop with one client).  The result goes to RESULT as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import speed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# A timed phase still short of answered jobs beyond p90 stops after this
# long (or four times --seconds), so that a program that fails every job
# ends the run with an error well before its deadline.
GIVE_UP_S = 90.0


def call(main, argv: list[str]) -> tuple[float, tuple]:
    """Seconds taken and (exit code, stdout, stderr, escaped exception name)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as error:  # an escaped exception is a job outcome, judged later
        code, exc = None, type(error).__name__
    return time.perf_counter() - start, (code, out.getvalue(), err.getvalue(), exc)


class Recorder:
    """Attempts as (job, seconds, outcome id); each distinct outcome is kept once.

    A calibration sample (speed.py) is taken before the first job and after
    every job, outside the timed calls.
    """

    def __init__(self):
        self.attempts: list[tuple[int, float, int]] = []
        self.outcomes: list[tuple] = []
        self.calibrations: list[float] = []
        self._ids: dict[tuple, int] = {}

    def run(self, main, job: int, argv: list[str]) -> float:
        if not self.calibrations:
            self.calibrations.append(speed.calibrate())
        seconds, outcome = call(main, argv)
        self.calibrations.append(speed.calibrate())
        key = (job, *outcome)
        if key not in self._ids:
            self._ids[key] = len(self.outcomes)
            self.outcomes.append(key)
        self.attempts.append((job, seconds, self._ids[key]))
        return seconds

    def beyond_p90(self, workload, verdicts: dict[int, bool]) -> int:
        """Correctly answered jobs so far whose time at reference speed lies
        beyond the 90th percentile; ``verdicts`` caches one per outcome."""
        import check

        for outcome in range(len(verdicts), len(self.outcomes)):
            job, *rest = self.outcomes[outcome]
            verdicts[outcome] = check.verdict(workload.jobs[job], *rest)[0] == "ok"
        times = speed.job_times(self.attempts, self.calibrations, workload.name)
        return speed.beyond_p90(times, [verdicts[outcome] for _, _, outcome in self.attempts])


def blas_info() -> dict:
    """BLAS name, version and live thread count (OpenBLAS), as far as numpy tells."""
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"numpy": numpy.__version__, "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown")}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return info


def main() -> int:
    manifest_path, mode, result_path = sys.argv[1:4]
    manifest = json.loads(Path(manifest_path).read_text())
    from twistk import cli

    for argv in manifest["warmup"]:
        call(cli.main, argv)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    jobs = manifest["jobs"]
    recorder = Recorder()
    result: dict = {}
    if mode == "measure":
        import gen  # after "ready": the benchmark's own imports stay out of set-up

        workload = gen.build(manifest["workload"], manifest["seed"])
        verdicts: dict[int, bool] = {}
        start = time.perf_counter()
        passes = 0
        while True:
            for job, argv in enumerate(jobs):
                recorder.run(cli.main, job, argv)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= manifest["seconds"] and (
                recorder.beyond_p90(workload, verdicts) >= speed.MIN_BEYOND_P90
                or elapsed >= max(4 * manifest["seconds"], GIVE_UP_S)
            ):
                break
        result.update(wall=elapsed, passes=passes)
    else:
        import spans

        result.update(spans.traced_run(cli, jobs, manifest, recorder))
    result.update(
        attempts=recorder.attempts,
        outcomes=recorder.outcomes,
        calibrations=recorder.calibrations,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=dict(
            blas_info(),
            python=platform.python_version(),
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
        ),
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
