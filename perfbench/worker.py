"""One fresh interpreter of the benchmark.  `run.py` starts it as

    worker.py probe <src>                  time `import qreduce.cli`
    worker.py run   <src> <request.json>   run a workload, traced or not

and reads the JSON object it prints as its last line of standard output.
The import of `qreduce.cli` is timed before anything else is imported, so
that `setup_s` is the cost every CLI call pays.
"""
import sys
import time


def _import_program(src: str) -> float:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import qreduce.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    from pathlib import Path

    where = Path(sys.modules["qreduce"].__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"imported qreduce from {where}, not from {src}")
    return elapsed


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    setup_s = _import_program(src)
    import json

    if mode == "probe":
        result = {"setup_s": setup_s}
    elif mode == "run":
        with open(argv[2]) as fh:
            request = json.load(fh)
        result = _run(request, setup_s)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _call(argv: list[str]):
    """One in-process CLI call; the report it prints is captured."""
    import contextlib
    import io

    cli = sys.modules["qreduce.cli"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:   # a crash is a failed op, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def _run(request: dict, setup_s: float) -> dict:
    import resource

    import workloads
    from tracer import Tracer

    settings = request["settings"]
    ops = workloads.build_ops(request["workload"], request["seed"], settings,
                              request["manifest"])
    tracer = None
    if request["traced"]:
        tracer = Tracer()
        tracer.install()

    pass_s, op_s = [], []
    attempted = failed = 0
    notes: list[str] = []
    verify_info: dict = {}
    started = time.perf_counter()
    while True:
        outputs = []
        pass_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            code, stdout, error = _call(op.argv)
            op_s.append(time.perf_counter() - t0)
            outputs.append((op, code, stdout, error))
        pass_s.append(time.perf_counter() - pass_start)
        for op, code, stdout, error in outputs:
            verdict = workloads.judge(op, code, stdout, error)
            attempted += verdict.attempted
            failed += verdict.failed
            notes += verdict.notes
            if verdict.stdout_sha256 is not None:
                if verify_info.setdefault("stdout_sha256",
                                          verdict.stdout_sha256) \
                        != verdict.stdout_sha256:
                    failed += 1
                    notes.append("verify stdout differs between calls with "
                                 "the same seed")
                verify_info["checks_total"] = verdict.checks_total
                verify_info["exercised_dims"] = verdict.exercised_dims
        if request["passes"]:
            if len(pass_s) >= request["passes"]:
                break
            continue
        # Stop before a pass that would end after the deadline, once the
        # workload's minimum number of timed calls is reached.
        elapsed = time.perf_counter() - started
        if (len(op_s) >= settings.get("min_ops", 0)
                and elapsed * (len(pass_s) + 1) / len(pass_s)
                > request["seconds"]):
            break

    record = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
        **verify_info,
    }
    if tracer is not None:
        tracer.write_spans(request["spans_path"])
        record["trace"] = {
            "per_layer": tracer.metrics(request["per_layer"]),
            "table": tracer.table(),
            "missing": tracer.missing,
            "spans": len(tracer.span_start),
        }
    return record


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "GOTO_NUM_THREADS")


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var)
                            for var in BLAS_THREAD_VARS},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
