"""Benchmark entry point.

    python3 perfbench/run.py --workload {prose_kg,boilerplate_ckpt,serve_ner}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Everything else goes to standard error.  Exits non-zero,
naming the cause, when the program cannot be imported or a check fails.
"""

import time

T_START = time.perf_counter()  # the cold set-up clock starts with the process

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("prose_kg", "boilerplate_ckpt", "serve_ner")


def _fail(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def _stop_descendants(timeout: float = 20.0) -> None:
    """Wait for every process this one started to end; kill what is left."""
    from perfbench.procmem import descendants

    me = os.getpid()
    deadline = time.monotonic() + timeout
    while True:
        left = [p for p in descendants(me) if p != me]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        for p in left:  # reap our own children
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.1)


def _units(trace_on: bool) -> dict:
    """metric -> unit of the metrics this run prints, from BENCHMARK.json"""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    try:
        import unsupervised_ner_ray  # noqa: F401
        from unsupervised_ner_ray.pipelines import flagship  # noqa: F401
        from unsupervised_ner_ray import serving  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import the program from {ROOT}: {exc!r}", 2)
    if not os.path.abspath(unsupervised_ner_ray.__file__).startswith(ROOT + os.sep):
        _fail(f"the program imported from {unsupervised_ner_ray.__file__}, not from {ROOT}", 2)
    try:
        units = _units(bool(args.trace))
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"cannot read the metric list from BENCHMARK.json: {exc!r}", 2)

    # keep the result the last line of stdout: everything else, Ray's and
    # the server's output included, goes to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    from perfbench import trace, workloads

    # a run stopped by SIGTERM still stops Ray and the server (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = os.path.join(ROOT, ".bench_work", f"r{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = workloads.Run(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                        t_start=T_START)
    if args.trace:
        run.trace_dir = os.path.join(work, "trace")
        os.makedirs(run.trace_dir)
        os.environ[trace.TRACE_DIR_ENV] = run.trace_dir
        per_span_s = trace.per_span_cost()
        trace.install()
    ray_started = False
    try:
        if args.workload == "serve_ner":
            res = workloads.serve_ner(run)
        else:
            ray_started = True
            setup_s = workloads.start_ray(run)
            res = getattr(workloads, args.workload)(run, setup_s)
        if args.trace:
            metrics, detail = trace.summarize(run.trace_dir)
            metrics["trace.overhead_est_pct"] = (
                100.0 * metrics["trace.spans"] * per_span_s / max(res.busy_s, 1e-9))
            _save_trace(run, args, res, metrics, detail)
        else:
            metrics = res.metrics
            _save_untraced(args, metrics)
    except Exception as exc:  # noqa: BLE001  the run's boundary: report and fail
        traceback.print_exc()
        _fail(f"{args.workload} failed: {type(exc).__name__}: {exc}", 1)
    finally:
        for proc in run.procs:
            workloads.stop_server(proc)
        if ray_started:
            import ray

            ray.shutdown()
        _stop_descendants()
        shutil.rmtree(work, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        _fail(f"metrics not measured: {sorted(missing)}", 1)
    out = {
        "correct": True,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    result_out.write(json.dumps(out) + "\n")
    result_out.flush()


def _untraced_path(workload: str) -> str:
    return os.path.join(ROOT, ".bench_work", "untraced", f"{workload}.json")


def _save_untraced(args, metrics) -> None:
    """Keep the last untraced run's figures, which the traced run compares
    itself with."""
    path = _untraced_path(args.workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fp:
        json.dump({"seed": args.seed, "seconds": args.seconds, "end_to_end": metrics}, fp)


def _save_trace(run, args, res, metrics, detail) -> None:
    """Keep the last traced run of each workload: its spans, the per-layer
    metrics, the traced run's own end-to-end figures and, when an untraced
    run of the workload was made in this checkout, the tracing overhead as
    the percent change from its figures."""
    dest = os.path.join(ROOT, ".bench_work", "traces", args.workload)
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(run.trace_dir, dest)
    report = {"seed": args.seed, "seconds": args.seconds,
              "traced_end_to_end": res.metrics, "per_layer": metrics, **detail}
    try:
        with open(_untraced_path(args.workload)) as fp:
            base = json.load(fp)
        report["untraced_end_to_end"] = base
        report["overhead_pct"] = {k: 100.0 * (res.metrics[k] - v) / v
                                  for k, v in base["end_to_end"].items() if v}
    except (OSError, ValueError):
        pass
    with open(os.path.join(dest, "report.json"), "w") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)
    print(f"trace: {len(os.listdir(run.trace_dir))} span files and report.json in {dest}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
