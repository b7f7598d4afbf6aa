"""One workload in a fresh process; ``run.py`` starts it, never a user.

    worker.py prepare --workload W --seed N [--size tiny]
    worker.py run     --workload W --seed N --seconds S --trace 0|1 [--size tiny] [--perturb TENSOR]
    worker.py probe   --workload W --seed N [--size tiny]
    worker.py kernel  --workload W --seed N

``prepare`` writes the workload's fixtures for the seed unless they are
cached.  ``run`` prints its result as JSON on the last line of standard
output.  ``probe`` repeats only the timed set-up and prints ``{"setup_s": ...}``.
``kernel`` times the fixed reference kernel and prints ``{"ref_ms": ...}``.
The BLAS thread count is pinned before numpy is first imported.
"""

import os
import sys
import time

T0 = time.perf_counter()  # set-up time counts from here, imports included
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
FIXTURE_FORMAT = 1  # bump when the fixture files change meaning


def import_program():
    """The workloads module, with nuggetnet imported from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import nuggetnet
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nuggetnet from {ROOT / 'src'}: {exc}")
    if Path(nuggetnet.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"perfbench: nuggetnet resolved to {nuggetnet.__file__}, not {ROOT / 'src'}")
    import workloads

    return workloads


def fixture_dir(workload: str, size: str, seed: int, spec: dict) -> Path:
    digest = hashlib.sha1(json.dumps([FIXTURE_FORMAT, workload, spec], sort_keys=True).encode()).hexdigest()
    return WORK / "fixtures" / f"{workload}-{size}-s{seed}-{digest[:10]}"


def prepare(wl, args) -> None:
    spec = wl.SPECS[args.size][args.workload]
    final = fixture_dir(args.workload, args.size, args.seed, spec)
    if not final.exists():
        # written aside and renamed into place, so an interrupted prepare leaves no half set
        tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
        tmp.mkdir(parents=True)
        wl.write_fixtures(args.workload, spec, args.seed, tmp)
        tmp.rename(final)


def reference_kernel_ms() -> float:
    """A fixed 300x300 matmul loop; drift between the readings before and after a run is host contention.

    It runs in a process of its own, so that its arrays never count in a run's peak RSS.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((300, 300)), rng.standard_normal((300, 300))
    t0 = time.perf_counter()
    for _ in range(20):
        a @ b
    return (time.perf_counter() - t0) * 1e3


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # never look above the checkout
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np

    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    dirty = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_revision": _git("rev-parse", "HEAD") if in_repo else "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
    }


def timed_setup(w, tracer=None):
    """(state, load seconds since process start, warm-up seconds); prepare() in between is untimed."""
    if tracer is None:
        state = w.load()
    else:
        with tracer.installed(), tracer.root("setup"):
            state = w.load()
    load_s = time.perf_counter() - T0
    w.prepare(state)
    t0 = time.perf_counter()
    w.warm_up(state)
    return state, load_s, time.perf_counter() - t0


def run(wl, args) -> dict:
    import spans

    spec = wl.SPECS[args.size][args.workload]
    fx = fixture_dir(args.workload, args.size, args.seed, spec)
    if not fx.is_dir():
        raise SystemExit(f"perfbench: fixtures {fx} are missing; run prepare first")
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = wl.WORKLOADS[args.workload](spec, fx, work, args.seed, args.perturb)
        tracer = spans.Tracer() if args.trace else None
        state, load_s, warm_s = timed_setup(w, tracer)
        details = {"load_s": load_s, "warm_up_s": warm_s}
        if tracer is None:
            timing = w.measure(state, args.seconds)
            metrics = {
                "setup_s": load_s + warm_s,
                "items_per_s": timing.pop("items_per_s"),
                "op_ms_p90": timing.pop("op_ms_p90"),
                # read before verify(), whose reference tensors are the benchmark's, not the program's
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": wl.E2E_UNITS[k]} for k, v in metrics.items()}
            details.update(timing)
        else:
            w.traced(state, args.seconds, tracer)
            metrics, acc = spans.per_layer_metrics(tracer, w.extras)
            details.update(trace_summary(acc, w.extras))
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-{args.size}-s{args.seed}.jsonl")
        w.verify(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": w.gate.failed == 0,
        "attempted": w.gate.attempted,
        "failed": w.gate.failed,
        "metrics": metrics,
        "failures": w.gate.failures,
        "details": details,
        "provenance": provenance(args.seed),
    }


def trace_summary(acc: dict, extras: dict) -> dict:
    layers = {k: v * 1e3 for k, v in sorted(acc["by_layer"].items(), key=lambda kv: -kv[1])}
    wall_ms, unattributed_ms = acc["wall_s"] * 1e3, acc["unattributed_s"] * 1e3
    return {
        "layer_self_ms": layers,
        "largest_layer": next(iter(layers), None),
        "traced_wall_ms": wall_ms,
        "unattributed_ms": unattributed_ms,
        # self times and unattributed time are computed independently; this should be ~0
        "accounting_gap_ms": sum(layers.values()) + unattributed_ms - wall_ms,
        "overhead_frac": extras.get("overhead_frac"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "run", "probe", "kernel"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="required by run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--perturb", default=None)
    args = parser.parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    if args.mode == "prepare":
        prepare(wl, args)
    elif args.mode == "kernel":
        print(json.dumps({"ref_ms": reference_kernel_ms()}))
    elif args.mode == "probe":
        spec = wl.SPECS[args.size][args.workload]
        fx = fixture_dir(args.workload, args.size, args.seed, spec)
        w = wl.WORKLOADS[args.workload](spec, fx, WORK, args.seed, None)
        _, load_s, warm_s = timed_setup(w)
        print(json.dumps({"setup_s": load_s + warm_s}))
    else:
        print(json.dumps(run(wl, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
