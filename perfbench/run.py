"""nuggetnet benchmark: one command for every workload, its metrics and its correctness gate.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes (see worker.py): one prepares the
seed's fixtures, one runs the workload between two that time a fixed
reference kernel, and four more repeat only its set-up so that ``setup_s``
is a median of five.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object; the exit
code is nonzero when any correctness check failed or a process did not
finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-default", "decode-long", "fit-small")
SETUP_PROBES = 4
TIMEOUT_S = {"prepare": 600, "run": 900, "probe": 120, "kernel": 120}


class BenchError(Exception):
    pass


def worker(mode: str, args, workload: str, *extra: str) -> dict | None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, "--seed", str(args.seed),
           "--size", args.size, *extra]
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S[mode])
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker {mode} did not finish in {exc.timeout} s") from exc
    lines = out.stdout.strip().splitlines()
    if mode == "run" and lines:
        # a failed correctness check still reports its result, with a nonzero exit code
        return json.loads(lines[-1])
    if out.returncode != 0:
        raise BenchError(f"{workload}: worker {mode} exited with code {out.returncode}")
    return json.loads(lines[-1]) if lines else None


def run_workload(args, workload: str) -> dict:
    worker("prepare", args, workload)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.perturb:
        extra += ["--perturb", args.perturb]
    ref_start = worker("kernel", args, workload)["ref_ms"]
    result = worker("run", args, workload, *extra)
    result["details"]["machine.ref_ms"] = [ref_start, worker("kernel", args, workload)["ref_ms"]]
    if args.trace == 0:
        samples = [result["metrics"]["setup_s"]["value"]]
        samples += [worker("probe", args, workload)["setup_s"] for _ in range(SETUP_PROBES)]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        result["details"]["setup_samples_s"] = samples
    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-{args.size}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(workload: str, result: dict) -> None:
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"{workload}: {status}, {result['failed']} of {result['attempted']} operations and checks failed")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    for name, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>14s} {m['unit']}")
    details = result["details"]
    for key in ("n_ops", "op_ms_p50", "chars_per_sentence", "reps", "time_to_f1_s", "protocol_s", "epochs_to_f1",
                "largest_layer", "overhead_frac", "machine.ref_ms"):
        if key in details:
            print(f"  ({key}: {details[key]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: toy model and corpora, for the benchmark's own tests")
    parser.add_argument("--perturb", metavar="TENSOR",
                        help="nudge TENSOR of the loaded model by 1e-6 to show that the gate fires")
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "nuggetnet").is_dir():
        print(f"perfbench: no nuggetnet sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
            report(name, results[name])
    except (BenchError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(results) == 1:
        summary["metrics"] = next(iter(results.values()))["metrics"]
    else:
        summary["workloads"] = {name: r["metrics"] for name, r in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
