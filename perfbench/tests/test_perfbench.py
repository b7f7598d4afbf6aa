"""The benchmark's own tests: tiny-size smoke runs, the gate, and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402

WORKLOADS = ("train-default", "decode-long", "fit-small")
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, timeout=300):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)), m["name"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.05


@pytest.mark.parametrize(
    "workload, tensor",
    [("train-default", "fuse.type.gate_b"), ("decode-long", "char.conv_w"), ("fit-small", "word.pos_emb")],
)
def test_gate_fires_when_one_tensor_is_nudged_by_1e_6(workload, tensor):
    out = bench("--workload", workload, "--seed", "3", "--perturb", tensor)
    assert out.returncode == 1, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "decode-long", "--seed", "1", cwd=tmp_path, timeout=170)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


# A hand-built trace: two root operations, nested layer spans, and a gap.
#   op 0 [0, 10]: loss_and_grads [1, 9] holding extract [2, 4], scores [5, 6], extract [6.5, 7];
#                 adadelta [9.5, 9.75]
#   op 1 [11, 12]: fuse [11.25, 11.5]
HAND_SPANS = [
    ("bench.step", 0.0, 10.0, -1, 0),
    ("model.loss_and_grads", 1.0, 9.0, 0, 0),
    ("encoder.extract", 2.0, 4.0, 1, 0),
    ("heads.scores", 5.0, 6.0, 1, 0),
    ("encoder.extract", 6.5, 7.0, 1, 0),
    ("ndcore.adadelta", 9.5, 9.75, 0, 0),
    ("bench.step", 11.0, 12.0, -1, 1),
    ("encoder.fuse", 11.25, 11.5, 6, 1),
]


def test_self_time_and_unattributed_arithmetic():
    acc = spans.account(HAND_SPANS)
    by_name = acc["by_name"]
    assert by_name["model.loss_and_grads"]["self_s"] == pytest.approx(8.0 - 2.0 - 1.0 - 0.5)
    assert by_name["encoder.extract"]["self_s"] == pytest.approx(2.5)
    assert by_name["encoder.extract"]["calls"] == 2
    assert acc["by_layer"] == pytest.approx({"model": 4.5, "encoder": 2.75, "heads": 1.0, "ndcore": 0.25})
    assert acc["wall_s"] == pytest.approx(11.0)
    # time in no layer span: [0,1], [9,9.5], [9.75,10], [11,11.25], [11.5,12]
    assert acc["unattributed_s"] == pytest.approx(2.5)
    assert sum(acc["by_layer"].values()) + acc["unattributed_s"] == pytest.approx(acc["wall_s"])


def test_union_length_merges_overlaps_and_clips():
    assert spans._union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans._union_length([(0, 2), (1, 3)], lo=0.5, hi=2.5) == 2


def test_missing_call_site_is_unmeasured_and_install_restores():
    import nuggetnet.model as nmodel

    hooks = {
        "encoder.extract": (("nuggetnet.model.extract_branch",), None),
        "encoder.fuse": (("nuggetnet.model.no_such_function", "nuggetnet.no_such_module.fuse"), None),
    }
    tracer = spans.Tracer(hooks)
    assert tracer.unmeasured == {"encoder.fuse"}
    original = nmodel.extract_branch
    with tracer.installed():
        assert nmodel.extract_branch is not original
    assert nmodel.extract_branch is original
    metrics, _ = spans.per_layer_metrics(tracer, {})
    assert metrics["encoder.fuse.self_ms"] == {"value": None, "unit": "ms", "unmeasured": True}
    assert metrics["encoder.extract.calls"]["value"] == 0
