"""Smoke test of the perf observatory (collected by the tier-1 suite).

Every workload runs untraced and traced at a tiny ``--scale``: the numbers
mean nothing at that size, but every name in ``BENCHMARK.json`` must be
emitted, every correctness check must hold, and the class-level wrappers of
the traced run must be gone afterwards.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run as observatory  # noqa: E402  (puts src/ on sys.path)
from observatory.catalog import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    benchmark_manifest,
    workload_names,
)
from repro.net import codec  # noqa: E402
from repro.serve.batcher import AdaptiveBatcher  # noqa: E402
from repro.serve.queue import RequestQueue  # noqa: E402
from repro.tfhe.batch import kernels  # noqa: E402
from repro.tfhe.polynomial import get_transform  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Layers that must report work in a workload's traced run; every other
#: layer's busy times and counts must read exactly 0 there.
BUSY_LAYERS = {
    "pbs-set-I-batch64": ("tfhe.", "fft.", "runtime."),
    "pbs-small-single": ("tfhe.", "fft.", "runtime."),
    "serve-sim-analytical": ("serve.", "sched.", "arch.", "obs."),
    "serve-sim-event": ("serve.", "sched.", "sim.", "arch."),
    "wire-open-loop": ("net.",),
}

ORIGINALS = {
    (RequestQueue, "push"): RequestQueue.push,
    (RequestQueue, "oldest"): RequestQueue.oldest,
    (AdaptiveBatcher, "poll"): AdaptiveBatcher.poll,
    (kernels, "batch_modulus_switch"): kernels.batch_modulus_switch,
    (codec, "decode_submit"): codec.decode_submit,
}


def test_manifest_matches_the_catalogue():
    manifest = json.loads((observatory.REPO_ROOT / "BENCHMARK.json").read_text())
    assert manifest == benchmark_manifest()
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = [m.name for m in END_TO_END + PER_LAYER] + workload_names()
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in END_TO_END)
    assert all(0 <= m.bound <= 0.25 for m in END_TO_END)


@pytest.mark.parametrize("name", workload_names())
def test_workload_emits_every_metric_and_checks_hold(name):
    untraced = observatory.run_workload(name, seed=5, seconds=0.0, traced=False, scale=SCALE)
    assert untraced.correct, untraced.problems
    assert untraced.attempted >= 1 and untraced.failed == 0
    end_to_end = observatory.reported(untraced, traced=False)
    assert list(end_to_end) == [m.name for m in END_TO_END]
    assert all(entry["value"] > 0 for entry in end_to_end.values()), end_to_end

    traced = observatory.run_workload(name, seed=5, seconds=0.0, traced=True, scale=SCALE)
    assert traced.correct, traced.problems
    per_layer = observatory.reported(traced, traced=True)
    assert list(per_layer) == [m.name for m in PER_LAYER]
    busy = BUSY_LAYERS[name]
    for metric, entry in per_layer.items():
        if metric.startswith("harness.") or metric.startswith("arch.model_pbs_per_s_"):
            continue
        if not metric.startswith(busy):
            assert entry["value"] == 0, f"{metric} reports work on {name}"
    for layer in busy:
        assert any(
            entry["value"] > 0 for metric, entry in per_layer.items() if metric.startswith(layer)
        ), f"layer {layer} reports no work on {name}"
    assert per_layer["harness.attributed_share"]["value"] > 0
    if name.startswith("pbs-"):
        assert per_layer["tfhe.batch.bit_exact_share"]["value"] == 1.0

    for (owner, attr), original in ORIGINALS.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} is still wrapped"
    for degree in (256, 1024):
        assert "forward" not in vars(get_transform(degree))


def test_seed_changes_the_inputs_not_the_shape():
    first = observatory.run_workload("serve-sim-analytical", 1, 0.0, traced=False, scale=SCALE)
    second = observatory.run_workload("serve-sim-analytical", 2, 0.0, traced=False, scale=SCALE)
    again = observatory.run_workload("serve-sim-analytical", 1, 0.0, traced=False, scale=SCALE)
    assert first.notes["serve.requests_per_pass"] != second.notes["serve.requests_per_pass"]
    assert first.metrics.keys() == second.metrics.keys()
    for deterministic in ("modeled_pbs_per_device_s", "serve.modeled_p99_latency_s"):
        assert first.metrics[deterministic] == again.metrics[deterministic]
        assert first.metrics[deterministic] != second.metrics[deterministic]
