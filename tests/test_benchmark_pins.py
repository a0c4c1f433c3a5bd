"""The benchmark numbers that a bit-for-bit change must keep, pinned.

Each benchmark workload of ``perfbench/workloads.py`` (imported by path,
as ``perfbench/run.py`` builds it) is set up and iterated once at seed 4.
Its per-epoch loss digest and its iteration's result fingerprint must read
the values below: a training iteration's fingerprint is its loss digest,
and ``audit-m4``'s hashes the audit pass's counts, violations, ECE and
dropout table; ``audit-m4``'s is pinned at seeds 5 and 6 too. A change
that moves one on purpose updates its pin and names it in CHANGES.md.

The digests read the same at 1 and 2 BLAS threads on a 2-core x86 host
(OpenBLAS 0.3.31). Should they ever differ by thread count, this test
belongs in a child process with one BLAS thread, as the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

# workload -> (loss digest, result fingerprint)
PINS = {
    "train-acm-m2": ("93430ea365007690", "93430ea365007690"),
    "train-instance-m2": ("995c864dc4af78d2", "995c864dc4af78d2"),
    "audit-m4": ("31927d4d45f2737e", "b04851535718820b"),
}
# audit-m4 result fingerprints at two more seeds, whose checkpoints train
# on other data, so a read-path change meets other logits and gate weights
AUDIT_PINS = {5: "623c9b476121d27e", 6: "fb1ad75828ea9e96"}


@pytest.fixture(scope="module")
def workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_pins_cover_every_workload(workloads):
    assert tuple(PINS) == workloads.NAMES


@pytest.mark.parametrize("name", list(PINS))
def test_seed_four_digest_and_fingerprint(workloads, name, tmp_path):
    workload = workloads.Workload(name, 4, str(tmp_path))
    workload.setup()
    outcome = workload.iterate()
    assert outcome.problems == []
    got = (workloads.loss_digest(workload.history), outcome.fingerprint)
    assert got == PINS[name]


@pytest.mark.parametrize("seed", list(AUDIT_PINS))
def test_audit_fingerprint_at_more_seeds(workloads, seed, tmp_path):
    workload = workloads.Workload("audit-m4", seed, str(tmp_path))
    workload.setup()
    outcome = workload.iterate()
    assert outcome.problems == []
    assert outcome.fingerprint == AUDIT_PINS[seed]
