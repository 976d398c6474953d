"""The benchmark's outputs, pinned byte for byte.

``perfbench/workloads.py`` defines the chain, decide and powers workloads and
a digest of what each one printed: the chain members, the verdicts, the
densities and the JSON of a power.  This test runs each workload in-process
at the seeds in ``bench_digests.json``, requires its checks to pass, and
compares the SHA-256 of ``json.dumps(digest, sort_keys=True)`` with the
golden value.  A change that means to alter an output regenerates the file
and says so in CHANGES.md; any other change must leave every digest as it is.
"""

import hashlib
import importlib.util
import json
import os

import pytest

import diffalg

HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "workloads", os.path.join(os.path.dirname(HERE), "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

with open(os.path.join(HERE, "bench_digests.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("workload, seed", [(w, int(s)) for w in GOLDEN for s in GOLDEN[w]])
def test_digest_matches_the_golden_file(workload, seed):
    spec = workloads.inputs(workload, seed)
    ops = workloads.RUN[workload](diffalg, workloads.build(diffalg, spec))
    failures, digest, _ = workloads.check(diffalg, spec, ops, False)
    assert failures == []
    text = json.dumps(digest, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[workload][str(seed)]
