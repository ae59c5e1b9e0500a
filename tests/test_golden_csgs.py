"""Golden-output regression: every backend × kernel arm must
reproduce the serialized C-SGS runs byte-for-byte (the Pattern Base's
R-tree, through the test-side ``RTreePointIndex``, too).

Each fixture under ``tests/golden/`` holds the complete window-by-window
output — cluster memberships and SGS summaries — of a seeded
Figure-7-style workload: ``csgs_stt_small.json`` (θr=0.1, θc=8,
canonical on the grid backend) and ``csgs_stt_auto.json`` (θr=0.2,
θc=5, canonical on the k-d tree backend). A
mismatch means the refinement kernels, the provider seam, candidate
gathering, or the C-SGS pipeline changed observable output; regenerate
only for intentional changes (see ``tests/golden/regen_golden.py``).
"""

import json

import pytest

from repro.index import available_backends
from tests.golden import workload
from tests.helpers import KERNEL_ARMS, RTREE

CASE_NAMES = tuple(workload.CASES)


@pytest.fixture(scope="module")
def golden_texts():
    texts = {}
    for name, case in workload.CASES.items():
        assert case.path.exists(), (
            f"golden fixture {case.filename} missing; run "
            "`PYTHONPATH=src python tests/golden/regen_golden.py`"
        )
        texts[name] = case.path.read_text()
    return texts


@pytest.mark.parametrize("arm", KERNEL_ARMS)
@pytest.mark.parametrize("backend", available_backends() + (RTREE,))
@pytest.mark.parametrize("case_name", CASE_NAMES)
def test_csgs_reproduces_golden_output(
    case_name, backend, arm, golden_texts, kernel_arm
):
    case = workload.CASES[case_name]
    with kernel_arm(arm):
        got = workload.render(workload.run_trace(backend, case=case))
    assert got == golden_texts[case_name], (
        f"{backend}/{arm} diverged from the golden C-SGS output "
        f"of {case_name}"
    )


@pytest.mark.parametrize("case_name", CASE_NAMES)
def test_golden_fixture_is_nontrivial(case_name, golden_texts):
    """Guard against silently regenerating an empty/degenerate fixture."""
    case = workload.CASES[case_name]
    trace = json.loads(golden_texts[case_name])
    # The windower emits one extra window for a final partial slide.
    assert len(trace) >= case.windows
    total_clusters = sum(len(entry["clusters"]) for entry in trace)
    assert total_clusters >= 10
    assert any(
        cluster["edge"] for entry in trace for cluster in entry["clusters"]
    )
    assert any(
        cell[1] == "EDGE"
        for entry in trace
        for summary in entry["summaries"]
        for cell in summary["cells"]
    )

