"""Shared helpers: small meshes and the acceptance summary hook."""

import tracemalloc

import numpy as np
import pytest

from boxdfm.generators import crossed_square_mesh

# one line per acceptance criterion, echoed after the test run so the
# verdicts are visible in plain `pytest -v` output
ACCEPTANCE_LINES = []


def record_criterion(number: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes of the allocations it traced."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def array_bytes(*values) -> int:
    """Bytes of the numpy arrays among values and their dataclass fields."""
    total = 0
    for v in values:
        fields = vars(v).values() if hasattr(v, "__dataclass_fields__") else [v]
        total += sum(a.nbytes for a in fields if isinstance(a, np.ndarray))
    return total


TAGS_BARRIER = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann",
                10: "barrier"}


def barrier_square(n=4, jitter=0.0, seed=0, tag_map=None):
    """Crossed n x n square with a full-height barrier at x = 0.5."""
    def region(c):
        return np.where(c[:, 0] < 0.5, 1, 2)

    return crossed_square_mesh(
        n, jitter=jitter, seed=seed, keep_x=(0.5,),
        segments=[((0.5, 0.0), (0.5, 1.0), 10)],
        region_fn=region,
        tag_map=TAGS_BARRIER if tag_map is None else tag_map,
    )


@pytest.fixture
def barrier_square_mesh():
    return barrier_square()
