"""Shared fixtures: the worked 4x7 example used throughout the test suite.

The fixture instance is the one whose feasible set has exactly 7 members
(the zero vector, three planted rows and their negations) and whose solve
must return the planted matrix exactly.
"""

import pathlib
import sys

import hypothesis
import numpy as np
import pytest

from cils import Alphabet, IntMatrix, ProblemInstance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines even when stdout capture is on."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=50, print_blob=True
)
hypothesis.settings.register_profile("fast", deadline=None, max_examples=10)
hypothesis.settings.load_profile("suite")

DATA_DIR = pathlib.Path(__file__).parent / "data"

A_ROWS = (
    (8, 2, 10, 0, 12, 2, 0),
    (4, 6, 9, 1, 14, 5, 2),
    (2, 0, 1, 1, 0, 1, 0),
    (2, 1, 3, 0, 4, 0, 1),
)
Y_ROWS = (
    (0.5, 3.7, -0.8, 3.3, 0.3, -3.5, -3.5),
    (1.8, 5.8, -0.5, -0.4, -1.3, -2.7, -2.7),
    (-2.2, -3.1, 2.6, 0.5, -0.4, 1.3, 1.3),
    (0.8, 3.5, -1.1, 2.5, 0.3, -3.0, -3.0),
)
G_ROWS = (
    (0.5, 0.3, 3.5),
    (1.8, -1.3, 2.7),
    (-2.2, -0.4, -1.3),
    (0.8, 0.3, 3.0),
)
X_A_ROWS = (
    (1, 1, -1, -1, 0, 0, 0),
    (0, -1, -1, 1, 1, 0, 0),
    (0, 1, 0, 1, 0, -1, -1),
)
# hand-checked reference Hermite pair for A_ROWS; a valid decomposition but
# not canonical (its last pivot is negative)
H_REF_ROWS = (
    (2, 0, 0, 2, -2, -8, 10),
    (0, 1, 0, 1, 0, -19, 21),
    (0, 0, 1, -1, 2, 9, -10),
    (0, 0, 0, 0, 0, -18, 18),
)
U_REF_ROWS = (
    (-3, -1, 3, 12),
    (-6, -2, 3, 25),
    (3, 1, -2, -12),
    (-5, -2, 2, 22),
)

FEASIBLE_7 = sorted(
    [(0,) * 7]
    + list(X_A_ROWS)
    + [tuple(-v for v in row) for row in X_A_ROWS]
)


@pytest.fixture(scope="session")
def ex_A() -> IntMatrix:
    return IntMatrix(A_ROWS)


@pytest.fixture(scope="session")
def ex_Y() -> np.ndarray:
    return np.array(Y_ROWS)


@pytest.fixture(scope="session")
def ex_G() -> np.ndarray:
    return np.array(G_ROWS)


@pytest.fixture(scope="session")
def ex_X() -> IntMatrix:
    return IntMatrix(X_A_ROWS)


@pytest.fixture(scope="session")
def s3() -> Alphabet:
    return Alphabet((-1, 0, 1))


@pytest.fixture(scope="session")
def ex_instance(ex_Y, ex_G, ex_A, s3) -> ProblemInstance:
    return ProblemInstance(
        Y=ex_Y, G=ex_G, A=ex_A, alphabet=s3, sparsity=4, target_rank=3
    )


@pytest.fixture(scope="session")
def ex_file() -> pathlib.Path:
    return DATA_DIR / "example1.json"
