"""The C kernel against the pure kernel at the edges of int64.

The C kernel may refuse a matrix, by raising OverflowError, when an entry, a
product or a difference would leave [-(2^63 - 1), 2^63 - 1], when an entry is
not an int, or when the matrix is ragged.  Otherwise it must return exactly
what zappatic._bareiss returns.  Through zappatic.linalg, which retries a
refused call on the pure kernel, the answers always agree.
"""

import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic import _bareiss, linalg

INT64_MIN = -(2**63)
EDGES = (
    0, 1, -1, 2**31, -(2**31), 2**62, -(2**62), 2**62 - 1, -(2**62 - 1),
    2**63 - 1, -(2**63 - 1), INT64_MIN,
)
entries = st.one_of(st.sampled_from(EDGES), st.integers(-3, 3))


@st.composite
def matrices(draw):
    """Up to 5 x 4 matrices; about one in five has one row a column short or long."""
    ncols = draw(st.integers(0, 4))
    lengths = draw(st.lists(st.just(ncols), max_size=5))
    if lengths and draw(st.integers(0, 4)) == 0:
        lengths[draw(st.integers(0, len(lengths) - 1))] += draw(st.sampled_from((-1, 1)))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for n in lengths if n >= 0]


def outcome(fn, m):
    """fn(m), or the type of the error it raised."""
    try:
        return fn(m)
    except (OverflowError, ValueError) as e:
        return type(e)


def through_linalg(kernel, op, m):
    """linalg's op on m with the given kernel selected; the backend is restored.

    The compiled_linalg fixture does the same per test; hypothesis needs it
    per example, since it reruns the test body without rerunning fixtures.
    """
    saved_c, saved = linalg._c, linalg.backend_name()
    linalg._c = kernel
    try:
        linalg.set_backend("compiled")
        return outcome(getattr(linalg, op), m)
    finally:
        linalg._c = saved_c
        linalg.set_backend(saved)


def test_int64_min_rank(compiled_linalg):
    assert linalg.rank([[INT64_MIN, 0], [1, 2]]) == 2


def test_entries_it_cannot_hold_are_refused(bareiss_c):
    for m in ([[2**63, 1]], [[-(2**64)]], [[Fraction(1, 2), 1]], [[1.0]], [[1, 2], [3]]):
        for op in ("rank", "rref"):
            assert outcome(getattr(bareiss_c, op), m) is OverflowError, (op, m)


def test_rows_that_are_not_lists_are_left_to_the_pure_kernel(compiled_linalg):
    # the kernel refuses an iterator without consuming it
    assert linalg.rank(iter([[1, 2], [2, 4]])) == 1
    assert linalg.rref([iter([2, 4])]) == ((1, 2),)


def test_int64_min_rref_in_a_subprocess(bareiss_c, cli_env):
    # a trap in the kernel kills only the subprocess
    script = (
        "import importlib.util, sys\n"
        "from zappatic import linalg\n"
        "spec = importlib.util.spec_from_file_location('zappatic._bareiss_c', sys.argv[1])\n"
        "linalg._c = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(linalg._c)\n"
        "linalg.set_backend('compiled')\n"
        "print(linalg.rref([[-2**63, 1]]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, bareiss_c.__file__],
        capture_output=True, text=True, env=cli_env,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == str(_bareiss.rref([[INT64_MIN, 1]]))


@settings(max_examples=400)
@given(matrices())
def test_kernel_refuses_or_matches_pure(bareiss_c, m):
    for op in ("rank", "rref"):
        got = outcome(getattr(bareiss_c, op), m)
        assert got is OverflowError or got == outcome(getattr(_bareiss, op), m), op


@settings(max_examples=400)
@given(matrices())
def test_linalg_on_the_kernel_matches_pure(bareiss_c, m):
    for op in ("rank", "rref"):
        assert through_linalg(bareiss_c, op, m) == outcome(getattr(_bareiss, op), m), op
