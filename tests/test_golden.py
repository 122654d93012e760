"""Byte-level output checks against the digests pinned in ``golden.json``.

The pinned digests are compared only on the numpy/scipy/machine they were
recorded on (see ``golden.py``).  Reruns and thread counts must agree
everywhere.
"""

import pytest

from golden import (
    THREADS, analysis_digests, load_golden, platform_key, run_digests, trace_digests,
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Digests and output directory per run: each thread count, and a rerun at 1."""
    out = {}
    for name, threads in [("1", 1), ("2", 2), ("1-rerun", 1)]:
        workdir = tmp_path_factory.mktemp(f"golden-{name}")
        out[name] = (run_digests(workdir, threads), workdir / "out")
    return out


def test_rerun_is_byte_identical(runs):
    assert runs["1"][0] == runs["1-rerun"][0]


def test_thread_counts_agree(runs):
    (one, dir_one), (two, dir_two) = runs["1"], runs["2"]
    assert sorted(one) == sorted(two)
    for name in one:
        assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes(), name


def _pinned() -> dict:
    golden = load_golden()
    if golden["key"] != platform_key():
        pytest.skip(
            f"pinned digests were not compared: they were recorded on "
            f"{golden['key']}, this is {platform_key()}"
        )
    return golden


def test_digests_match_pinned(runs):
    golden = _pinned()
    for threads in THREADS:
        assert runs[str(threads)][0] == golden["digests"][str(threads)], f"threads={threads}"


def test_default_trace_digests_match_pinned():
    assert trace_digests() == _pinned()["traces"]


def test_default_analysis_digests_match_pinned():
    assert analysis_digests() == _pinned()["analysis"]
