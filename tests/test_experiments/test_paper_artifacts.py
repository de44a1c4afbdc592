"""Golden test: the paper run reproduces the committed artifacts.

``python -m repro.experiments`` with its default arguments must write
``table1``, ``fig5``, ``fig6``, ``fig7`` and ``fig8`` byte-identical to
``paper_artifacts/``, so no change to a scheduler, the sweep engine or an
experiment module can move a published number unnoticed.  The run does
all of its solving on its own engine: the process-wide default engine,
which ``--store``, ``--audit`` and ``--jobs`` never reach, stays unused.

The run's ``--profile`` report is pinned too: the same answers from the
same work.  A change that means to move these counts updates the pin.
"""

import contextlib
import io
import pathlib
import re

import pytest

from repro.analysis.engine import (SweepEngine, get_default_engine,
                                   set_default_engine)
from repro.experiments.__main__ import main

ARTIFACTS = pathlib.Path(__file__).resolve().parents[2] / "paper_artifacts"
NAMES = ("table1", "fig5", "fig6", "fig7", "fig8")
#: The default run's engine counters: cost probes, cache hits,
#: evaluations and the peak cache + DP-memo size.
PROFILE = {"cost probes": 812, "cache hits": 183, "evaluations": 629,
           "peak memo size": 1105}


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    """One default ``main(out, profile=True)``: its output directory, its
    printed text and the probes it left on the default engine."""
    out = tmp_path_factory.mktemp("paper_artifacts")
    previous = get_default_engine()
    default = SweepEngine()
    set_default_engine(default)
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            main(str(out), profile=True)
    finally:
        set_default_engine(previous)
    return out, printed.getvalue(), default.stats.probes


def test_paper_run_matches_committed_artifacts(paper_run):
    out, _, default_probes = paper_run
    differ = [name for name in NAMES
              if (out / f"{name}.txt").read_bytes()
              != (ARTIFACTS / f"{name}.txt").read_bytes()]
    assert not differ, f"artifacts differ from paper_artifacts/: {differ}"
    assert default_probes == 0, (
        "the paper run solved on the process-wide default engine")


def test_paper_run_does_the_same_work(paper_run):
    _, printed, _ = paper_run
    report = printed[printed.index("sweep engine profile"):]
    read = {label: int(re.search(rf"^  {label} +(\d+)", report,
                                 re.MULTILINE).group(1))
            for label in PROFILE}
    assert read == PROFILE
