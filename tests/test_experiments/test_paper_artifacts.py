"""Golden test: the paper run reproduces the committed artifacts.

``python -m repro.experiments`` with its default arguments must write
``table1``, ``fig5``, ``fig6``, ``fig7`` and ``fig8`` byte-identical to
``paper_artifacts/``, so no change to a scheduler, the sweep engine or an
experiment module can move a published number unnoticed.  The run does
all of its solving on its own engine: the process-wide default engine,
which ``--store``, ``--audit`` and ``--jobs`` never reach, stays unused.
"""

import pathlib

from repro.analysis.engine import (SweepEngine, get_default_engine,
                                   set_default_engine)
from repro.experiments.__main__ import main

ARTIFACTS = pathlib.Path(__file__).resolve().parents[2] / "paper_artifacts"
NAMES = ("table1", "fig5", "fig6", "fig7", "fig8")


def test_paper_run_matches_committed_artifacts(tmp_path, capsys):
    previous = get_default_engine()
    default = SweepEngine()
    set_default_engine(default)
    try:
        main(str(tmp_path))
    finally:
        set_default_engine(previous)
    capsys.readouterr()  # the run prints every artifact; keep logs short
    differ = [name for name in NAMES
              if (tmp_path / f"{name}.txt").read_bytes()
              != (ARTIFACTS / f"{name}.txt").read_bytes()]
    assert not differ, f"artifacts differ from paper_artifacts/: {differ}"
    assert default.stats.probes == 0, (
        "the paper run solved on the process-wide default engine")
