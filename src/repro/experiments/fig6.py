"""Figure 6 — minimum fast memory size vs problem size n (log y-axis).

Four panels:

* (a)/(b) ``DWT(n, d*)`` for even n in [2, 256] with ``d*`` the maximum
  level (the 2-adic valuation of n), Equal / Double Accumulator:
  layer-by-layer vs our optimum.
* (c)/(d) ``MVM(96, n)`` for n in [1, 120], Equal / DA: IOOpt UB vs our
  tiling.

Also computes the paper's Sec. 5.3 average reductions over these sweeps
(paper: 47.3% / 46.8% for DWT, 18.6% / 36.2% for MVM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.engine import SweepEngine, get_default_engine
from ..analysis.report import format_table, percent_reduction
from ..baselines import IOOptModel
from ..core import double_accumulator, equal
from ..graphs import dwt_graph, max_level
from ..schedulers import (LayerByLayerScheduler, OptimalDWTScheduler,
                          TilingMVMScheduler)
from .common import MVM_M, WORD_BITS


@dataclass(frozen=True)
class MinMemorySeries:
    """One curve of Fig. 6: problem size vs minimum memory (bits)."""

    label: str
    sizes: Tuple[int, ...]
    min_memory_bits: Tuple[int, ...]

    def points(self) -> List[Tuple[int, int]]:
        return list(zip(self.sizes, self.min_memory_bits))


def _dwt_sizes(n_max: int, stride: int) -> List[int]:
    grid = [n for n in range(2, n_max + 1, stride) if n % 2 == 0]
    if n_max % 2 == 0 and n_max not in grid:
        grid.append(n_max)  # always include the Table 1 endpoint
    return grid


def _dwt_min_memory_curves(da: bool, sizes: Sequence[int],
                           kinds: Sequence[str],
                           engine: Optional[SweepEngine] = None
                           ) -> List[List[int]]:
    """All requested DWT curves over one chunk of sizes, sharing each
    size's graph between the schedulers.

    Earlier sizes warm-start later searches.  Both curves are linear in
    ``n`` *within a fixed depth* ``d* = max_level(n)`` — and ``d*`` is the
    2-adic valuation of ``n``, so neighbouring sizes hop between lines.
    Extrapolating within the depth class therefore makes the warm-start
    hint near-exact (~2 probes per search); a new class ``d`` first tries
    the self-similarity hint ``2 * value(n/2, d-1)`` (a full-depth DWT is
    two half-size ones plus a root layer), then the most recent result.
    Results are hint-independent either way — see
    :func:`minimum_fast_memory`."""
    eng = engine if engine is not None else get_default_engine()
    cfg = double_accumulator(WORD_BITS) if da else equal(WORD_BITS)
    scheds = {k: (OptimalDWTScheduler() if k == "optimum"
                  else LayerByLayerScheduler(retention="deferred"))
              for k in kinds}
    out: Dict[str, List[int]] = {k: [] for k in kinds}
    history: Dict[str, Dict[int, List[Tuple[int, int]]]] = \
        {k: {} for k in kinds}
    last: Dict[str, Optional[int]] = {k: None for k in kinds}
    for n in sizes:
        d = max_level(n)
        g = dwt_graph(n, d, weights=cfg)
        for k in kinds:
            past = history[k].setdefault(d, [])
            if len(past) >= 2:
                (n1, b1), (n2, b2) = past[-2], past[-1]
                hint = int(round(b2 + (b2 - b1) * (n - n2) / (n2 - n1)))
            elif past:
                hint = past[-1][1]
            else:
                half = next((b for m, b in history[k].get(d - 1, ())
                             if 2 * m == n), None)
                hint = 2 * half if half is not None else last[k]
            bits = eng.min_memory(scheds[k], g, hint=hint)
            out[k].append(bits)
            if bits is not None:
                past.append((n, bits))
                last[k] = bits
    return [out[k] for k in kinds]


def _mvm_min_memory_curves(da: bool, sizes: Sequence[int],
                           kinds: Sequence[str],
                           engine: Optional[SweepEngine] = None
                           ) -> List[List[int]]:
    """The Fig. 6 MVM curves over one chunk.  Both minimums are closed
    forms in the configuration's class weights, so no graph is built."""
    cfg = double_accumulator(WORD_BITS) if da else equal(WORD_BITS)
    out: Dict[str, List[int]] = {k: [] for k in kinds}
    for n in sizes:
        for k in kinds:
            if k == "tiling":
                out[k].append(TilingMVMScheduler(MVM_M, n)
                              .min_memory_for_weights(cfg.input_bits,
                                                      cfg.compute_bits))
            else:
                out[k].append(IOOptModel.for_config(MVM_M, n,
                                                    cfg).min_memory())
    return [out[k] for k in kinds]


def _fan_out_curves(eng: SweepEngine, curves_fn, da: bool,
                    sizes: Sequence[int], kinds: Sequence[str]
                    ) -> List[List[int]]:
    """Evaluate every kind's curve over ``sizes``, chunked across the
    engine's workers with deterministic reassembly.  One task per chunk
    computes all kinds, so the per-size graphs (and the engine's cached
    bounds on them) are shared between the schedulers."""
    chunks = eng.chunks(sizes)
    with eng.probe_context("fig6"):  # label failure records / profiles
        results = eng.map([(curves_fn, (da, chunk, tuple(kinds)))
                           for chunk in chunks])
    return [[bits for part in results for bits in part[j]]
            for j in range(len(kinds))]


def dwt_panel(da: bool, n_max: int = 256, stride: int = 2,
              engine: Optional[SweepEngine] = None) -> List[MinMemorySeries]:
    """Minimum memory of optimum vs layer-by-layer over DWT(n, d*)."""
    eng = engine if engine is not None else get_default_engine()
    sizes = _dwt_sizes(n_max, stride)
    lbl_mem, opt_mem = _fan_out_curves(eng, _dwt_min_memory_curves, da, sizes,
                                       ("baseline", "optimum"))
    return [
        MinMemorySeries("Layer-by-Layer", tuple(sizes), tuple(lbl_mem)),
        MinMemorySeries("Optimum (Ours)", tuple(sizes), tuple(opt_mem)),
    ]


def mvm_panel(da: bool, n_max: int = 120, stride: int = 1,
              engine: Optional[SweepEngine] = None) -> List[MinMemorySeries]:
    """Minimum memory of tiling vs IOOpt UB over MVM(96, n)."""
    eng = engine if engine is not None else get_default_engine()
    sizes = list(range(1, n_max + 1, stride))
    if n_max not in sizes:
        sizes.append(n_max)  # always include the Table 1 endpoint
    ioopt_mem, tile_mem = _fan_out_curves(eng, _mvm_min_memory_curves, da,
                                          sizes, ("ioopt", "tiling"))
    return [
        MinMemorySeries("IOOpt Upper Bound", tuple(sizes), tuple(ioopt_mem)),
        MinMemorySeries("Tiling (Ours)", tuple(sizes), tuple(tile_mem)),
    ]


def average_reduction(panel: List[MinMemorySeries]) -> float:
    """Mean per-size reduction of ours vs the baseline, in percent
    (how Sec. 5.3 quotes the Fig. 6 sweeps)."""
    baseline, ours = panel[0], panel[1]
    reductions = [percent_reduction(o, b) for o, b
                  in zip(ours.min_memory_bits, baseline.min_memory_bits)]
    return sum(reductions) / len(reductions)


def run_fig6(dwt_stride: int = 2, mvm_stride: int = 1,
             engine: Optional[SweepEngine] = None
             ) -> Dict[str, List[MinMemorySeries]]:
    eng = engine if engine is not None else get_default_engine()
    return {
        "a": dwt_panel(False, stride=dwt_stride, engine=eng),
        "b": dwt_panel(True, stride=dwt_stride, engine=eng),
        "c": mvm_panel(False, stride=mvm_stride, engine=eng),
        "d": mvm_panel(True, stride=mvm_stride, engine=eng),
    }


def render_fig6(panels: Dict[str, List[MinMemorySeries]]) -> str:
    titles = {
        "a": "Fig. 6a — Equal DWT(n,d*): min fast memory (bits) vs n",
        "b": "Fig. 6b — DA DWT(n,d*)",
        "c": "Fig. 6c — Equal MVM(96,n): min fast memory (bits) vs n",
        "d": "Fig. 6d — DA MVM(96,n)",
    }
    blocks = []
    for key, panel in sorted(panels.items()):
        headers = ["n"] + [s.label for s in panel]
        rows = [[n] + [s.min_memory_bits[i] for s in panel]
                for i, n in enumerate(panel[0].sizes)]
        table = format_table(headers, rows, title=titles[key])
        avg = average_reduction(panel)
        blocks.append(f"{table}\naverage reduction (ours vs baseline): "
                      f"{avg:.1f}%")
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI entry
    print(render_fig6(run_fig6()))


if __name__ == "__main__":  # pragma: no cover
    main()
