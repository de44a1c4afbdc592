"""Node-weight configurations (paper Sec. 5.1).

The paper evaluates two weightings, both with 16-bit memory words:

* **Equal** — every node weighs one word (the classic unweighted red-blue
  pebble game recovered inside the WRBPG).
* **Double Accumulator (DA)** — non-input nodes (partial / accumulated
  results) weigh twice an input node, modelling mixed precision where
  accumulators carry 32 bits against 16-bit raw samples.

Weights are integers in *bits* throughout the library so that budgets,
costs, and memory sizes line up with the paper's "bits transferred" and
"fast memory size (bits)" axes, and so DP memo keys stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .cdag import CDAG, Node

#: Default memory word size used throughout the paper's evaluation.
DEFAULT_WORD_BITS = 16


@dataclass(frozen=True)
class WeightConfig:
    """A named rule assigning a bit-width to every CDAG node.

    Attributes
    ----------
    name:
        Identifier used in reports ("Equal", "Double Accumulator", ...).
    input_bits:
        Weight of source (input) nodes.
    compute_bits:
        Weight of non-source nodes.
    """

    name: str
    input_bits: int = DEFAULT_WORD_BITS
    compute_bits: int = DEFAULT_WORD_BITS

    def weight_of(self, cdag: CDAG, node: Node) -> int:
        return self.input_bits if not cdag.predecessors(node) else self.compute_bits

    def weights(self, cdag: CDAG) -> Dict[Node, int]:
        """Weight mapping for every node of ``cdag``."""
        return {v: self.weight_of(cdag, v) for v in cdag}

    def apply(self, cdag: CDAG) -> CDAG:
        """Return ``cdag`` reweighted under this configuration."""
        return cdag.with_weights(self.weights(cdag))

    @property
    def word_bits(self) -> int:
        """The memory word size (bits) used to express sizes in words."""
        return self.input_bits


def equal(word_bits: int = DEFAULT_WORD_BITS) -> WeightConfig:
    """The *Equal* configuration: all nodes weigh one ``word_bits`` word."""
    return WeightConfig("Equal", input_bits=word_bits, compute_bits=word_bits)


def double_accumulator(word_bits: int = DEFAULT_WORD_BITS) -> WeightConfig:
    """The *Double Accumulator* configuration: inputs weigh one word,
    non-inputs (partials / accumulators) weigh two."""
    return WeightConfig("Double Accumulator", input_bits=word_bits,
                        compute_bits=2 * word_bits)


def class_weights(cdag: CDAG) -> Optional[Tuple[int, int]]:
    """The ``(input_bits, compute_bits)`` pair :meth:`WeightConfig.apply`
    would have given ``cdag``: the common weight of its sources and the
    common weight of its other nodes.  ``None`` when either class is
    empty or not uniform, i.e. when no :class:`WeightConfig` produces
    these weights."""
    inputs, computed = set(), set()
    for v, w in cdag.weights.items():
        (computed if cdag.predecessors(v) else inputs).add(w)
    if len(inputs) != 1 or len(computed) != 1:
        return None
    return inputs.pop(), computed.pop()


def custom(name: str, fn: Callable[[CDAG, Node], int]):
    """Build a per-node weighting from an arbitrary function.

    Returns an object with the same ``weights`` / ``apply`` interface as
    :class:`WeightConfig` (duck-typed), for mixed-precision schemes beyond
    the two the paper evaluates.
    """

    class _Custom:
        def __init__(self):
            self.name = name

        def weight_of(self, cdag: CDAG, node: Node) -> int:
            return fn(cdag, node)

        def weights(self, cdag: CDAG) -> Dict[Node, int]:
            return {v: fn(cdag, v) for v in cdag}

        def apply(self, cdag: CDAG) -> CDAG:
            return cdag.with_weights(self.weights(cdag))

    return _Custom()


#: The two configurations the paper evaluates, in presentation order.
PAPER_CONFIGS = (equal(), double_accumulator())
