"""R-tree family spatial indexes.

This package is a from-scratch implementation of the index substrate the
paper builds on:

* :class:`~repro.rtree.rstar.RStarTree` — Beckmann et al. (1990) R*-tree
  (the paper's experiments run on "Norbert Beckmann's Version 2
  implementation of the R*-tree"), with ChooseSubtree, the R* topological
  split and forced reinsertion,
* :class:`~repro.rtree.guttman.GuttmanRTree` — the original Guttman (1984)
  R-tree with linear and quadratic splits, kept as an index-quality baseline,
* :mod:`~repro.rtree.bulk` — sort-tile-recursive (STR) bulk loading,
* :mod:`~repro.rtree.search` — range search, branch-and-bound nearest
  neighbour (Roussopoulos et al. 1995 MINDIST/MINMAXDIST) and spatial join,
* :class:`~repro.rtree.transformed.TransformedIndexView` — the paper's
  **Algorithm 1**: a lazy view of the index under a safe transformation,
  built on the fly during search with no extra disk,
* :mod:`~repro.rtree.kernel` — the columnar kernel: a built tree frozen
  into struct-of-arrays storage plus the iterative frontier engine that
  runs fused multi-query range (one query being a batch of one),
  block-yield incremental nearest, fused batched k-NN and the
  frontier-pair join over it.

Trees store point entries (feature vectors) at the leaves and can be backed
either by an in-memory node store or by the paged storage engine of
:mod:`repro.storage` for countable disk accesses.
"""

from repro.rtree.geometry import Rect
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.kernel import FrontierStats, FrozenRTree, frozen_kernel
from repro.rtree.node import Entry, MemoryNodeStore, Node, PagedNodeStore
from repro.rtree.rstar import RStarTree
from repro.rtree.transformed import AffineMap, TransformedIndexView

__all__ = [
    "AffineMap",
    "Entry",
    "FrontierStats",
    "FrozenRTree",
    "GuttmanRTree",
    "MemoryNodeStore",
    "Node",
    "PagedNodeStore",
    "RStarTree",
    "Rect",
    "TransformedIndexView",
    "frozen_kernel",
]
