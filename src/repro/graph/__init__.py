"""Graph substrate: data structures, palettes, generators and validation.

The paper's algorithms operate on an undirected simple graph together with a
per-node color palette.  This subpackage provides:

* :class:`repro.graph.graph.Graph` — an adjacency-set graph with the
  operations the algorithms need (induced subgraphs, degrees, size),
* :mod:`repro.graph.csr` — a cached array ("CSR") view of a graph used by
  the batched cost kernels (in-bin degrees and bin sizes as
  ``np.bincount``/scatter operations) and by the vectorized
  subgraph-extraction layer,
* :class:`repro.graph.palettes.PaletteAssignment` — per-node palettes with
  the restriction/removal operations used by ``Partition`` and the
  palette-update steps of ``ColorReduce``,
* :mod:`repro.graph.generators` — synthetic workload generators,
* :mod:`repro.graph.validation` — proper/list-coloring validation.

The array-view contract, in brief (details in :mod:`repro.graph.csr`):
``Graph.csr()`` builds the view lazily and caches it; ``add_node`` /
``add_edge`` invalidate it (``_csr = None``), and the next ``csr()`` call
rebuilds from the live adjacency sets.  The batched cost evaluators warm
the view as a side effect of hash-pair selection; ``induced_subgraph`` /
``induced_subgraphs`` / ``subgraph_degrees_within`` / ``relabeled`` then
route through it (``use_csr=None`` means "iff warm", ``True`` builds the
view if needed, ``False`` takes the scalar reference loop).  Children
produced by the CSR path carry their own canonical warm view and
materialise their adjacency sets lazily on first set-based access; both
extraction paths yield the same node insertion order and the same
adjacency sets, so every downstream outcome — colorings, recursion trees,
selected seeds — is bit-identical between them.
"""

from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import (
    assert_proper_coloring,
    assert_valid_list_coloring,
    is_proper_coloring,
    is_valid_list_coloring,
)

__all__ = [
    "Graph",
    "PaletteAssignment",
    "assert_proper_coloring",
    "assert_valid_list_coloring",
    "is_proper_coloring",
    "is_valid_list_coloring",
]
