import pytest

import acy.homology
from acy.algebra import GradedAlgebra
from acy.cells import builtin_cells, derive_relations
from acy.homology import Homology
from acy.quiver import parse_graph_spec

_CACHE: dict = {}
_DIFFERENTIALS = acy.homology.differentials


def pipeline(spec: str):
    """(graph, cells, algebra, homology) for a family spec, cached per session.

    The Homology is built from the real differentials even inside a test that
    monkeypatches `acy.homology.differentials`, so the cache never depends on
    which test first asked for a spec."""
    if spec not in _CACHE:
        g = parse_graph_spec(spec)
        cells = builtin_cells(g)
        A = GradedAlgebra(g, derive_relations(cells))
        patched, acy.homology.differentials = acy.homology.differentials, _DIFFERENTIALS
        try:
            _CACHE[spec] = (g, cells, A, Homology(A))
        finally:
            acy.homology.differentials = patched
    return _CACHE[spec]


@pytest.fixture(scope="session")
def pipe():
    return pipeline
