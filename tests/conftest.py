import pytest

from acy.algebra import GradedAlgebra
from acy.cells import builtin_cells, derive_relations
from acy.homology import Homology
from acy.quiver import parse_graph_spec

_CACHE: dict = {}


def pipeline(spec: str):
    """(graph, cells, algebra, homology) for a family spec, cached per session."""
    if spec not in _CACHE:
        g = parse_graph_spec(spec)
        cells = builtin_cells(g)
        A = GradedAlgebra(g, derive_relations(cells))
        _CACHE[spec] = (g, cells, A, Homology(A))
    return _CACHE[spec]


@pytest.fixture(scope="session")
def pipe():
    return pipeline
