"""Colour classes of the coupling graph, as the colored anneal kernel uses them."""

import pickle

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qubo.model import QuboModel


def networkx_classes(model):
    """``nx.greedy_color(largest_first)`` grouped into sorted index arrays."""
    coloring = nx.greedy_color(model.interaction_graph(), strategy="largest_first")
    num_colors = max(coloring.values(), default=-1) + 1
    return [
        sorted(v for v, c in coloring.items() if c == color)
        for color in range(num_colors)
    ]


@st.composite
def models(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return QuboModel(0)
    index = st.integers(0, n - 1)
    coeffs = draw(
        st.dictionaries(
            st.tuples(index, index),
            st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]),
            max_size=3 * n,
        )
    )
    return QuboModel(n, coeffs)


class TestGreedyColoring:
    @settings(max_examples=200, deadline=None)
    @given(model=models())
    def test_matches_networkx_largest_first(self, model):
        ours = [cls.tolist() for cls in model.color_classes()]
        assert ours == networkx_classes(model)

    def test_edge_cases(self):
        assert QuboModel(0).color_classes() == ()
        (only,) = QuboModel(1, {(0, 0): -1.0}).color_classes()
        assert only.tolist() == [0]
        # No coupling (a diagonal model, or couplings that cancel to zero):
        # one class holding every variable.
        for model in (
            QuboModel(5, {(i, i): 1.0 for i in range(5)}),
            QuboModel(4, {(0, 1): 0.0, (2, 3): 0.0}),
        ):
            (cls,) = model.color_classes()
            assert cls.tolist() == list(range(model.num_variables))
            assert cls.dtype == np.int64


class TestColorCache:
    def test_cached_and_read_only(self):
        model = QuboModel(3, {(0, 1): 1.0})
        first = model.color_classes()
        assert model.color_classes() is first
        assert not first[0].flags.writeable

    def test_cleared_by_add_quadratic(self):
        model = QuboModel(3, {(0, 1): 1.0})
        assert [c.tolist() for c in model.color_classes()] == [[0, 2], [1]]
        model.add_quadratic(1, 2, 1.0)
        assert model._color_cache is None
        assert [c.tolist() for c in model.color_classes()] == [[1], [0, 2]]

    def test_absent_after_pickle_round_trip(self):
        model = QuboModel(4, {(0, 1): 1.0, (2, 3): -1.0})
        classes = model.color_classes()
        clone = pickle.loads(pickle.dumps(model))
        assert clone._color_cache is None
        assert [c.tolist() for c in clone.color_classes()] == [
            c.tolist() for c in classes
        ]
