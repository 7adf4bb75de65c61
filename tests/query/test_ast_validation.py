"""Validation tests for parse-tree node construction (Section 2.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import PlanError
from repro.query import (
    AttrPredicate,
    DimPredicate,
    Literal,
    OpNode,
    PredicateConjunction,
    ArrayRef,
)
from repro.core.ops.structural import _selected_indexes
from repro.query.ast import _intersect


class TestDimPredicate:
    def test_valid_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            DimPredicate("x", op, 3)

    def test_unknown_op(self):
        with pytest.raises(PlanError):
            DimPredicate("x", "~", 3)

    def test_comparison_needs_value(self):
        with pytest.raises(PlanError):
            DimPredicate("x", ">=")

    def test_even_odd_need_no_value(self):
        even = DimPredicate("x", "even")
        cond = even.to_condition()
        assert cond(2) and not cond(3)
        odd = DimPredicate("x", "odd").to_condition()
        assert odd(3) and not odd(2)

    def test_to_condition_ranges(self):
        assert DimPredicate("x", "=", 5).to_condition() == 5
        assert DimPredicate("x", "<=", 5).to_condition() == (None, 5)
        assert DimPredicate("x", ">", 5).to_condition() == (6, None)
        ne = DimPredicate("x", "!=", 5).to_condition()
        assert ne(4) and not ne(5)


class TestAttrPredicate:
    def test_holds_on_scalars_and_planes(self):
        import numpy as np

        pred = AttrPredicate("v", ">", 3)
        assert pred.holds(4) and not pred.holds(3)
        assert pred.holds(np.array([2, 3, 4])).tolist() == [False, False, True]

    def test_unknown_op(self):
        with pytest.raises(PlanError):
            AttrPredicate("v", "like", "x")


class TestConjunction:
    def test_terms_must_be_predicates(self):
        with pytest.raises(PlanError):
            PredicateConjunction((Literal(1),))

    def test_split_by_kind(self):
        conj = PredicateConjunction(
            (DimPredicate("x", ">=", 1), AttrPredicate("v", "<", 5))
        )
        assert len(conj.dim_terms) == 1
        assert len(conj.attr_terms) == 1

    def test_repeated_dimension_intersects(self):
        # One range, not a callable: Subsample slices it instead of
        # calling a predicate once per index of the dimension.
        conj = PredicateConjunction(
            (DimPredicate("x", ">=", 3), DimPredicate("x", "<=", 5))
        )
        cond = conj.dims_condition()["x"]
        assert cond == (3, 5)
        assert _selected_indexes(cond, 9) == [3, 4, 5]

    def test_intersect_equality_and_range(self):
        assert _intersect(4, (None, 10)) == 4
        assert _intersect((None, 10), 4) == 4
        assert _selected_indexes(_intersect(11, (None, 10)), 20) == []
        assert _selected_indexes(_intersect(4, 5), 9) == []
        assert _intersect(4, 4) == 4

    def test_a_callable_or_a_set_keeps_the_intersection_callable(self):
        even = _intersect(DimPredicate("x", "even").to_condition(), (3, None))
        assert callable(even) and [v for v in range(1, 9) if even(v)] == [4, 6, 8]
        picked = _intersect({2, 5, 9}, (None, 6))
        assert callable(picked) and [v for v in range(1, 12) if picked(v)] == [2, 5]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("=", "!=", "<", "<=", ">", ">=", "even", "odd")),
                st.integers(-2, 12),
            ),
            min_size=1, max_size=4,
        ),
        st.integers(0, 10),
    )
    def test_intersection_selects_what_the_callable_form_admits(self, terms, extent):
        conj = PredicateConjunction(tuple(
            DimPredicate("x", op, None if op in ("even", "odd") else value)
            for op, value in terms
        ))

        def admits(v, cond):  # the callable form every intersection once made
            if isinstance(cond, tuple):
                return (cond[0] is None or v >= cond[0]) and (cond[1] is None or v <= cond[1])
            return v == cond if isinstance(cond, int) else cond(v)

        conditions = [t.to_condition() for t in conj.dim_terms]
        want = [v for v in range(1, extent + 1) if all(admits(v, c) for c in conditions)]
        assert _selected_indexes(conj.dims_condition()["x"], extent) == want

    def test_conjunction_tests_cells_and_planes(self):
        import numpy as np
        from repro import Cell

        conj = PredicateConjunction(
            (AttrPredicate("v", ">", 1), AttrPredicate("v", "<", 5),
             DimPredicate("x", "<", 2))  # dimension terms are Subsample's
        )
        assert conj(Cell(("v",), (3,)))
        assert not conj(Cell(("v",), (7,)))
        assert conj.attrs == ("v", "v")
        planes = {"v": np.array([0.0, 3.0, 3.0, 7.0])}
        present = np.array([True, True, False, True])
        assert conj.on_planes(planes, present).tolist() == [
            False, True, False, False
        ]


class TestOpNode:
    def test_option_lookup(self):
        node = OpNode("filter", (ArrayRef("A"),), (("predicate", 42),))
        assert node.option("predicate") == 42
        assert node.option("missing", "dflt") == "dflt"

    def test_with_args_replaces(self):
        node = OpNode("filter", (ArrayRef("A"),), ())
        replaced = node.with_args(ArrayRef("B"))
        assert replaced.args == (ArrayRef("B"),)
        assert replaced.op == "filter"

    def test_structural_equality(self):
        a = OpNode("subsample", (ArrayRef("A"),), (("predicate", 1),))
        b = OpNode("subsample", (ArrayRef("A"),), (("predicate", 1),))
        assert a == b
