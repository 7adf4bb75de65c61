"""Validation tests for parse-tree node construction (Section 2.4)."""

import pytest

from repro import PlanError
from repro.query import (
    AttrPredicate,
    DimPredicate,
    Literal,
    OpNode,
    PredicateConjunction,
    ArrayRef,
)
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
        conj = PredicateConjunction(
            (DimPredicate("x", ">=", 3), DimPredicate("x", "<=", 5))
        )
        cond = conj.dims_condition()["x"]
        assert callable(cond)
        assert cond(3) and cond(5)
        assert not cond(2) and not cond(6)

    def test_intersect_equality_and_range(self):
        cond = _intersect(4, (None, 10))
        assert cond(4)
        assert not cond(5)

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
