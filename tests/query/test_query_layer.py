"""Unit tests for the query layer: parser, planner, executor, and the
Python binding (Section 2.4)."""

import numpy as np
import pytest

from repro import (
    ParseError, PlanError, SchemaError, SciArray, SciDB, define_array,
    define_function,
)
from repro.query import (
    ArrayRef,
    CreateNode,
    DefineNode,
    DimPredicate,
    EnhanceNode,
    Executor,
    OpNode,
    Planner,
    PlannerConfig,
    SelectNode,
    array,
    attr,
    dim,
    parse,
    parse_statement,
)
from tests.conftest import make_1d, make_2d


class TestParserStatements:
    def test_define_paper_example(self):
        node = parse_statement(
            "define array Remote (s1 = float, s2 = float, s3 = float) (I, J)"
        )
        assert node == DefineNode(
            "Remote",
            (("s1", "float"), ("s2", "float"), ("s3", "float")),
            ("I", "J"),
            False,
        )

    def test_define_updatable(self):
        node = parse_statement("define updatable array R (s1 = float) (I, J)")
        assert node.updatable

    def test_define_uncertain_type(self):
        node = parse_statement("define array U (v = uncertain float) (x)")
        assert node.values == (("v", "uncertain float"),)

    def test_create_with_bounds(self):
        node = parse_statement("create My_remote as Remote [1024, 1024]")
        assert node == CreateNode("My_remote", "Remote", (1024, 1024))

    def test_create_unbounded(self):
        node = parse_statement("create M as Remote [*, *]")
        assert node.bounds == (None, None)

    def test_enhance(self):
        node = parse_statement("enhance My_remote with Scale10")
        assert node == EnhanceNode("My_remote", "Scale10")

    def test_select_subsample_even(self):
        node = parse_statement("select subsample(F, even(X))")
        expr = node.expr
        assert expr.op == "subsample"
        pred = expr.option("predicate")
        assert pred.terms == (DimPredicate("X", "even"),)

    def test_select_subsample_conjunction(self):
        node = parse_statement("select subsample(F, X >= 2 and Y <= 3)")
        pred = node.expr.option("predicate")
        assert len(pred.terms) == 2

    def test_cross_dimension_predicate_rejected(self):
        """The paper: 'X = Y' is not legal in Subsample."""
        with pytest.raises(ParseError):
            parse_statement("select subsample(F, X = Y)")

    def test_select_aggregate(self):
        node = parse_statement("select aggregate(H, {Y}, sum(*))")
        expr = node.expr
        assert expr.option("group_dims") == ("Y",)
        assert expr.option("agg") == "sum"
        assert expr.option("attr") is None

    def test_select_sjoin(self):
        node = parse_statement("select sjoin(A, B, A.x = B.x)")
        assert node.expr.option("on") == (("x", "x"),)

    def test_select_cjoin(self):
        node = parse_statement("select cjoin(A, B, A.val = B.val)")
        assert node.expr.option("attr_pairs") == (("val", "val"),)

    def test_select_reshape_paper_example(self):
        node = parse_statement("select reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])")
        assert node.expr.option("order") == ("X", "Z", "Y")
        assert node.expr.option("new_dims") == (("U", 8), ("V", 3))

    def test_select_into(self):
        node = parse_statement("select filter(A, v > 3) into Big")
        assert node.into == "Big"

    def test_nested_expressions(self):
        node = parse_statement(
            "select aggregate(subsample(A, even(x)), {y}, sum(*))"
        )
        inner = node.expr.args[0]
        assert inner.op == "subsample"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_statement("create A as B [4] extra")

    def test_unknown_operator(self):
        with pytest.raises(ParseError):
            parse_statement("select frobnicate(A)")

    def test_script_with_comments(self):
        script = """
        -- the paper's running example
        define array Remote (s1 = float) (I, J)
        create M as Remote [4, 4]
        """
        nodes = parse(script)
        assert len(nodes) == 2


class TestPythonBinding:
    """The fluent binding must produce the same trees as the parser."""

    def test_subsample_equivalence(self):
        textual = parse_statement("select subsample(F, X >= 2 and Y <= 3)").expr
        fluent = array("F").subsample((dim("X") >= 2) & (dim("Y") <= 3)).node
        assert textual == fluent

    def test_even_equivalence(self):
        textual = parse_statement("select subsample(F, even(X))").expr
        fluent = array("F").subsample(dim("X").even()).node
        assert textual == fluent

    def test_aggregate_equivalence(self):
        textual = parse_statement("select aggregate(H, {Y}, sum(*))").expr
        fluent = array("H").aggregate(["Y"], "sum").node
        assert textual == fluent

    def test_sjoin_equivalence(self):
        textual = parse_statement("select sjoin(A, B, A.x = B.x)").expr
        fluent = array("A").sjoin("B", on=[("x", "x")]).node
        assert textual == fluent

    def test_into_equivalence(self):
        textual = parse_statement("select filter(A, v > 3) into Big")
        fluent = array("A").filter(attr("v") > 3).into("Big")
        assert textual == fluent

    def test_or_rejected(self):
        with pytest.raises(PlanError):
            (dim("X") >= 2) | (dim("Y") <= 3)

    def test_chaining(self):
        q = (
            array("A")
            .subsample(dim("x") >= 2)
            .filter(attr("v") > 0)
            .regrid([2], "sum")
        )
        assert q.node.op == "regrid"
        assert q.node.args[0].op == "filter"


class TestPlanner:
    def test_subsample_pushed_below_filter(self):
        q = array("A").filter(attr("v") > 0).subsample(dim("x") >= 2).node
        planned = Planner().plan(q)
        assert planned.node.op == "filter"
        assert planned.node.args[0].op == "subsample"
        assert planned.rewrites

    def test_pushdown_disabled(self):
        q = array("A").filter(attr("v") > 0).subsample(dim("x") >= 2).node
        planned = Planner(PlannerConfig(enable_pushdown=False)).plan(q)
        assert planned.node.op == "subsample"
        assert not planned.rewrites

    def test_pushdown_through_chain(self):
        q = (
            array("A")
            .filter(attr("v") > 0)
            .project(["v"])
            .subsample(dim("x") >= 2)
            .node
        )
        planned = Planner().plan(q)
        # subsample sinks to the bottom: project(filter(subsample(A)))
        assert planned.node.op == "project"
        assert planned.node.args[0].op == "filter"
        assert planned.node.args[0].args[0].op == "subsample"

    def test_no_rewrite_for_aggregate(self):
        """Aggregate changes dimensionality; subsample cannot commute."""
        q = array("A").aggregate(["y"], "sum").subsample(dim("y") >= 2).node
        planned = Planner().plan(q)
        assert planned.node.op == "subsample"


class TestExecutor:
    def make_executor(self):
        ex = Executor()
        ex.register("A", make_2d(np.arange(1.0, 17.0).reshape(4, 4)))
        return ex

    def test_define_create_write_read(self):
        ex = Executor()
        ex.run("define array Remote (s1 = float) (I, J)")
        result = ex.run("create M as Remote [4, 4]")
        arr = result.array
        arr[1, 1] = 2.5
        assert ex.lookup("M")[1, 1].s1 == 2.5

    def test_select_subsample(self):
        ex = self.make_executor()
        out = ex.run("select subsample(A, even(x))").array
        assert out.bounds == (2, 4)
        assert out[1, 1].v == 5.0

    def test_select_filter_counts_cells(self):
        ex = self.make_executor()
        result = ex.run("select filter(A, v > 8)")
        assert result.cells_examined == 16
        assert result.array.count_present() == 8

    def test_pushdown_reduces_cells_examined(self):
        """E2 in miniature: the planner's pushdown shrinks the filter's
        input from 16 cells to 4."""
        ex = self.make_executor()
        q = array("A").filter(attr("v") > 0).subsample(dim("x") >= 3).node
        optimized = ex.run(q)
        assert optimized.cells_examined == 8

        ex2 = Executor(planner=Planner(PlannerConfig(enable_pushdown=False)))
        ex2.register("A", make_2d(np.arange(1.0, 17.0).reshape(4, 4)))
        naive = ex2.run(q)
        assert naive.cells_examined == 16
        assert optimized.array.content_equal(naive.array)

    def test_filter_refuses_dimension_terms(self):
        """They used to be dropped without a word: ``dim("x") >= 3`` kept
        all 16 cells, and with ``attr("v") > 1`` beside it 14, not 8."""
        db = SciDB()
        db.register("A", make_2d(np.arange(1.0, 17.0).reshape(4, 4)))
        for pred in (dim("x") >= 3, (dim("x") >= 3) & (attr("v") > 1)):
            with pytest.raises(PlanError, match=r"dimension.*'x'.*subsample"):
                db.execute(array("A").filter(pred).node)
        kept = db.query(
            array("A").subsample(dim("x") >= 3).filter(attr("v") > 1).node
        )
        assert kept.count_present() == 8

    @pytest.mark.parametrize("statement", [
        "select filter(A, w > 5)",
        array("A").filter(attr("w") > 5).node,
        # beside a string term the predicate is shown cells, not planes
        array("T").filter((attr("tag") == "b") & (attr("w") > 5)).node,
        "select cjoin(A, T, A.v = T.w)",
    ], ids=["text", "fluent", "cell-route", "cjoin"])
    def test_unknown_attribute_is_one_error(self, statement):
        db = SciDB()
        db.register("A", make_2d(np.arange(1.0, 17.0).reshape(4, 4)))
        tagged = define_array("Tagged", {"tag": "string", "v": "float"}, ["x"])
        db.register("T", tagged.create("T", [4]))
        db.lookup("T")[1] = ("b", 1.0)
        with pytest.raises(SchemaError, match=r"\['w'\].*attributes: "):
            db.execute(statement)

    def test_select_into_registers(self):
        ex = self.make_executor()
        ex.run("select filter(A, v > 8) into Big")
        assert ex.lookup("Big").count_present() == 8

    def test_aggregate_figure2(self):
        ex = Executor()
        ex.register("H", make_2d([[1.0, 3.0], [3.0, 4.0]]))
        out = ex.run("select aggregate(H, {y}, sum(*))").array
        assert out[1] == 4.0 and out[2] == 7.0

    def test_sjoin_and_cjoin(self):
        ex = Executor()
        ex.register("A", make_1d([1.0, 2.0], attr="val"))
        ex.register("B", make_1d([1.0, 2.0], attr="val"))
        s = ex.run("select sjoin(A, B, A.x = B.x)").array
        assert s.ndim == 1
        c = ex.run("select cjoin(A, B, A.val = B.val)").array
        assert c.ndim == 2
        assert c[1, 2] is None

    def test_reshape(self):
        ex = Executor()
        schema = define_array("G3", {"v": "float"}, ["X", "Y", "Z"])
        ex.register(
            "G", SciArray.from_numpy(schema, np.arange(24.0).reshape(2, 3, 4))
        )
        out = ex.run("select reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])").array
        assert out.bounds == (8, 3)

    def test_enhance_statement(self):
        define_function(
            "Scale10Q",
            [("I", "integer"), ("J", "integer")],
            [("K", "integer"), ("L", "integer")],
            lambda i, j: (10 * i, 10 * j),
            inverse=lambda k, l: (k // 10, l // 10),
            replace=True,
        )
        ex = self.make_executor()
        ex.run("enhance A with Scale10Q")
        assert ex.lookup("A").mapped[20, 30].v == 7.0

    def test_missing_array(self):
        ex = Executor()
        with pytest.raises(PlanError):
            ex.run("select filter(Nope, v > 0)")

    def test_create_unknown_type(self):
        ex = Executor()
        with pytest.raises(PlanError):
            ex.run("create M as Missing [4]")

    def test_run_script(self):
        ex = Executor()
        results = ex.run_script(
            """
            define array T (v = float) (x)
            create M as T [4]
            """
        )
        assert len(results) == 2


class TestExecutorWithProvenance:
    def test_queries_are_logged(self):
        from repro.provenance import ProvenanceEngine, trace_backward

        eng = ProvenanceEngine()
        ex = Executor(provenance=eng)
        ex.register("A", make_2d(np.arange(1.0, 17.0).reshape(4, 4)))
        out = ex.run(array("A").filter(attr("v") > 8).node)
        assert len(eng.log) == 1
        name = out.array.name
        steps = trace_backward(eng, (name, (3, 3)))
        assert steps[0].command.op == "filter"
        assert ("A", (3, 3)) in steps[0].contributors

    def test_nested_expression_logged_stepwise(self):
        from repro.provenance import ProvenanceEngine

        eng = ProvenanceEngine()
        ex = Executor(provenance=eng)
        ex.register("A", make_2d(np.arange(1.0, 17.0).reshape(4, 4)))
        ex.run(
            array("A").subsample(dim("x") >= 2).aggregate(["y"], "sum").node
        )
        assert [c.op for c in eng.log] == ["subsample", "aggregate"]


class TestApplyUdfStatement:
    def test_apply_registered_udf(self):
        from repro import define_function

        define_function(
            "DoubleV",
            inputs=[("v", "float")],
            outputs=[("w", "float")],
            fn=lambda v: v * 2,
            replace=True,
        )
        ex = Executor()
        ex.register("A", make_1d([1.0, 2.0, 3.0]))
        out = ex.run("select apply(A, DoubleV(v))").array
        assert out.attr_names == ("w",)
        assert [c.w for _, c in out.cells()] == [2.0, 4.0, 6.0]

    def test_apply_multi_arg_udf(self):
        from repro import define_array, define_function

        define_function(
            "HypotVW",
            inputs=[("a", "float"), ("b", "float")],
            outputs=[("h", "float")],
            fn=lambda a, b: (a**2 + b**2) ** 0.5,
            replace=True,
        )
        schema = define_array("P2q", {"a": "float", "b": "float"}, ["x"])
        arr = schema.create("p", [1])
        arr[1] = (3.0, 4.0)
        ex = Executor()
        ex.register("P", arr)
        out = ex.run("select apply(P, HypotVW(a, b))").array
        assert out[1].h == 5.0

    def test_apply_unknown_udf(self):
        ex = Executor()
        ex.register("A", make_1d([1.0]))
        with pytest.raises(Exception):
            ex.run("select apply(A, NoSuchFn(v))")
