"""Parse-tree execution against a catalog (Section 2.4).

The executor is the single consumer of parse trees: every binding —
textual or Python — funnels through here.  It holds a schema catalog
(``define`` results) and an array catalog (``create`` results and query
outputs), plans each query through the :class:`~repro.query.planner.Planner`,
and runs the physical plan it gets back: the parse tree and the plan are
walked in step, each operator on the route its
:class:`~repro.query.planner.PhysicalOp` names, its measurements landing
on that node.

Pass a :class:`~repro.provenance.log.ProvenanceEngine` to have every
derivation logged for lineage tracing: the engine's catalog *is* the array
catalog then, and the engine is told what the executor ran — Section 2.4
and Section 2.12 at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..cluster.operators import DistributedArray
from ..cluster.resilience import check_deadline
from ..core.array import SciArray
from ..core.enhance import enhance as attach_enhancement
from ..core.errors import PlanError
from ..core.ops import get_operator
from ..core.schema import ArraySchema, define_array
from ..obs import tracing
from ..obs.recorder import get_flight_recorder
from ..provenance.log import ProvenanceEngine
from .ast import (
    ArrayRef,
    AttrPairsEqual,
    CreateNode,
    DefineNode,
    EnhanceNode,
    Node,
    OpNode,
    PredicateConjunction,
    SelectNode,
)
from .cost import CostModel
from .parser import parse_statement
from .planner import PhysicalOp, PlannedQuery, Planner, PlannerConfig
from .stats import ArrayDescription, ArrayStats

__all__ = ["ExecutionResult", "Executor"]


@dataclass
class ExecutionResult:
    """The outcome of one statement."""

    value: Any
    rewrites: list[str] = field(default_factory=list)
    #: Cells the filter predicate actually examined (the E2 metric).
    cells_examined: int = 0
    #: The plan that ran — physical annotations included (PlannedQuery).
    planned: Optional[PlannedQuery] = None

    @property
    def array(self) -> SciArray:
        if not isinstance(self.value, SciArray):
            raise PlanError("statement did not produce an array")
        return self.value


class Executor:
    """Evaluates parse trees; the backend of every language binding."""

    def __init__(
        self,
        planner: Optional[Planner] = None,
        provenance: Optional[ProvenanceEngine] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # A caller-supplied planner keeps its own switches (and cost model,
        # if it brought one) but plans over this executor's arrays: what
        # runs is the plan, so the plan must describe what is here.
        planner = planner if planner is not None else Planner()
        planner.catalog = self._describe
        if planner.cost_model is None:
            planner.cost_model = self.cost_model
        self.planner = planner
        self.provenance = provenance
        #: the slow threshold its statements carry (None: the recorder's)
        self.slow_ms: Optional[float] = None
        self.schemas: dict[str, ArraySchema] = {}
        #: one catalog: with provenance wired, the engine's own dict
        self.arrays: dict[str, Any] = {} if provenance is None else provenance.catalog

    # -- catalog -----------------------------------------------------------------

    def register(self, name: str, array: Any) -> Any:
        """Enter an existing array into the catalog (e.g. a loaded file,
        or a grid-resident :class:`~repro.cluster.grid.DistributedArray`),
        replacing whatever the name was bound to."""
        if self.provenance is not None:
            return self.provenance.register_external(
                name, array, program="executor.register"
            )
        self.arrays[name] = array
        return array

    def lookup(self, name: str) -> Any:
        try:
            return self.arrays[name]
        except KeyError:
            raise PlanError(f"no array named {name!r} in the catalog") from None

    def _describe(self, name: str) -> Optional[ArrayDescription]:
        """The planner's catalog: one description per array reference
        (``None`` for unknown names).

        What a route is decided on — kind, dimensions, grid, partitioner
        — is read straight off the array.  The estimates are best-effort
        and must never fail the query: for a grid-resident array the
        per-node bucket statistics are merged across alive nodes (an
        in-memory walk of stats catalogs — no bucket I/O, nothing
        metered) and the stored totals normalized by the replica factor
        to *logical* counts, which is what one exactly-once read touches.
        """
        arr = self.arrays.get(name)
        if not isinstance(arr, (DistributedArray, SciArray)):
            return None
        desc = ArrayDescription(
            name, "local",
            dims=tuple((d.name, d.size) for d in arr.schema.dimensions),
            schema=arr.schema,
        )
        if isinstance(arr, DistributedArray):
            desc.kind = "distributed"
            desc.grid_id = arr.grid_id
            desc.partitioner = arr.partitioner.descriptor()
            desc.nodes = len(arr.grid.nodes)
            desc.replication = max(1, arr.replication)
        try:
            if isinstance(arr, SciArray):
                desc.cells, desc.chunks = arr.count_occupied(), arr.chunk_count()
                return desc
            parts = []
            for node in arr.grid.nodes:
                if not node.alive or node.retired:
                    continue
                try:
                    parts.append(node.partition(arr.name).array_stats())
                except Exception:
                    continue  # no partition on this node / racing failure
            merged = ArrayStats.merged(parts)
            desc.cells = merged.cell_count // desc.replication
            desc.chunks = -(-merged.chunk_count // desc.replication)
            desc.stats = merged
        except Exception:
            pass  # the plan goes without estimates
        return desc

    # -- entry points ---------------------------------------------------------------

    def run(
        self,
        statement: "str | Node",
        config: Optional[PlannerConfig] = None,
    ) -> ExecutionResult:
        """Execute one statement (text or a parse tree).

        *config* overrides the planner's switches for this query only —
        e.g. ``PlannerConfig(enable_pruning=False)`` forces full scans.
        """
        # The statement's root span opens here — unless the service or
        # EXPLAIN opened it already, in which case this nests under it —
        # so parse and plan are inside the retained record.  With the
        # recorder off and no EXPLAIN active, *record* is None and every
        # span below is the shared null span.
        with get_flight_recorder().statement(statement, slow_ms=self.slow_ms) as record:
            with tracing.span("parse"):
                node = (
                    parse_statement(statement)
                    if isinstance(statement, str)
                    else statement
                )
            with tracing.span("plan") as sp:
                planned = self.planner.plan(node, config=config)
                sp.add("rewrites", len(planned.rewrites))
            result = ExecutionResult(
                None, rewrites=list(planned.rewrites), planned=planned
            )
            if record is not None:
                # The plan is the record's operator tree: each operator
                # fills its own node in as its span closes.
                record.root = planned.physical
                record.rewrites = list(planned.rewrites)
            try:
                with tracing.span("execute"):
                    result.value = self._execute(
                        planned.node, planned.physical, result
                    )
                # Close the calibration loop: measured per-operator
                # times feed the cost model that estimated them.
                if record is not None:
                    self.cost_model.observe(planned.physical)
            finally:
                if record is not None:
                    record.cells_examined = result.cells_examined
            return result

    def run_script(
        self, text: str, config: "Optional[PlannerConfig]" = None
    ) -> list[ExecutionResult]:
        from .parser import parse

        return [self.run(node, config=config) for node in parse(text)]

    # -- statement dispatch ------------------------------------------------------------

    def _execute(
        self, node: Node, phys: Optional[PhysicalOp], result: ExecutionResult
    ) -> Any:
        if isinstance(node, DefineNode):
            schema = define_array(
                node.name,
                values=list(node.values),
                dims=list(node.dims),
                updatable=node.updatable,
            )
            self.schemas[node.name] = schema
            return schema
        if isinstance(node, CreateNode):
            schema = self.schemas.get(node.type_name)
            if schema is None:
                raise PlanError(f"no array type named {node.type_name!r}")
            bounds = ["*" if b is None else b for b in node.bounds]
            array = schema.create(node.instance, bounds)
            self.register(node.instance, array)
            return array
        if isinstance(node, EnhanceNode):
            array = self.lookup(node.array)
            return attach_enhancement(array, node.function)
        if isinstance(node, SelectNode):
            value = self._eval(node.expr, phys, result, output_name=node.into)
            if node.into is not None and self.arrays.get(node.into) is not value:
                # Not a logged derivation (those are entered as recorded).
                if isinstance(value, SciArray):
                    value.name = node.into
                self.register(node.into, value)
            return value
        if isinstance(node, (OpNode, ArrayRef)):
            return self._eval(node, phys, result)
        raise PlanError(f"cannot execute node type {type(node).__name__}")

    # -- expression evaluation -----------------------------------------------------------

    def _eval(
        self,
        node: Node,
        phys: PhysicalOp,
        result: ExecutionResult,
        output_name: Optional[str] = None,
    ) -> Any:
        """Evaluate *node* as *phys* — its plan, whose children pair with
        ``node.args`` — says."""
        if isinstance(node, ArrayRef):
            return self.lookup(node.name)
        if not isinstance(node, OpNode):
            raise PlanError(f"cannot evaluate node type {type(node).__name__}")
        kwargs = self._translate_options(node)
        # Resolve inputs BEFORE opening this operator's span: nested
        # expressions execute under their own spans, keeping every
        # span's time and counters exclusive to its operator.
        args = [self._eval(a, p, result) for a, p in zip(node.args, phys.children)]
        # Operator boundary: cooperative cancellation under a deadline.
        check_deadline(f"operator {node.op}")
        with tracing.span("op:" + node.op, on_close=phys.measure, op=node.op) as sp:
            if phys.strategy:
                # The scheduler re-annotates on entry, but a gather never
                # enters it — record the configured fan-out either way so
                # explain shows per-op parallelism consistently.
                sp.annotate(
                    distributed=True, parallelism=next(
                        a for a in args if isinstance(a, DistributedArray)
                    ).grid.parallelism,
                )
                value = _GRID_ROUTES[phys.strategy](
                    self, node, phys, args, kwargs, result
                )
            else:
                value = self._apply_local(node, args, kwargs, result)
                if self.provenance is not None and not phys.on_grid:
                    # Local arrays only: an operand under its catalog name,
                    # a nested result under the name it was logged as.
                    names = [
                        a.name if isinstance(a, ArrayRef) else v.name
                        for a, v in zip(node.args, args)
                    ]
                    self.provenance.record(
                        node.op, names, output_name, kwargs, args, value
                    )
            self._annotate_local(sp, args, value)
        return value

    def _apply_local(
        self, node: OpNode, args: list, kwargs: dict, result: ExecutionResult
    ) -> Any:
        """Run *node*'s operator on coordinator-resident inputs."""
        if node.op == "filter":
            # Its predicate, compiled or opaque, tests each PRESENT cell once.
            result.cells_examined += args[0].count_present()
        return get_operator(node.op)(*args, **kwargs)

    # -- span annotation ---------------------------------------------------------

    def _annotate_local(self, sp, args: list, value: Any) -> None:
        """Attach input/output sizes to an operator span.

        Guarded on :func:`tracing.enabled` because the counts themselves
        walk chunk maps — with tracing off this must cost nothing.
        Grid-resident inputs are skipped: their scans/transfers accrue
        through the grid's own instrumentation inside this span.
        """
        if not tracing.enabled():
            return
        for a in args:
            if isinstance(a, SciArray):
                sp.add("cells_scanned", a.count_occupied())
                sp.add("chunks_touched", a.chunk_count())
        if isinstance(value, SciArray):
            sp.add("cells_out", value.count_occupied())

    def _translate_options(self, node: OpNode) -> dict:
        """Map AST options to the operator functions' keyword arguments."""
        op = node.op
        if op == "subsample":
            pred = node.option("predicate")
            return {"predicate": _as_dim_mapping(pred)}
        if op == "filter":
            pred = node.option("predicate")
            if not callable(pred):  # a PredicateConjunction tests one cell
                raise PlanError(
                    f"cannot use {type(pred).__name__} as a filter predicate"
                )
            on_dims = [t.dim for t in getattr(pred, "dim_terms", ())]
            if on_dims:
                raise PlanError(
                    f"filter tests cell values, not positions: its predicate "
                    f"has terms on dimension(s) {on_dims}; put those in a "
                    f"subsample"
                )
            return {"predicate": pred}
        if op in ("aggregate", "regrid", "sjoin", "project", "transpose", "reshape"):
            # Their options carry the operator's own keyword names; the
            # AST's tuples go in as lists.
            return {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in node.options
            }
        if op == "cjoin":
            pairs = node.option("attr_pairs")
            if pairs is not None:
                return {"predicate": AttrPairsEqual(tuple(pairs))}
            return {"predicate": node.option("predicate")}
        if op == "apply":
            udf_name = node.option("udf")
            if udf_name is not None:
                # Textual form: apply(A, Fn(attr, ...)) over a registered UDF.
                from ..core.udf import get_function

                fn = get_function(udf_name)
                args = list(node.option("args"))

                def cell_fn(cell, _fn=fn, _args=args):
                    return _fn(*(getattr(cell, a) for a in _args))

                output = [(n, t) for n, t in fn.outputs]
                return {"fn": cell_fn, "output": output}
            return {"fn": node.option("fn"), "output": list(node.option("output"))}
        # Unknown (user-registered) operator: pass options through verbatim.
        return dict(node.options)


# -- the grid routes -------------------------------------------------------------
#
# One function per route :func:`~repro.query.cost.grid_route` can name,
# each ``(executor, node, phys, args, kwargs, result) -> value``; the table
# below is where a new route is added.  The planner's read directive
# (``phys.scan``) restricts the read of the operator's first operand: the
# per-attribute value intervals go down with it, so every node's storage
# manager can skip the buckets its statistics rule out.


def _window(ex, node, phys, args, kwargs, result):
    # A pruned (R-tree), metered gather of just the slab; the local
    # operator then applies the exact Subsample semantics (rebasing,
    # source_index).
    slab = args[0].subsample(
        phys.scan.window, attr_ranges=phys.attr_ranges or None
    )
    return get_operator(node.op)(slab, **kwargs)


def _partial(ex, node, phys, args, kwargs, result):
    # The grid's operator of the same name: local phase per partition,
    # merged at the coordinator.
    return getattr(args[0], node.op)(**kwargs)


def _grid_sjoin(ex, node, phys, args, kwargs, result):
    # Node-local joins; a right operand under another partitioner is
    # shuffled to the left's scheme first.
    return args[0].sjoin(args[1], on=kwargs.get("on"))


def _gather(ex, node, phys, args, kwargs, result):
    # Every grid operand is materialized at the coordinator (metered as
    # movement) and the local operator runs there.
    ranges = phys.attr_ranges or None
    local = [
        a.materialize(attr_ranges=ranges if i == 0 else None)
        if isinstance(a, DistributedArray) else a
        for i, a in enumerate(args)
    ]
    return ex._apply_local(node, local, kwargs, result)


_GRID_ROUTES = {
    "window": _window,
    "partial-aggregate": _partial,
    "partial-regrid": _partial,
    "copartitioned": _grid_sjoin,
    "shuffle": _grid_sjoin,
    "gather": _gather,
}


def _as_dim_mapping(pred: Any) -> dict:
    if isinstance(pred, PredicateConjunction):
        return pred.dims_condition()
    if isinstance(pred, dict):
        return pred
    raise PlanError(f"cannot use {type(pred).__name__} as a subsample predicate")
