"""Parse-tree execution against a catalog (Section 2.4).

The executor is the single consumer of parse trees: every binding —
textual or Python — funnels through here.  It holds a schema catalog
(``define`` results) and an array catalog (``create`` results and query
outputs), plans each query through the :class:`~repro.query.planner.Planner`,
and dispatches operator nodes to the user-extendable operator catalog.

Pass a :class:`~repro.provenance.log.ProvenanceEngine` to have every
derivation logged (and its arrays registered) for lineage tracing; the
executor then satisfies both Section 2.4 and Section 2.12 at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import itertools

from ..cluster.resilience import check_deadline
from ..core.array import SciArray
from ..core.enhance import enhance as attach_enhancement
from ..core.errors import PlanError
from ..core.ops import get_operator
from ..core.schema import ArraySchema, define_array
from ..obs import tracing
from ..obs.recorder import get_flight_recorder
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
from .cost import CostModel, grid_route, predicate_window
from .parser import parse_statement
from .planner import PhysicalOp, PlannedQuery, Planner, PlannerConfig
from .stats import ArrayDescription, ArrayStats


def _distributed_type():
    """The DistributedArray class, imported lazily (grid is optional)."""
    from ..cluster.grid import DistributedArray

    return DistributedArray


def _describe_grid_array(name: str, arr: Any, **estimates: Any) -> ArrayDescription:
    """What :func:`~repro.query.cost.grid_route` asks of a grid array —
    written once, so the planner's catalog and the dispatch agree."""
    return ArrayDescription(
        name, "distributed", grid_id=id(arr.grid),
        dims=tuple((d.name, d.size) for d in arr.schema.dimensions),
        **estimates,
    )


try:  # Provenance is optional wiring, not a hard dependency.
    from ..provenance.log import ProvenanceEngine
except ImportError:  # pragma: no cover
    ProvenanceEngine = None  # type: ignore[assignment]

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
        provenance: "Optional[ProvenanceEngine]" = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if planner is None:
            planner = Planner(
                catalog=self._describe_for_planner,
                cost_model=self.cost_model,
            )
        else:
            # A caller-supplied planner keeps its own switches but gains
            # the executor's catalog/cost model unless it brought its own.
            if planner.catalog is None:
                planner.catalog = self._describe_for_planner
            if planner.cost_model is None:
                planner.cost_model = self.cost_model
        self.planner = planner
        self.provenance = provenance
        self.schemas: dict[str, ArraySchema] = {}
        self.arrays: dict[str, Any] = {}
        self._temp_counter = itertools.count()

    # -- catalog -----------------------------------------------------------------

    def register(self, name: str, array: Any) -> Any:
        """Enter an existing array into the catalog (e.g. a loaded file,
        or a grid-resident :class:`~repro.cluster.grid.DistributedArray`)."""
        self.arrays[name] = array
        if (
            self.provenance is not None
            and isinstance(array, SciArray)
            and name not in self.provenance.catalog
        ):
            self.provenance.register_external(
                name, array, program="executor.register"
            )
        return array

    def lookup(self, name: str) -> SciArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise PlanError(f"no array named {name!r} in the catalog") from None

    def _describe_for_planner(self, name: str):
        """Catalog callback the planner estimates from.

        For a grid-resident array the per-node bucket statistics are
        merged across alive nodes (an in-memory walk of stats catalogs —
        no bucket I/O, nothing metered) and the stored totals normalized
        by the replica factor to *logical* counts, which is what one
        exactly-once read touches.  Returns ``None`` for unknown names;
        any failure inside is swallowed by the planner (stats must never
        fail a query).
        """
        arr = self.arrays.get(name)
        if arr is None:
            return None
        DistributedArray = _distributed_type()
        if isinstance(arr, DistributedArray):
            parts = []
            for node in arr.grid.nodes:
                if not node.alive or node.retired:
                    continue
                try:
                    parts.append(node.partition(arr.name).array_stats())
                except Exception:
                    continue  # no partition on this node / racing failure
            merged = ArrayStats.merged(parts)
            k = max(1, arr.replication)
            return _describe_grid_array(
                name, arr,
                cells=merged.cell_count // k,
                chunks=-(-merged.chunk_count // k),
                nodes=len(arr.grid.nodes),
                replication=k,
                partitioner=type(arr.partitioner).__name__,
                stats=merged,
            )
        if isinstance(arr, SciArray):
            return ArrayDescription(
                name=name,
                kind="local",
                cells=arr.count_occupied(),
                chunks=arr.chunk_count(),
                dims=tuple((d.name, d.size) for d in arr.schema.dimensions),
            )
        return None

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
        with get_flight_recorder().statement(statement) as record:
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
            ok = False
            try:
                with tracing.span("execute") as sp:
                    result.value = self._execute(planned.node, result)
                ok = True
            finally:
                if record is not None:
                    # Imported here: obs.explain imports the AST module,
                    # so a module-level import would close a cycle through
                    # query.__init__ while obs.__init__ is still loading.
                    from ..obs.explain import profile_operators

                    record.root = profile_operators(planned, sp)
                    # Close the calibration loop: measured per-operator
                    # times feed the cost model that estimated them.
                    if ok and self.cost_model is not None:
                        self.cost_model.observe(record.root)
                    record.rewrites = list(result.rewrites)
                    record.cells_examined = result.cells_examined
                    record.estimated = _estimated_summary(planned.physical)
            return result

    def run_script(
        self, text: str, config: "Optional[PlannerConfig]" = None
    ) -> list[ExecutionResult]:
        from .parser import parse

        return [self.run(node, config=config) for node in parse(text)]

    # -- statement dispatch ------------------------------------------------------------

    def _execute(self, node: Node, result: ExecutionResult) -> Any:
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
            value = self._eval(node.expr, result, output_name=node.into)
            if node.into is not None:
                if isinstance(value, SciArray):
                    value.name = node.into
                self.arrays[node.into] = value
            return value
        if isinstance(node, (OpNode, ArrayRef)):
            return self._eval(node, result)
        raise PlanError(f"cannot execute node type {type(node).__name__}")

    # -- expression evaluation -----------------------------------------------------------

    def _eval(
        self,
        node: Node,
        result: ExecutionResult,
        output_name: Optional[str] = None,
    ) -> Any:
        if isinstance(node, ArrayRef):
            return self.lookup(node.name)
        if not isinstance(node, OpNode):
            raise PlanError(f"cannot evaluate node type {type(node).__name__}")
        kwargs = self._translate_options(node)
        # Resolve inputs BEFORE opening this operator's span: nested
        # expressions execute under their own spans, keeping every
        # span's time and counters exclusive to its operator.
        log_as = None
        if self.provenance is not None and not self._has_distributed_args(node):
            names = [self._name_of(a, result) for a in node.args]
            args = [self.provenance.catalog[n] for n in names]
            log_as = names, output_name or f"__q{next(self._temp_counter)}"
        else:
            args = [self._eval(a, result) for a in node.args]
        # Operator boundary: cooperative cancellation under a deadline.
        check_deadline(f"operator {node.op}")
        with tracing.span("op:" + node.op, op=node.op, node_id=id(node)) as sp:
            value = self._apply_op(node, args, kwargs, sp, result, log_as)
            self._annotate_local(sp, args, value)
        return value

    def _name_of(self, node: Node, result: ExecutionResult) -> str:
        """Resolve an argument to a provenance catalog name."""
        if isinstance(node, ArrayRef):
            if node.name not in self.provenance.catalog:
                self.provenance.register_external(
                    node.name, self.lookup(node.name), program="executor.catalog"
                )
            return node.name
        # Nested expression: evaluated through provenance, which names the
        # result after the temp name it is logged under.
        return self._eval(node, result).name

    # -- distributed dispatch ----------------------------------------------------

    def _has_distributed_args(self, node: OpNode) -> bool:
        """Whether any ArrayRef in the subtree is grid-resident.

        Checked over the whole subtree, not just direct arguments: a
        nested tree like ``filter(subsample(D))`` (which the planner's
        pushdown rewrite produces routinely) must reach the distributed
        dispatch for its inner scan, and the provenance engine only
        understands local :class:`~repro.core.array.SciArray` inputs.
        """
        DistributedArray = _distributed_type()
        stack = list(node.args)
        while stack:
            a = stack.pop()
            if isinstance(a, OpNode):
                stack.extend(a.args)
            elif isinstance(a, ArrayRef) and isinstance(
                self.arrays.get(a.name), DistributedArray
            ):
                return True
        return False

    def _apply_op(
        self, node: OpNode, args: list, kwargs: dict, sp,
        result: ExecutionResult, log_as: Optional[tuple] = None,
    ) -> Any:
        """Run *node*'s operator on resolved inputs — through the
        provenance engine, under the ``(input names, output name)`` of
        *log_as*, when the derivation is logged."""
        DistributedArray = _distributed_type()
        if any(isinstance(a, DistributedArray) for a in args):
            return self._dispatch_distributed(node, args, kwargs, sp, result)
        if node.op == "filter":
            # Its predicate, compiled or opaque, tests each PRESENT cell once.
            result.cells_examined += args[0].count_present()
        if log_as is not None:
            return self.provenance.execute(node.op, *log_as, **kwargs)
        return get_operator(node.op)(*args, **kwargs)

    def _dispatch_distributed(
        self, node: OpNode, args: list, kwargs: dict, sp, result: ExecutionResult
    ) -> Any:
        """Run an operator over grid-resident inputs, on the route
        :func:`~repro.query.cost.grid_route` names — decided from the
        statement and its operands before any read, so a statement no
        route can run fails without moving a byte.

        Operators with a native distributed implementation (window
        subsample, algebraic aggregate/regrid, co-partitioned sjoin) run
        in place on the grid; anything else gathers the operands to the
        coordinator (metered as movement) and runs the local operator.

        The planner's chunk-skipping directive for this node (a
        :class:`~repro.query.planner.ScanSpec`) applies when the read
        feeding this operator is a direct grid scan of the spec's array:
        the per-attribute value intervals are forwarded so every node's
        storage manager can skip buckets whose statistics rule them out.
        """
        DistributedArray = _distributed_type()
        # Found by node identity: `run` executes the very tree it planned.
        planned = result.planned
        phys = planned.physical_for(node) if planned is not None else None
        scan_spec = phys.scan if phys is not None else None
        operands = [
            _describe_grid_array(a.name, a)
            if isinstance(a, DistributedArray) else None
            for a in args
        ]
        route = grid_route(node, operands)
        # The scheduler re-annotates on entry, but a gather never enters
        # it — record the configured fan-out either way so explain shows
        # per-op parallelism consistently.
        sp.annotate(
            distributed=True,
            parallelism=next(
                a for a in args if isinstance(a, DistributedArray)
            ).grid.parallelism,
        )

        def ranges_for(darr) -> Optional[dict]:
            if scan_spec is None or scan_spec.array != darr.name:
                return None
            return scan_spec.attr_ranges or None

        first = args[0]
        if route == "window":
            # The window is a pruned (R-tree), metered gather of just the
            # slab; the local operator then applies the exact Subsample
            # semantics (rebasing, source_index).
            slab = first.subsample(
                predicate_window(node.option("predicate"), operands[0]),
                attr_ranges=ranges_for(first),
            )
            return get_operator(node.op)(slab, **kwargs)
        if route == "partial-aggregate":
            return first.aggregate(
                kwargs["group_dims"], kwargs["agg"], kwargs.get("attr")
            )
        if route == "partial-regrid":
            return first.regrid(
                kwargs["factors"], kwargs["agg"], kwargs.get("attr")
            )
        if route == "copartitioned":
            return first.sjoin(args[1], on=kwargs.get("on"))
        local = [
            a.materialize(attr_ranges=ranges_for(a))
            if isinstance(a, DistributedArray)
            else a
            for a in args
        ]
        return self._apply_op(node, local, kwargs, sp, result)

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


def _estimated_summary(physical: Optional[PhysicalOp]) -> Optional[dict]:
    """Fold a physical plan into the flat dict a QueryProfile retains.

    This is the slot PR 8 reserved (``estimated=None``): enough to
    compare against the profile's actuals after the fact — predicted
    cells/ms at the root, total chunks the scans expected to touch, and
    how many of those the planner expected to prune — without keeping
    the whole plan object alive in the profile ring.
    """
    if physical is None:
        return None
    out: dict[str, Any] = {}
    if physical.est_cells is not None:
        out["cells"] = int(physical.est_cells)
    if physical.est_ms is not None:
        out["ms"] = round(float(physical.est_ms), 3)
    chunks = 0
    pruned = 0
    have_chunks = False
    for p in physical.walk():
        if p.op == "scan" and p.est_chunks is not None:
            have_chunks = True
            chunks += p.est_chunks
            pruned += p.est_chunks_pruned or 0
    if have_chunks:
        out["chunks"] = chunks
        out["chunks_pruned"] = pruned
    strategies = {
        p.op: p.strategy for p in physical.walk() if p.strategy
    }
    if strategies:
        out["strategies"] = strategies
    return out or None


def _as_dim_mapping(pred: Any) -> dict:
    if isinstance(pred, PredicateConjunction):
        return pred.dims_condition()
    if isinstance(pred, dict):
        return pred
    raise PlanError(f"cannot use {type(pred).__name__} as a subsample predicate")
