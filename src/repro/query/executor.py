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
from ..core.errors import PlanError, SchemaError
from ..core.ops import get_operator
from ..core.schema import ArraySchema, define_array
from ..obs import tracing
from ..obs.recorder import get_flight_recorder
from .ast import (
    ArrayRef,
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


def _distributed_type():
    """The DistributedArray class, imported lazily (grid is optional)."""
    from ..cluster.grid import DistributedArray

    return DistributedArray

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
        from .stats import ArrayDescription, ArrayStats

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
            return ArrayDescription(
                name=name,
                kind="distributed",
                cells=merged.cell_count // k,
                chunks=-(-merged.chunk_count // k),
                nodes=len(arr.grid.nodes),
                replication=k,
                grid_id=id(arr.grid),
                partitioner=type(arr.partitioner).__name__,
                dims=tuple((d.name, d.size) for d in arr.schema.dimensions),
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
        kwargs = self._translate_options(node, result)
        if self.provenance is not None and not self._has_distributed_args(node):
            # Resolve inputs BEFORE opening this operator's span: nested
            # expressions execute under their own spans, keeping every
            # span's time and counters exclusive to its operator.
            input_names = [self._name_of(a, result) for a in node.args]
            output = output_name or f"__q{next(self._temp_counter)}"
            # Operator boundary: cooperative cancellation under a deadline.
            check_deadline(f"operator {node.op}")
            with tracing.span("op:" + node.op, op=node.op, node_id=id(node)) as sp:
                value = self.provenance.execute(
                    node.op, input_names, output, **kwargs
                )
                self._annotate_local(
                    sp, [self.provenance.catalog[n] for n in input_names], value
                )
            return value
        args = [self._eval(a, result) for a in node.args]
        check_deadline(f"operator {node.op}")
        with tracing.span("op:" + node.op, op=node.op, node_id=id(node)) as sp:
            value = self._apply_op(node, args, kwargs, sp, self._scan_spec(node, result))
            self._annotate_local(sp, args, value)
        return value

    def _scan_spec(self, node: Node, result: ExecutionResult):
        """The pruning directive the planner attached to *node*, if any.

        Looked up by node identity in the executed plan — `run`
        executes the exact tree the planner annotated, so the ids line
        up.  Returns ``None`` (no pruning) for nodes planned without a
        spec or trees that never went through :meth:`Planner.plan`.
        """
        planned = result.planned
        if planned is None:
            return None
        phys = planned.physical_for(node)
        return phys.scan if phys is not None else None

    def _name_of(self, node: Node, result: ExecutionResult) -> str:
        """Resolve an argument to a provenance catalog name."""
        if isinstance(node, ArrayRef):
            if node.name not in self.provenance.catalog:
                self.provenance.register_external(
                    node.name, self.lookup(node.name), program="executor.catalog"
                )
            return node.name
        # Nested expression: evaluate through provenance under a temp name.
        kwargs = self._translate_options(node, result)
        input_names = [self._name_of(a, result) for a in node.args]
        output = f"__q{next(self._temp_counter)}"
        with tracing.span("op:" + node.op, op=node.op, node_id=id(node)) as sp:
            self.provenance.execute(node.op, input_names, output, **kwargs)
            self._annotate_local(
                sp,
                [self.provenance.catalog[n] for n in input_names],
                self.provenance.catalog[output],
            )
        return output

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
        self, node: OpNode, args: list, kwargs: dict, sp, scan_spec=None
    ) -> Any:
        DistributedArray = _distributed_type()
        if any(isinstance(a, DistributedArray) for a in args):
            return self._dispatch_distributed(node, args, kwargs, sp, scan_spec)
        return get_operator(node.op)(*args, **kwargs)

    def _dispatch_distributed(
        self, node: OpNode, args: list, kwargs: dict, sp, scan_spec=None
    ) -> Any:
        """Run an operator over grid-resident inputs.

        Operators with a native distributed implementation (window
        subsample, algebraic aggregate/regrid, co-partitioned sjoin) run
        in place on the grid; anything else gathers the operands to the
        coordinator (metered as movement) and runs the local operator.

        *scan_spec* is the planner's chunk-skipping directive for this
        node (a :class:`~repro.query.planner.ScanSpec`): when the read
        feeding this operator is a direct grid scan of the spec's array,
        the per-attribute value intervals are forwarded so every node's
        storage manager can skip buckets whose statistics rule them out.
        """
        DistributedArray = _distributed_type()
        op = node.op
        sp.annotate(distributed=True)
        first = args[0] if isinstance(args[0], DistributedArray) else None
        grid_arg = next(
            (a for a in args if isinstance(a, DistributedArray)), None
        )
        if grid_arg is not None:
            # The scheduler re-annotates on entry, but a fallback gather
            # path never enters it — record the configured fan-out either
            # way so explain shows per-op parallelism consistently.
            sp.annotate(parallelism=grid_arg.grid.parallelism)
        def ranges_for(darr) -> Optional[dict]:
            if scan_spec is None or scan_spec.array != darr.name:
                return None
            return scan_spec.attr_ranges or None

        try:
            if op == "subsample" and first is not None and len(args) == 1:
                window = self._predicate_window(
                    node.option("predicate"), first
                )
                if window is not None:
                    # The window is a pruned (R-tree), metered gather of
                    # just the slab; the local operator then applies the
                    # exact Subsample semantics (rebasing, source_index).
                    slab = first.subsample(
                        window, attr_ranges=ranges_for(first)
                    )
                    return get_operator(op)(slab, **kwargs)
            elif op == "aggregate" and first is not None and len(args) == 1:
                return first.aggregate(
                    kwargs["group_dims"], kwargs["agg"], kwargs["attr"]
                )
            elif op == "regrid" and first is not None and len(args) == 1:
                return first.regrid(
                    kwargs["factors"], kwargs["agg"], kwargs["attr"]
                )
            elif (
                op == "sjoin"
                and len(args) == 2
                and first is not None
                and isinstance(args[1], DistributedArray)
                and args[0].grid is args[1].grid
            ):
                return args[0].sjoin(args[1], on=kwargs.get("on"))
        except SchemaError:
            # Holistic aggregate / incompatible partitioning: fall back
            # to a metered gather plus the local operator.
            pass
        local = [
            a.materialize(attr_ranges=ranges_for(a))
            if isinstance(a, DistributedArray)
            else a
            for a in args
        ]
        return get_operator(op)(*local, **kwargs)

    def _predicate_window(
        self, pred: Any, darr: Any
    ) -> Optional[tuple[tuple, tuple]]:
        """Compile a pure-range dimension predicate to a scan window.

        Returns ``None`` when the predicate needs per-cell evaluation
        (even/odd/!=, attribute terms, callables) or the window cannot
        be closed (an unbounded dimension with no upper constraint).
        """
        if not isinstance(pred, PredicateConjunction):
            return None
        if pred.attr_terms:
            return None
        dims = list(darr.schema.dimensions)
        names = [d.name for d in dims]
        lo: dict[str, int] = {}
        hi: dict[str, int] = {}
        for term in pred.dim_terms:
            if term.dim not in names:
                raise PlanError(
                    f"array {darr.name!r} has no dimension {term.dim!r} "
                    f"(dimensions: {', '.join(names)})"
                )
            if term.op in ("even", "odd", "!="):
                return None
            value = term.value
            if term.op == "=":
                lo[term.dim] = max(lo.get(term.dim, value), value)
                hi[term.dim] = min(hi.get(term.dim, value), value)
            elif term.op == "<":
                hi[term.dim] = min(hi.get(term.dim, value - 1), value - 1)
            elif term.op == "<=":
                hi[term.dim] = min(hi.get(term.dim, value), value)
            elif term.op == ">":
                lo[term.dim] = max(lo.get(term.dim, value + 1), value + 1)
            elif term.op == ">=":
                lo[term.dim] = max(lo.get(term.dim, value), value)
        lo_coords, hi_coords = [], []
        for d in dims:
            lo_coords.append(lo.get(d.name, 1))
            upper = hi.get(d.name, d.size)
            if upper is None:  # unbounded dim, no upper constraint
                return None
            hi_coords.append(upper)
        return tuple(lo_coords), tuple(hi_coords)

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

    def _translate_options(self, node: OpNode, result: ExecutionResult) -> dict:
        """Map AST options to the operator functions' keyword arguments."""
        op = node.op
        if op == "subsample":
            pred = node.option("predicate")
            return {"predicate": _as_dim_mapping(pred)}
        if op == "filter":
            fn = node.option("predicate")
            if not callable(fn):  # a PredicateConjunction tests one cell
                raise PlanError(
                    f"cannot use {type(fn).__name__} as a filter predicate"
                )

            def counting(cell, _fn=fn, _res=result):
                _res.cells_examined += 1
                return _fn(cell)

            return {"predicate": counting}
        if op == "aggregate":
            return {
                "group_dims": list(node.option("group_dims")),
                "agg": node.option("agg"),
                "attr": node.option("attr"),
            }
        if op == "regrid":
            return {
                "factors": list(node.option("factors")),
                "agg": node.option("agg"),
                "attr": node.option("attr"),
            }
        if op == "sjoin":
            return {"on": list(node.option("on"))}
        if op == "cjoin":
            pairs = node.option("attr_pairs")
            if pairs is not None:
                def predicate(l, r, _pairs=pairs):
                    return all(
                        getattr(l, la) == getattr(r, ra) for la, ra in _pairs
                    )
                return {"predicate": predicate}
            return {"predicate": node.option("predicate")}
        if op == "project":
            return {"attrs": list(node.option("attrs"))}
        if op == "transpose":
            return {"order": list(node.option("order"))}
        if op == "reshape":
            return {
                "order": list(node.option("order")),
                "new_dims": list(node.option("new_dims")),
            }
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
