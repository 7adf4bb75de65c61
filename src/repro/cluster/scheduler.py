"""The intra-query partition scheduler (Section 2.7).

The paper's shared-nothing requirement is that queries run "in parallel
over the partitions".  This grid simulates its nodes in one process,
where threads share one interpreter lock: compute cannot overlap, only
waits can.  So :class:`PartitionScheduler` runs a batch of
per-partition (or per-node) thunks inline on the calling thread, and
fans it out across its bounded worker pool only when the batch's tasks
can wait — its owner's ``waits`` predicate, asked per batch (a grid
answers yes while a fault injector slows reads or its resilience policy
hedges), says so, ``parallelism > 1``, there is more than one task and
the batch is not nested inside a worker (waiting on the pool from one of
its own workers could starve it).  Either way:

* **Determinism** — results come back in *task order*, so the
  coordinator merges partitions exactly as a serial read would.
* **Failure policy** — every task runs to completion (or failure); if
  any raised, the exception of the *lowest-indexed* failing task is
  re-raised, so a multi-partition :class:`~repro.core.errors.QuorumError`
  is attributed deterministically.  The *other* tasks' failures ride
  along as ``__notes__`` and a ``sibling_failures`` attribute.
  Degraded-mode reads never raise — their tasks return ``(None, None)``
  markers that the coordinator folds into a coverage report.
* **Observability** — the scheduler counts its own ``batches`` and
  ``tasks`` and annotates the open span with the configured
  ``parallelism`` (the width a waiting fan-out gets), so
  ``SciDB.explain`` can report it per operator.  An inline task's span
  is that node's own time.

A pooled batch re-installs the caller's ambient
:class:`~repro.cluster.resilience.Deadline` and adopts its open operator
span (:func:`repro.obs.tracing.adopt`) inside every worker, so
cancellation, per-cell gather metering and the statement id survive the
hand-off.  Statements on several threads share the one pool: a batch's
tasks queue behind those already submitted, so ``parallelism`` bounds
the grid, not a statement.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Sequence

from ..core.errors import GridError
from ..obs import tracing
from .resilience import current_deadline, deadline_scope

__all__ = ["PartitionScheduler", "default_parallelism"]


def default_parallelism(n_nodes: int) -> int:
    """The grid's default width of a waiting fan-out: ``min(8, n_nodes)``."""
    return max(1, min(8, n_nodes))


class PartitionScheduler:
    """Task-ordered batches, inline unless their tasks can wait."""

    def __init__(
        self, parallelism: int, *, waits: Callable[[], bool] = lambda: False
    ) -> None:
        if parallelism < 1:
            raise GridError(
                f"scheduler parallelism must be >= 1, got {parallelism}"
            )
        self.parallelism = parallelism
        self._waits = waits
        #: batches and tasks ever mapped (statements on several threads
        #: share one grid's scheduler, hence the lock)
        self.batches = 0
        self.tasks = 0
        self._lock = threading.Lock()
        # Threads start on the first pooled batch and exit when the
        # scheduler is collected.
        self._pool = ThreadPoolExecutor(
            max_workers=parallelism, thread_name_prefix="repro-sched"
        )
        self._worker = threading.local()

    def map(self, tasks: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run every task, returning their results in task order, and
        re-raise the lowest-index failure if any task failed."""
        calls = list(tasks)
        with self._lock:
            self.batches += 1
            self.tasks += len(calls)
        tracing.annotate_current(parallelism=self.parallelism)
        if (
            self.parallelism > 1 and len(calls) > 1
            and not getattr(self._worker, "active", False) and self._waits()
        ):
            parent = tracing.current_span()
            deadline = current_deadline()

            def run(task: Callable[[], Any]) -> Any:
                self._worker.active = True
                with tracing.adopt(parent), deadline_scope(deadline):
                    return task()

            calls = [self._pool.submit(run, task).result for task in calls]
        results: List[Any] = []
        failures: List[tuple[int, BaseException]] = []
        for i, call in enumerate(calls):
            try:
                results.append(call())
            except BaseException as exc:  # deterministic: lowest index wins
                failures.append((i, exc))
                results.append(None)
        if failures:
            (_, first), *siblings = failures
            first.sibling_failures = tuple(exc for _, exc in siblings)
            for i, exc in siblings if hasattr(first, "add_note") else ():
                first.add_note(  # py >= 3.11
                    f"[scheduler] task {i} also failed: "
                    f"{type(exc).__name__}: {exc}"
                )
            raise first
        return results

    def __repr__(self) -> str:
        return f"<PartitionScheduler parallelism={self.parallelism}>"
