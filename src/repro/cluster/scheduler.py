"""The intra-query partition scheduler (Section 2.7).

The paper's shared-nothing requirement is that queries run "in parallel
over the partitions".  :class:`PartitionScheduler` owns one bounded
worker pool, built once, that fans each batch of per-partition (or
per-node) thunks out across its threads:

* **Determinism** — results come back in *task order*, regardless of
  completion order, so the coordinator merges partitions exactly as the
  serial path did; with ``parallelism=1`` the tasks run inline on the
  calling thread and the execution is bit-identical to the pre-scheduler
  serial code (no pool, no reordering, no extra frames).  A task that
  maps again runs its batch inline, so a fan-out never waits on itself.
* **Failure policy** — every task runs to completion (or failure); if
  any raised, the exception of the *lowest-indexed* failing task is
  re-raised, so a multi-partition :class:`~repro.core.errors.QuorumError`
  is attributed deterministically.  The *other* tasks' failures are not
  dropped: they are attached to the re-raised exception as ``__notes__``
  (:meth:`BaseException.add_note`, where available) and as a
  ``sibling_failures`` attribute, so multi-partition fault diagnostics
  survive.  Degraded-mode reads never raise — their tasks return
  ``(None, None)`` markers that the coordinator folds into a coverage
  report.
* **Deadline propagation** — the calling thread's ambient
  :class:`~repro.cluster.resilience.Deadline` (if any) is re-installed
  inside every worker, so per-partition tasks observe the same
  cooperative cancellation budget the coordinator does.
* **Observability** — the scheduler counts its own ``batches`` and
  ``tasks``, and the coordinator's open operator span is adopted inside
  each worker (:func:`repro.obs.tracing.adopt`), so per-cell gather
  metering, the explain report's bytes-moved reconciliation and the
  statement id on emitted events survive the fan-out.  The span is
  annotated with the configured ``parallelism`` so
  ``SciDB.explain`` can report the fan-out per operator.

Worker threads overlap where the read path releases the GIL — bucket
file reads, codec decompression and numpy plane work; the Python glue
between them is serialized by the interpreter.  Statements running on
several threads share the one pool: a batch's tasks queue behind those
already submitted, so ``parallelism`` bounds the grid, not a statement.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from ..core.errors import GridError
from ..obs import tracing
from .resilience import current_deadline, deadline_scope

__all__ = ["PartitionScheduler", "default_parallelism"]


def default_parallelism(n_nodes: int) -> int:
    """The grid's default intra-query fan-out: ``min(8, n_nodes)``."""
    return max(1, min(8, n_nodes))


class PartitionScheduler:
    """A bounded thread pool with deterministic, task-ordered results."""

    def __init__(self, parallelism: int) -> None:
        if parallelism < 1:
            raise GridError(
                f"scheduler parallelism must be >= 1, got {parallelism}"
            )
        self.parallelism = parallelism
        #: batches and tasks ever mapped (statements on several threads
        #: share one grid's scheduler, hence the lock)
        self.batches = 0
        self.tasks = 0
        self._lock = threading.Lock()
        # Threads start on the first parallel batch and exit when the
        # scheduler is collected.
        self._pool = ThreadPoolExecutor(
            max_workers=parallelism, thread_name_prefix="repro-sched"
        )
        self._worker = threading.local()

    def map(self, tasks: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run *tasks*, returning their results in task order.

        With ``parallelism == 1`` (or a single task) the tasks execute
        inline, in order, on the calling thread — the serial path.
        Otherwise up to ``parallelism`` worker threads execute them
        concurrently; the call returns only when every task finished,
        and re-raises the first (lowest-index) failure if any.
        """
        tasks = list(tasks)
        with self._lock:
            self.batches += 1
            self.tasks += len(tasks)
        tracing.annotate_current(parallelism=self.parallelism)
        # A nested fan-out runs inline: waiting on the pool from one of
        # its own workers could starve it.
        if (
            self.parallelism == 1 or len(tasks) <= 1
            or getattr(self._worker, "active", False)
        ):
            return [task() for task in tasks]

        parent = tracing.current_span()
        deadline = current_deadline()

        def run(task: Callable[[], Any]) -> Any:
            self._worker.active = True
            with tracing.adopt(parent), deadline_scope(deadline):
                return task()

        results: List[Any] = []
        first_error: Optional[BaseException] = None
        siblings: List[tuple[int, BaseException]] = []
        futures = [self._pool.submit(run, task) for task in tasks]
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
            except BaseException as exc:  # deterministic: lowest index wins
                if first_error is None:
                    first_error = exc
                else:
                    siblings.append((i, exc))
                results.append(None)
        if first_error is not None:
            # The lowest-indexed failure is raised; the rest ride along as
            # notes + a structured attribute instead of vanishing.
            first_error.sibling_failures = tuple(e for _, e in siblings)
            if hasattr(first_error, "add_note"):  # py >= 3.11
                for i, exc in siblings:
                    first_error.add_note(
                        f"[scheduler] task {i} also failed: "
                        f"{type(exc).__name__}: {exc}"
                    )
            raise first_error
        return results

    def __repr__(self) -> str:
        return f"<PartitionScheduler parallelism={self.parallelism}>"
