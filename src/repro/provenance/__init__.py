"""Provenance: repeatability of data derivation (Section 2.12).

The paper's two search requirements:

1. backward — "for a given data element D, find the collection of
   processing steps that created it from input data";
2. forward — "find all the downstream data elements whose value is
   impacted by the value of D".

Three designs are implemented, spanning the paper's space/time trade-off:

* **log replay** (:mod:`repro.provenance.trace` over
  :mod:`repro.provenance.log`): store only the command log; answer traces
  by re-deriving lineage from the logged operators ("no extra space at all,
  but ... a substantial running time");
* **Trio-style item store** (:mod:`repro.provenance.itemstore`): record
  item-level derivations eagerly at execution time ("the space cost ...
  is way too high", but traces are lookups);
* **cached traces** (:class:`~repro.provenance.trace.TraceCache`): the
  paper's middle point — replayed results cached "in case the derivation
  is run again at a later time".

:class:`~repro.provenance.log.ProvenanceEngine` is the log and the
repository over one catalog of named arrays (the query executor's, when
wired to one): it records the commands it is handed, feeding the item
store when configured.  :mod:`repro.provenance.repository` holds the
metadata for externally-derived arrays, each record ordered against the log.
"""

from .log import CommandLog, LoggedCommand, ProvenanceEngine
from .repository import ExternalDerivation, MetadataRepository
from .itemstore import ItemLineageStore
from .trace import Item, TraceCache, trace_backward, trace_forward

__all__ = [
    "LoggedCommand",
    "CommandLog",
    "ProvenanceEngine",
    "MetadataRepository",
    "ExternalDerivation",
    "ItemLineageStore",
    "Item",
    "trace_backward",
    "trace_forward",
    "TraceCache",
]
