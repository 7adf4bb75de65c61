"""Astronomy: an LSST-style survey on the shared-nothing grid
(Sections 2.7, 2.13).

A synthetic sky survey streams epoch-by-epoch observations into a
4-node grid under fixed spatial partitioning (the right choice for
periodic full-sky scans).  Faint sources carry positional error, so
boundary observations are redundantly placed PanSTARRS-style; a reference
catalog is co-partitioned with the observations so the cross-match join
moves zero bytes.  Finally the automatic designer reviews the workload.

Run:  python examples/astronomy_survey.py
"""

from repro import PositionUncertainty, define_array
from repro.cluster import (
    AutomaticDesigner,
    BlockPartitioner,
    Grid,
    HashPartitioner,
    WorkloadQuery,
)
from repro.workloads import SkySurvey

import tempfile

SKY = 128
NODES = 4
EPOCHS = 3


def main() -> None:
    survey = SkySurvey(sky_size=SKY, n_objects=600, seed=3)
    tmp = tempfile.mkdtemp(prefix="scidb_survey_")
    grid = Grid(NODES, tmp)

    # -- co-partitioned observation + catalog arrays ---------------------------
    obs_schema = define_array(
        "Obs", {"flux": "float", "pos_error": "float"}, ["x", "y"]
    ).bind([SKY, SKY])
    cat_schema = define_array(
        "Catalog", {"ref_mag": "float", "unused": "float"}, ["x", "y"]
    ).bind([SKY, SKY])
    scheme = BlockPartitioner(NODES, bounds=[SKY, SKY], blocks=[2, 2])
    # One partitioner for both arrays: they are co-partitioned.
    observations = grid.create_array("obs", obs_schema, scheme)
    catalog = grid.create_array("catalog", cat_schema, scheme)

    # -- load with positional uncertainty (boundary replication) ----------------
    pu = PositionUncertainty((0.8, 0.8))
    epoch_obs = list(survey.epoch_observations(1))
    # Keep one observation per cell for this example.
    by_cell = {}
    for o in epoch_obs:
        by_cell[(int(o.x), int(o.y))] = o
    loaded = observations.load_uncertain(
        [((o.x, o.y), (o.flux, o.pos_error)) for o in by_cell.values()], pu
    )
    catalog.load_uncertain(
        [((o.x, o.y), (o.flux * 0.9, 0.0)) for o in by_cell.values()], pu
    )
    replicated = grid.ledger.total_bytes("replication")
    print(f"loaded {loaded} observations; "
          f"{replicated} bytes of boundary replicas (PanSTARRS-style)")
    print("cells per node:", observations.cells_per_node(),
          f"imbalance = {observations.imbalance():.2f}")

    # -- zero-movement cross-match ------------------------------------------------
    grid.ledger.reset()
    match = observations.sjoin(catalog)
    print(f"\ncross-match: {match.count_occupied()} matches, "
          f"join shuffle = {grid.ledger.total_bytes('join_shuffle')} bytes "
          "(co-partitioned)")

    # -- a survey analytics query ---------------------------------------------------
    flux_by_column = observations.aggregate(["x"], "avg")
    busiest = max(
        (cell.avg, c[0]) for c, cell in flux_by_column.cells()
    )
    print(f"brightest mean-flux column: x = {busiest[1]} "
          f"(avg flux {busiest[0]:.1f})")

    # -- the automatic designer reviews the layout -------------------------------------
    cells = [(c[0], c[1]) for c, _ in observations.scan()]
    designer = AutomaticDesigner(
        cells,
        [scheme, HashPartitioner(NODES)],
    )
    workload = [
        WorkloadQuery("window", weight=5.0, window=((1, 1), (32, 32))),
        WorkloadQuery("join", weight=2.0, join_with="catalog"),
    ]
    verdict = designer.recommend(
        workload, current=scheme,
        partitioners_by_array={"catalog": scheme},
    )
    print("\ndesigner verdict:",
          "keep the fixed spatial partitioning" if verdict is None
          else f"switch to {verdict.partitioner!r}")

    print("\nastronomy example OK")


if __name__ == "__main__":
    main()
