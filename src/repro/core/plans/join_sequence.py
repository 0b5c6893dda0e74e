"""Sequences of joins on the same attribute (paper Fig. 4, §4.2).

Two variants of an N-join cascade over relations ``R0 ⋈ R1 ⋈ … ⋈ RN``:

* **naive** — each join is a full distributed join; its materialized output
  is re-shuffled through the network together with the next relation, so a
  cascade of N joins shuffles ``2·N`` relations and materializes every
  intermediate result.
* **optimized** — because all joins share the join attribute, all ``N+1``
  relations are network-partitioned once up front; the per-partition nested
  plan then chains ``BuildProbe`` operators so intermediate join outputs
  stream from one probe into the next without materialization or further
  shuffling.

The paper's point is that this restructuring is a trivial re-composition of
the same sub-operators, whereas monolithic join operators would need deep
surgery.  Both variants below are assembled from the identical building
blocks used in :mod:`repro.core.plans.join`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.operator import Operator
from repro.core.operators import MaterializeRowVector, ParameterSlot
from repro.core.plans.fragments import (
    DistributedPlan,
    cascade_probe,
    pair_probe,
    partitioned_join,
    radix_partitioners,
    resolve_network_fanout,
    shard_scan,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["JoinSequencePlan", "build_join_sequence"]

VARIANTS = ("naive", "optimized")


@dataclass
class JoinSequencePlan(DistributedPlan):
    """A ready-to-run N-join cascade: ``run(relations, options)``."""

    variant: str
    n_joins: int

    inputs = ("relations",)
    matches = staticmethod(DistributedPlan.output)

    def _bind(self, relations: Sequence[RowVector]) -> tuple:
        if len(relations) != self.n_joins + 1:
            raise TypeCheckError(
                f"{self.n_joins}-join cascade needs {self.n_joins + 1} relations, "
                f"got {len(relations)}"
            )
        return tuple(relations)


def build_join_sequence(
    cluster: SimCluster,
    relation_types: Sequence[TupleType],
    key: str = "key",
    variant: str = "optimized",
    network_fanout: int | None = None,
    local_fanout: int = 16,
) -> JoinSequencePlan:
    """Assemble a cascade of ``len(relation_types) - 1`` joins.

    Args:
        cluster: Simulated cluster for the data-parallel part.
        relation_types: One ⟨key, payload⟩ tuple type per relation; all
            share the key field, payload names are pairwise distinct.
        key: The common join attribute.
        variant: ``"naive"`` or ``"optimized"`` (Fig. 4 left/right).
        network_fanout / local_fanout: Radix fan-outs (powers of two).

    Compression is not applied: the naive variant shuffles multi-field
    intermediate results that do not fit the ⟨key, payload⟩ packing, and
    using the identical wire format in both variants keeps the comparison
    about shuffles and materializations, as in the paper.
    """
    if len(relation_types) < 3:
        raise TypeCheckError(
            "a join sequence needs at least three relations (two joins)"
        )
    if variant not in VARIANTS:
        raise TypeCheckError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    payloads: set[str] = set()
    for i, rel in enumerate(relation_types):
        if key not in rel:
            raise TypeCheckError(f"relation {i} ({rel!r}) lacks key field {key!r}")
        for f in rel.field_names:
            if f != key:
                if f in payloads:
                    raise TypeCheckError(f"payload field {f!r} appears in two relations")
                payloads.add(f)
        if any(rel[f] != INT64 for f in rel.field_names):
            raise TypeCheckError(f"relation {i} must be all-INT64, got {rel!r}")

    n_net, _ = resolve_network_fanout(cluster, network_fanout)
    net_fn, local_fn = radix_partitioners(key, n_net, local_fanout)
    k = len(relation_types)
    slot = ParameterSlot(
        TupleType.of(
            **{f"r{i}": row_vector_type(rel) for i, rel in enumerate(relation_types)}
        )
    )

    def join(streams: list[Operator], probe) -> Operator:
        # Deliberately uncompressed (MOD023): both Figure 4 variants must use
        # the same wire format — see the docstring above.
        return partitioned_join(
            streams, net_fn, local_fn,
            lambda s: MaterializeRowVector(probe(s), field="matches"),
            suppress=("MOD023",),
        )

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        scans = [shard_scan(worker_slot, f"r{i}") for i in range(k)]
        if variant == "optimized":
            # Pre-partition all relations once, then chain BuildProbes per
            # partition: intermediate results never materialize.
            return join(scans, lambda s: cascade_probe(s, key, k))
        # Naive: a full distributed join per stage.  Each intermediate is
        # consumed by both the histogram and the exchange of the next stage,
        # so the plan compiler inserts a materialization point — exactly the
        # extra intermediate-result materialization the naive variant pays
        # for (§5.2.1).
        stream = join(scans[:2], lambda s: pair_probe(s, key))
        for scan in scans[2:]:
            stream = join([scan, stream], lambda s: pair_probe(s, key))
        return stream

    return JoinSequencePlan.assemble(
        slot, cluster, build_worker, variant=variant, n_joins=k - 1
    )
