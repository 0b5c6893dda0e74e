"""The distributed radix hash join as a sub-operator plan (paper Fig. 3).

Builds the exact plan of Section 4.1.2: per rank, each side runs
``LocalHistogram → MpiHistogram → MpiExchange`` (with optional radix
compression), the two sides are zipped into ⟨partitionID, data⟩ pair tuples
and handed to a first-level ``NestedMap`` that radix-partitions each
network partition further into cache-sized sub-partitions; a second-level
``NestedMap`` joins each sub-partition pair with ``BuildProbe`` and
recovers the compressed key bits with a ``ParametrizedMap`` parametrized by
the network partition ID.

None of the sub-operators used here is specific to this join — the paper's
headline modularity claim — and swapping ``join_type`` (inner/semi/anti/
left_outer) changes only the BuildProbe probe policy.  Everything but the
leaf plan comes from :mod:`repro.core.plans.fragments`.
"""

from __future__ import annotations

import numpy as np

from repro.core.compression import RadixCompression
from repro.core.functions import ParamTupleFunction, TupleFunction
from repro.core.operator import Operator
from repro.core.operators import (
    BuildProbe,
    LocalSort,
    Map,
    MaterializeRowVector,
    MergeJoin,
    ParameterLookup,
    ParameterSlot,
    ParametrizedMap,
    Projection,
)
from repro.core.plans.fragments import (
    DistributedPlan,
    field_scan,
    partitioned_join,
    radix_partitioners,
    resolve_network_fanout,
    shard_scan,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import row_vector_type
from repro.types.tuples import TupleType

__all__ = ["DistributedJoinPlan", "build_distributed_join"]


def _two_column_check(side: str, tuple_type: TupleType, key: str) -> str:
    """Validate a ⟨key, payload⟩ relation; return the payload field name."""
    if key not in tuple_type:
        raise TypeCheckError(f"{side} relation {tuple_type!r} lacks key field {key!r}")
    payloads = [f.name for f in tuple_type if f.name != key]
    if len(payloads) != 1 or any(tuple_type[f] != INT64 for f in tuple_type.field_names):
        raise TypeCheckError(
            f"the distributed join plan expects ⟨key, payload⟩ INT64 relations "
            f"(the paper's 16-byte workload); got {side} = {tuple_type!r}"
        )
    return payloads[0]


class DistributedJoinPlan(DistributedPlan):
    """A ready-to-run distributed join: ``run(left, right, options)``."""

    inputs = ("left", "right")
    matches = staticmethod(DistributedPlan.output)


def build_distributed_join(
    cluster: SimCluster,
    left_type: TupleType,
    right_type: TupleType,
    key: str = "key",
    network_fanout: int | None = None,
    local_fanout: int = 16,
    key_bits: int = 27,
    compression: bool = True,
    join_type: str = "inner",
    algorithm: str = "hash",
) -> DistributedJoinPlan:
    """Assemble the Figure 3 plan for two ⟨key, payload⟩ relations.

    Args:
        cluster: Simulated cluster to run the data-parallel part on.
        left_type / right_type: Tuple types of the build and probe
            relations; one INT64 key field (same name on both sides) and
            one INT64 payload field (distinct names).
        key: Name of the join attribute.
        network_fanout: First-level radix fan-out (power of two); defaults
            to the cluster size, i.e. one network partition per rank.
        local_fanout: Second-level fan-out producing cache-sized
            sub-partitions (power of two).
        key_bits: ``P``: keys and payloads come from a dense ``2**P``
            domain; used by the compression scheme.
        compression: Pack ⟨key, payload⟩ into 8-byte words on the wire,
            halving network volume (paper Section 4.1.1).
        join_type: BuildProbe variant (inner/semi/anti/left_outer).
        algorithm: ``hash`` joins each sub-partition pair with BuildProbe
            (the paper's plan); ``sortmerge`` swaps that one plan fragment
            for LocalSort + MergeJoin — the sort-vs-hash ablation.
    """
    if algorithm not in ("hash", "sortmerge"):
        raise TypeCheckError(f"unknown join algorithm {algorithm!r}")
    n_net, fanout_bits = resolve_network_fanout(cluster, network_fanout)
    left_payload = _two_column_check("left", left_type, key)
    right_payload = _two_column_check("right", right_type, key)
    if left_payload == right_payload:
        raise TypeCheckError(
            f"left and right payload fields must have distinct names, both are "
            f"{left_payload!r}"
        )
    comp = RadixCompression(key_bits, fanout_bits) if compression else None
    net_fn, local_fn = radix_partitioners(key, n_net, local_fanout, comp)
    slot = ParameterSlot(
        TupleType.of(
            left=row_vector_type(left_type), right=row_vector_type(right_type)
        )
    )

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        return partitioned_join(
            [shard_scan(worker_slot, "left"), shard_scan(worker_slot, "right")],
            net_fn,
            local_fn,
            lambda s: _build_sub_partition_plan(
                s, key, left_payload, right_payload, comp, join_type, algorithm
            ),
            sub_data="sdata",
            compression=comp,
            with_partition_id=True,
        )

    return DistributedJoinPlan.assemble(slot, cluster, build_worker)


def _build_sub_partition_plan(
    slot: ParameterSlot,
    key: str,
    left_payload: str,
    right_payload: str,
    comp: RadixCompression | None,
    join_type: str,
    algorithm: str,
) -> Operator:
    """Leaf plan: join one sub-partition pair in memory."""
    left_stream: Operator = field_scan(slot, "sdata_l")
    right_stream: Operator = field_scan(slot, "sdata_r")
    join_key = key
    if comp is not None:
        left_stream = Map(left_stream, _unpack_fn(comp, "ckey", left_payload))
        right_stream = Map(right_stream, _unpack_fn(comp, "ckey", right_payload))
        join_key = "ckey"
    if algorithm == "sortmerge":
        joined: Operator = MergeJoin(
            LocalSort(left_stream, join_key),
            LocalSort(right_stream, join_key),
            key=join_key,
            join_type=join_type,
        )
    else:
        joined = BuildProbe(left_stream, right_stream, keys=join_key, join_type=join_type)
    if comp is not None:
        pid = Projection(ParameterLookup(slot), ["net_l"])
        joined = ParametrizedMap(joined, pid, _recover_fn(comp, key, joined.output_type))
    return MaterializeRowVector(joined, field="matches")


def _unpack_fn(comp: RadixCompression, key_field: str, payload: str) -> TupleFunction:
    """Split a packed word into ⟨compressed key, payload⟩ columns."""
    key_bits = comp.key_bits
    mask = comp.payload_mask

    def scalar(row: tuple) -> tuple:
        packed = row[0]
        return (packed >> key_bits, packed & mask)

    def vectorized(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        packed = columns[0]
        return (packed >> key_bits, packed & mask)

    return TupleFunction(
        scalar, TupleType.of(**{key_field: INT64, payload: INT64}), vectorized
    )


def _recover_fn(
    comp: RadixCompression, key: str, probe_type: TupleType
) -> ParamTupleFunction:
    """Restore the network bits dropped by compression: key = ckey<<F | pid."""
    fanout_bits = comp.fanout_bits
    output_type = probe_type.rename({"ckey": key})

    def scalar(param: tuple, row: tuple) -> tuple:
        return ((row[0] << fanout_bits) | param[0],) + row[1:]

    def vectorized(param: tuple, columns: tuple[np.ndarray, ...]) -> tuple:
        restored = (columns[0] << fanout_bits) | param[0]
        return (restored,) + tuple(columns[1:])

    return ParamTupleFunction(scalar, output_type, vectorized)
