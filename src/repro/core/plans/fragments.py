"""Reusable plan fragments: the compositions the paper's plans share (§3.1).

Every distributed plan in this library — the four hand-built plans of
Section 4 and the SQL lowering of §4.4 — is assembled from the fragments
below, so each recurring sub-operator composition is written exactly once:

* :func:`shard_scan` / :func:`field_scan` — read a plan input, split by
  rank, or one field of a nested plan's parameter tuple;
* :func:`side_exchange` — the Figure 3 network partitioning ladder
  ``LocalHistogram → MpiHistogram → MpiExchange``;
* :func:`sub_partition` — the cache-sized second partitioning pass;
* :func:`nested_level` — ``NestedMap → RowScan`` with an optional
  post-aggregation on the way out (§4.3);
* :func:`partitioned_join` — the k-way two-level join shape of Figures 3,
  4 and 5, with a caller-supplied leaf plan;
* :func:`pair_probe` / :func:`cascade_probe` — the two leaf join shapes;
* :func:`broadcast_build` — replicate one side to every rank;
* :func:`mpi_driver` — the driver-side ``MpiExecutor`` wrapper;
* :class:`DistributedPlan` — the ready-to-run plan the builders return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, Sequence

from repro.core.compression import RadixCompression
from repro.core.executor import ExecutionReport, execute
from repro.core.functions import PartitionFunction, RadixPartition
from repro.core.operator import Operator
from repro.core.operators import (
    BuildProbe,
    CartesianProduct,
    LocalHistogram,
    LocalPartitioning,
    MaterializeRowVector,
    MpiBroadcast,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    Projection,
    RowScan,
    Zip,
)
from repro.core.options import UNSET, RunOptions, coerce_options
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = [
    "DistributedPlan",
    "broadcast_build",
    "cascade_probe",
    "field_scan",
    "mpi_driver",
    "nested_level",
    "pair_probe",
    "partitioned_join",
    "radix_partitioners",
    "resolve_network_fanout",
    "shard_scan",
    "side_exchange",
    "sub_partition",
]

#: Builds a fresh partition function; every side gets its own instance,
#: because ``bind()`` caches the key position of the stream it serves.
PartitionFactory = Callable[[], PartitionFunction]
Merge = Callable[[Operator], Operator]


def resolve_network_fanout(cluster: SimCluster, requested: int | None) -> tuple[int, int]:
    """Resolve the radix network fan-out: ``(n_partitions, fanout_bits)``.

    Defaults to one network partition per rank, rounded up to a power of two.
    """
    n_net = requested or 1 << (cluster.n_ranks - 1).bit_length()
    if n_net & (n_net - 1):
        raise TypeCheckError(f"network fan-out must be a power of two, got {n_net}")
    return n_net, n_net.bit_length() - 1


def radix_partitioners(
    key: str, n_net: int, local_fanout: int,
    compression: RadixCompression | None = None,
) -> tuple[PartitionFactory, PartitionFactory]:
    """The network and sub-partition radix functions of Figures 3 and 5."""
    if compression is not None:
        # The wire carries packed words whose low ``key_bits`` are the
        # payload; the compressed key (network bits already dropped)
        # starts right above them.
        local = partial(
            RadixPartition, "packed", local_fanout, shift=compression.key_bits
        )
    else:
        # Sub-partition on the key bits right above the network bits.
        local = partial(RadixPartition, key, local_fanout, shift=n_net.bit_length() - 1)
    return partial(RadixPartition, key, n_net), local


def shard_scan(slot: ParameterSlot, field: str) -> RowScan:
    """Scan plan input ``field``, each rank reading its own shard."""
    return RowScan(
        Projection(ParameterLookup(slot), [field]), field=field, shard_by_rank=True
    )


def field_scan(slot: ParameterSlot, field: str) -> RowScan:
    """Scan one collection field of a nested plan's parameter tuple."""
    return RowScan(Projection(ParameterLookup(slot), [field]))


def side_exchange(
    stream: Operator,
    partition_fn: PartitionFunction,
    id_field: str,
    data_field: str,
    compression: RadixCompression | None = None,
) -> MpiExchange:
    """Network-partition one side: LocalHistogram → MpiHistogram → MpiExchange."""
    local_hist = LocalHistogram(stream, partition_fn)
    global_hist = MpiHistogram(local_hist, partition_fn.n_partitions)
    return MpiExchange(
        stream, local_hist, global_hist, partition_fn,
        compression=compression, id_field=id_field, data_field=data_field,
    )


def sub_partition(
    slot: ParameterSlot,
    data_field: str,
    partition_fn: PartitionFunction,
    id_field: str,
    sub_data: str,
) -> LocalPartitioning:
    """Split one network partition into cache-sized sub-partitions."""
    stream = field_scan(slot, data_field)
    hist = LocalHistogram(stream, partition_fn)
    # The second-pass histogram is part of the local-partitioning phase in
    # the paper's accounting (it feeds the in-memory scatter).
    hist.phase_name = "local_partition"
    return LocalPartitioning(
        stream, hist, partition_fn, id_field=id_field, data_field=sub_data
    )


def nested_level(
    upstream: Operator,
    build_inner: Callable[[ParameterSlot], Operator],
    merge: Merge | None = None,
    materialize: bool = False,
) -> Operator:
    """Run a nested plan per tuple and flatten its results (§3.3.1).

    ``merge`` post-aggregates the partial results at this nesting boundary
    (§4.3); ``materialize`` packs the stream back into the nested plan's
    collection field, as a nested plan's root must.
    """
    flat = RowScan(NestedMap(upstream, build_inner))
    stream = flat if merge is None else merge(flat)
    return MaterializeRowVector(stream, field=flat.field) if materialize else stream


def _zip(streams: Sequence[Operator]) -> Operator:
    return streams[0] if len(streams) == 1 else Zip(streams)


def partitioned_join(
    streams: Sequence[Operator],
    net_fn: PartitionFactory,
    local_fn: PartitionFactory,
    leaf: Callable[[ParameterSlot], Operator],
    sub_data: str = "sd",
    merge: Merge | None = None,
    compression: RadixCompression | None = None,
    with_partition_id: bool = False,
    suppress: tuple[str, ...] = (),
) -> Operator:
    """The two-level partitioned plan of Figures 3–5 over k streams.

    Every stream is network-partitioned by :func:`side_exchange` and the
    corresponding partitions are zipped; a first nesting level
    sub-partitions each side and zips the sub-partitions; the caller's
    ``leaf`` plan then runs once per sub-partition tuple.  Fields are
    suffixed ``_l``/``_r`` for two streams, ``0…k-1`` for more, and not at
    all for one: stream ``x`` arrives as ``net{x}``/``data{x}`` and its
    sub-partitions as ``sub{x}``/``{sub_data}{x}``.

    Args:
        merge: Post-aggregation applied at both nesting boundaries.
        compression: Radix compression of every exchange.
        with_partition_id: Pair each sub-partition tuple with the network
            partition id (``net`` of the first stream), which the leaf
            needs to undo compression.
        suppress: Analyzer rules silenced on every exchange.
    """
    k = len(streams)
    suffixes = ("",) if k == 1 else ("_l", "_r") if k == 2 else tuple(map(str, range(k)))
    exchanged = []
    for stream, x in zip(streams, suffixes):
        exchange = side_exchange(stream, net_fn(), f"net{x}", f"data{x}", compression)
        exchanged.append(exchange.suppress(*suppress) if suppress else exchange)

    def first_level(slot: ParameterSlot) -> Operator:
        parts = _zip([
            sub_partition(slot, f"data{x}", local_fn(), f"sub{x}", f"{sub_data}{x}")
            for x in suffixes
        ])
        if with_partition_id:
            pid = Projection(ParameterLookup(slot), [f"net{suffixes[0]}"])
            parts = CartesianProduct(pid, parts)
        return nested_level(parts, leaf, merge, materialize=True)

    return nested_level(_zip(exchanged), first_level, merge)


def pair_probe(slot: ParameterSlot, key: str, join_type: str = "inner") -> BuildProbe:
    """Join one ``sd_l``/``sd_r`` sub-partition pair: build left, probe right."""
    return BuildProbe(
        field_scan(slot, "sd_l"), field_scan(slot, "sd_r"), keys=key,
        join_type=join_type,
    )


def cascade_probe(slot: ParameterSlot, key: str, k: int) -> Operator:
    """Chain BuildProbes over sub-partitions ``sd0…sd{k-1}`` (Figure 4).

    Each incoming relation is the build side and the running cascade output
    the probe side, so intermediate results stream without materializing.
    """
    stream: Operator = field_scan(slot, "sd0")
    for i in range(1, k):
        stream = BuildProbe(field_scan(slot, f"sd{i}"), stream, keys=key)
    return stream


def broadcast_build(stream: Operator, key: str) -> MpiBroadcast:
    """Replicate ``stream`` to every rank.

    The broadcast consumes a single-bucket histogram pair: how many tuples
    each rank contributes, and the global total.
    """
    local_count = LocalHistogram(stream, RadixPartition(key, 1))
    global_count = MpiHistogram(local_count, 1)
    return MpiBroadcast(stream, local_count, global_count)


def mpi_driver(
    slot: ParameterSlot,
    cluster: SimCluster,
    build_worker: Callable[[ParameterSlot], Operator],
    finish: Merge | None = None,
) -> tuple[Operator, MpiExecutor]:
    """Run ``build_worker``'s stream on every rank and collect it.

    ``MpiExecutor → RowScan → MaterializeRowVector`` on the driver, with an
    optional ``finish`` (final post-aggregation, ordering, …) before the
    materialization.  Returns the plan root and the executor.
    """
    executor = MpiExecutor(
        ParameterLookup(slot),
        lambda s: MaterializeRowVector(build_worker(s), field="result"),
        cluster,
    )
    flat = RowScan(executor, field="result")
    stream = flat if finish is None else finish(flat)
    return MaterializeRowVector(stream, field="result"), executor


@dataclass
class DistributedPlan:
    """A ready-to-run distributed plan plus its binding points."""

    root: Operator
    slot: ParameterSlot
    executor: MpiExecutor
    output_type: TupleType
    cluster: SimCluster

    #: The relations ``run`` takes, in slot order.
    inputs: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def assemble(
        cls,
        slot: ParameterSlot,
        cluster: SimCluster,
        build_worker: Callable[[ParameterSlot], Operator],
        finish: Merge | None = None,
        **extra,
    ):
        """Wrap a per-rank worker plan in :func:`mpi_driver`."""
        root, executor = mpi_driver(slot, cluster, build_worker, finish)
        return cls(root, slot, executor, root.output_type, cluster, **extra)

    def run(
        self,
        *relations,
        options: RunOptions | None = None,
        mode=UNSET,
        profile=UNSET,
        metrics=UNSET,
        faults=UNSET,
        sanitize=UNSET,
    ) -> ExecutionReport:
        """Execute on driver-resident relations: ``run(*inputs, options)``."""
        api = f"{type(self).__name__}.run()"
        if len(relations) == len(self.inputs) + 1 and options is None:
            *relations, options = relations
        if len(relations) != len(self.inputs):
            raise TypeError(f"{api} takes the relations {self.inputs}")
        options = coerce_options(
            options, api, mode=mode, profile=profile, metrics=metrics,
            faults=faults, sanitize=sanitize,
        )
        params = {self.slot: self._bind(*relations)}
        return execute(self.root, params=params, options=options)

    def _bind(self, *relations) -> tuple:
        return relations

    @staticmethod
    def output(result: ExecutionReport) -> RowVector:
        """Extract the materialized plan output from an execution result."""
        (row,) = result.rows
        return row[0]
