"""Pre-assembled sub-operator plans for the paper's use cases (Section 4).

Each plan is a composition of the shared fragments in
:mod:`repro.core.plans.fragments`.
"""

from repro.core.plans.broadcast_join import BroadcastJoinPlan, build_broadcast_join
from repro.core.plans.fragments import DistributedPlan
from repro.core.plans.groupby import DistributedGroupByPlan, build_distributed_groupby
from repro.core.plans.join import DistributedJoinPlan, build_distributed_join
from repro.core.plans.join_sequence import JoinSequencePlan, build_join_sequence

__all__ = [
    "BroadcastJoinPlan",
    "build_broadcast_join",
    "DistributedPlan",
    "DistributedGroupByPlan",
    "build_distributed_groupby",
    "DistributedJoinPlan",
    "build_distributed_join",
    "JoinSequencePlan",
    "build_join_sequence",
]
