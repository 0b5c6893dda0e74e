"""Lifecycle replay determinism: same config, same outcomes.

Every lifecycle decision — deadline misses, cancels, retries, breaker
trips, shed/reject admissions — is driven by the simulated clock and
the submission sequence, never wall time.  So for any soak
configuration the *set of lifecycle outcomes per submission index* must
be identical across runs, no matter how the scheduler's worker threads
interleave.  This sweep drives that invariant across the configuration
space with hypothesis.

Frame verification is off (`verify_frames=False`): bit-identity is the
soak's own gate (``tests/test_serving_soak.py``); here only the
lifecycle id sets, the ledger's conservation invariant, and the
agreement of the journal folds (ledger, ``HandleStats``) with the
journals and the scheduler's counters are asserted, which keeps each
example to two small soak runs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import SoakConfig, run_soak
from repro.serving.soak import CHAOS_PROFILES

SF = 0.002

lifecycle_configs = st.fixed_dictionaries(
    {
        "chaos": st.sampled_from(CHAOS_PROFILES),
        "retries": st.integers(min_value=0, max_value=2),
        "cancel_every": st.sampled_from((0, 2, 3)),
        "deadline": st.sampled_from((None, 1e-6, 1e3)),
        "shed_threshold": st.sampled_from((1.0, 0.5)),
    }
)


def _lifecycle_of(kwargs: dict):
    report = run_soak(
        SoakConfig(
            scale_factor=SF,
            n_queries=6,
            n_workers=3,
            verify_frames=False,
            **kwargs,
        )
    )
    assert report.reconciliation_errors() == []
    assert report.journal_errors() == []
    # HandleStats is a fold over the journals: every settlement of every
    # handle lands in exactly one terminal bucket.
    handles = {journal.handle for journal in report.journals}
    assert set(report.handle_stats) == handles
    for handle in handles:
        journals = [j for j in report.journals if j.handle == handle]
        terminals = report.handle_stats[handle].terminals
        assert sum(terminals.values()) == len(journals), handle
    return report.lifecycle


@given(config=lifecycle_configs)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_lifecycle_outcomes_replay_exactly(config):
    assert _lifecycle_of(config) == _lifecycle_of(config)


def test_all_submissions_accounted_for_across_profiles():
    # Denser, example-free spot check: every submission index lands in
    # exactly one lifecycle bucket whatever the chaos profile.
    for profile in CHAOS_PROFILES:
        lifecycle = _lifecycle_of(
            {"chaos": profile, "retries": 1, "cancel_every": 3}
        )
        settled = sorted(
            index
            for kind, indices in lifecycle.items()
            if kind != "retried"  # retried overlaps its terminal bucket
            for index in indices
        )
        assert settled == list(range(6)), profile
