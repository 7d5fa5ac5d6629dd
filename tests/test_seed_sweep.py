"""``verify``'s rows on 40 seeds of the window stream, not only the pinned one.

``verification.RNG_SEED`` seeds the stream that the sampled rows draw their
windows from, and the inference round trip's. The pinned CSVs hold seed 0.
This sweep runs every row of ``ALL_CHECKS`` on seeds 0..39 at N = 2..8, so
a defect that most draws expose cannot hide behind the one seed ``verify``
runs.
"""

import pytest

from openqnet import NetworkParams, verification

SEEDS = range(40)
SIZES = range(2, 9)

# ROADMAP item 4: a containing-class K = N/2 window whose t1 lies near an odd
# half-period, accepted by the anchor test, loses accuracy in the flow
# weight. Only even N has such a K, and on some seeds the stream draws one:
# completeness fails on 16 of 40 seeds at N = 2 and 3 of 40 at N = 8.
KNOWN_FAILURES = {
    (row, n) for row in ("propagator_completeness", "tomography_containing") for n in (2, 4, 6, 8)
}
ITEM_4 = pytest.mark.xfail(
    strict=True,
    reason="the flow weight near K = N/2 anchors loses accuracy (ROADMAP item 4)",
)


def _name(check) -> str:
    # A Row's name, or a function row's name without its check_ prefix.
    return check.name if isinstance(check, verification.Row) else check.__name__[len("check_") :]


PAIRS = [
    pytest.param(
        check,
        n,
        id=f"{_name(check)}-N{n}",
        marks=[ITEM_4] if (_name(check), n) in KNOWN_FAILURES else [],
    )
    for check in verification.ALL_CHECKS
    for n in SIZES
]


@pytest.mark.parametrize("check, n", PAIRS)
def test_every_row_passes_on_every_seed(check, n, monkeypatch):
    params = NetworkParams(n, 1.0)
    failed = []
    for seed in SEEDS:
        monkeypatch.setattr(verification, "RNG_SEED", seed)
        result = check(params)
        if not result.passed:
            failed.append((seed, result.value, verification.describe_case(result.worst_at)))
    assert failed == []
