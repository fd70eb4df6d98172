"""The paper's quantitative claims, asserted end to end.

Every check of :mod:`repro.sim.claims` runs here, at the exact seed and
sizes the table pins it to: the named tests below, then every other check
through ``test_claim``.  Checks share memoized runner calls, so each
distinct call runs once per session.  EXPERIMENTS.md records the numbers
``repro report`` prints at full scale.
"""

import pytest

from repro.sim.claims import CLAIMS


def _verify(key: str, check: str) -> None:
    claim = CLAIMS[key]
    assert claim.holds(check), f"{key}: {check} at {claim.check(check).call}"


class _ClaimTests:
    claim: str

    def verify(self, check: str) -> None:
        _verify(self.claim, check)


class TestFig6Claims(_ClaimTests):
    claim = "fig6"

    def test_035_rad_costs_8db_at_20db_snr(self):
        self.verify("035_rad_costs_8db_at_20db_snr")

    def test_loss_monotonic_and_snr_ordering(self):
        self.verify("loss_monotonic_and_snr_ordering")


class TestFig7Claims(_ClaimTests):
    claim = "fig7"

    def test_misalignment_distribution(self):
        self.verify("misalignment_distribution")


class TestFig8Claims(_ClaimTests):
    claim = "fig8"

    def test_inr_below_1_5db_and_slope(self):
        self.verify("inr_below_1_5db_and_slope")


class TestFig9Claims(_ClaimTests):
    claim = "fig9"

    def test_linear_scaling(self):
        self.verify("linear_scaling")

    def test_baseline_flat(self):
        self.verify("baseline_flat")

    def test_median_gain_at_10_aps(self):
        self.verify("median_gain_at_10_aps")

    def test_baseline_absolute_levels(self):
        self.verify("baseline_absolute_levels")


class TestFig11Claims(_ClaimTests):
    claim = "fig11"

    def test_dead_spot_revival(self):
        self.verify("dead_spot_revival")

    def test_gain_largest_at_low_snr(self):
        self.verify("gain_largest_at_low_snr")

    def test_more_aps_never_hurt(self):
        self.verify("more_aps_never_hurt")


class TestFig12Claims(_ClaimTests):
    claim = "fig12"

    def test_80211n_compat_gains(self):
        self.verify("80211n_compat_gains")


class TestFig12SampleLevelClaims(_ClaimTests):
    claim = "fig12_sample_level"

    def test_real_waveform_gains_in_band(self):
        self.verify("real_waveform_gains_in_band")


_NAMED = {
    (cls.claim, name[len("test_"):])
    for cls in _ClaimTests.__subclasses__()
    for name in vars(cls)
    if name.startswith("test_")
}
_OTHERS = [
    (claim.key, check.name)
    for claim in CLAIMS.values()
    for check in claim.checks
    if (claim.key, check.name) not in _NAMED
]


@pytest.mark.parametrize(
    "key, check", _OTHERS, ids=[f"{key}-{check}" for key, check in _OTHERS]
)
def test_claim(key, check):
    _verify(key, check)
