"""Regenerate the measured numbers recorded in EXPERIMENTS.md.

Runs every claim of :mod:`repro.sim.claims` at its report sizes and prints
its tables under the paper's statement; the output is what
EXPERIMENTS.md's "measured" columns quote.  Lives inside the package so
``python -m repro report`` works from an installed wheel, not just a
source checkout.
"""

from __future__ import annotations

from repro.obs import get_logger, metrics

logger = get_logger(__name__)


def _banner(msg: str) -> None:
    print("\n" + "=" * 72)
    print(msg)
    print("=" * 72)


def generate_report() -> None:
    """Run the full experiment suite and print every table to stdout."""
    from repro.sim.claims import CLAIMS
    from repro.sim.theory import fit_gain_model, paper_implied_k_summary

    report_timer = metrics.timer("report.generate_s").start()
    logger.info("regenerating all EXPERIMENTS.md tables (full scale)")

    for claim in CLAIMS.values():
        if claim.report is None:
            continue
        if claim.title:
            _banner(claim.title)
        else:
            print()
        print(claim.render(claim.result(**claim.report)))
        print(f"(paper: {claim.paper})")

    _banner("Theory — the paper's gain model fitted to our Fig. 9 (high SNR)")
    fig9_claim = CLAIMS["fig9"]
    fig9 = fig9_claim.result(**fig9_claim.report)  # the memoized Fig. 9 run above
    gains = [fig9.median_gain("high", n) for n in (4, 6, 8, 10)]
    fit = fit_gain_model([4, 6, 8, 10], gains, 22.0)
    print(fit.format_table())
    print("K implied by the paper's own gains:")
    for label, k in paper_implied_k_summary().items():
        print(f"  {label}: K = {k:.2f} dB")

    print(f"\ntotal runtime: {report_timer.stop():.0f} s")
