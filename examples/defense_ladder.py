#!/usr/bin/env python3
"""Defense-ladder walkthrough: closed-loop attack mitigation.

Runs the two attack campaigns from the resilience scorecard on the
shrunk (``--fast``) platform and prints what the
:class:`~repro.control.defense.DefenseController` did about them:

* ``defense-ladder`` — an escalating random-subdomain flood aimed at
  the probe zone's anycast cloud. The attack-qps detector raises, the
  ladder climbs rung by rung (tighten penalty queues -> per-source
  rate limiting -> targeted firewall rule -> anycast traffic
  engineering), each rung soaking before the next engages; when the
  flood stops the alert clears and every rung unwinds in reverse
  order — no mitigation is left stuck.

* ``defense-guardrail`` — the same flood at a cloud *outside* the
  probe zone's delegation, with a deliberately over-broad firewall
  rung (it drops the probe zone itself) prepended to the ladder. The
  collateral-damage guardrail measures known-resolver loss under the
  rung, sees the cure shedding more good traffic than the attack did,
  auto-reverts the rung and latches it out for a cool-off — then the
  safe rungs climb as usual.

Everything is seeded; re-running reproduces every transition exactly.

Run:  python examples/defense_ladder.py
"""

from repro.experiments.resilience_scorecard import (
    SUITES,
    ScorecardParams,
    run_campaign,
)


def main() -> None:
    params = ScorecardParams.fast(42)

    for wanted in ("defense-ladder", "defense-guardrail"):
        entry = next(e for e in SUITES["standard"] if e.name == wanted)
        print(f"== {entry.name}")
        print("   running (fresh deployment, ~a minute)...")
        outcome = run_campaign(params, entry)
        print(f"   {outcome.campaign.description}")

        print("\n   fault timeline:")
        for line in outcome.fault_log.splitlines():
            print(f"     {line}")
        print("\n   ladder transitions:")
        for line in outcome.defense_timeline:
            print(f"     {line}")

        report = outcome.report
        print(f"\n   attack detected after    "
              f"{outcome.defense_attack_detect_seconds:.1f}s "
              f"(attack-qps alert)")
        print(f"   highest escalation level {outcome.defense_max_level} "
              f"(final {outcome.defense_final_level})")
        print(f"   guardrail reverts        {outcome.defense_reverts}")
        if (outcome.defense_unwound_at is not None
                and outcome.defense_attack_end is not None):
            print(f"   fully unwound            "
                  f"{outcome.defense_unwound_at - outcome.defense_attack_end:.1f}s "
                  f"after the flood stopped")
        print(f"   overall availability     "
              f"{report.overall_availability:.1%} "
              f"(worst window {report.worst_window_availability:.0%})\n")


if __name__ == "__main__":
    main()
