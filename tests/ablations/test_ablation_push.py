"""Ablation: Two-Tier answer push (paper section 5.2, "Improvements").

The paper observes that Two-Tier costs extra whenever a resolver must
query both tiers in one resolution; if the toplevel referral could also
*push* the answer (a DNS protocol change, now possible with
DNS-over-HTTPS server push), Two-Tier would be beneficial whenever
L < T — for 87-98% of resolvers. This ablation computes the figure-11
speedup with and without push on the same measured (T, L, rT) dataset.
"""

import numpy as np
from .conftest import report

from repro.analysis.report import ExperimentResult
from repro.experiments.fig11_speedup import (
    Fig11Params,
    build_dataset,
    speedups,
)


def push_speedups(dataset) -> dict[str, np.ndarray]:
    """Speedup when toplevel referrals also carry the answer.

    With push, a resolution that consults the toplevel finishes in T
    (the lowlevel query is avoided): average time becomes
    (1-rT)*L + rT*T, so S = T / ((1-rT)*L + rT*T).
    """
    out = {}
    for label, T in (("avg", dataset.avg_T), ("wgt", dataset.wgt_T)):
        denom = (1.0 - dataset.r_t) * dataset.L + dataset.r_t * T
        out[label] = T / denom
    return out


def test_answer_push_extension():
    dataset = build_dataset(Fig11Params())
    baseline = speedups(dataset)
    pushed = push_speedups(dataset)
    result = ExperimentResult(
        "ablation-push", "Two-Tier with toplevel answer push")
    for label in ("avg", "wgt"):
        frac_base = float(np.mean(baseline[label] > 1.0))
        frac_push = float(np.mean(pushed[label] > 1.0))
        result.metrics[f"speedup_gt1_{label}_baseline"] = frac_base
        result.metrics[f"speedup_gt1_{label}_push"] = frac_push
        result.compare(
            f"push never slower than baseline ({label} RTT)",
            "S_push >= S", "elementwise",
            bool(np.all(pushed[label] >= baseline[label] - 1e-12)))
    # "Two-Tier would always be beneficial when L < T" — S >= 1
    # wherever L < T, with equality only at the rT = 1 boundary
    # (a resolver that contacts the toplevels every time neither
    # gains nor loses under push).
    l_lt_t = dataset.L < dataset.wgt_T
    never_hurt = float(np.mean(pushed["wgt"][l_lt_t] >= 1.0 - 1e-12))
    strictly_better = float(np.mean(
        pushed["wgt"][l_lt_t & (dataset.r_t < 1.0)] > 1.0))
    result.metrics["push_never_hurts_where_L_lt_T"] = never_hurt
    result.metrics["push_strict_win_rT_lt_1"] = strictly_better
    result.compare("push: S >= 1 wherever L < T",
                   "always beneficial when L < T",
                   f"{never_hurt:.0%}", never_hurt >= 0.999)
    result.compare("push: strict win whenever rT < 1 and L < T",
                   "S > 1", f"{strictly_better:.0%}",
                   strictly_better >= 0.999)
    improvement = float(np.mean(pushed["wgt"] / baseline["wgt"]))
    result.metrics["mean_improvement_wgt"] = improvement
    result.compare("push improves the mean speedup",
                   "> 1x", f"{improvement:.2f}x", improvement > 1.0)
    report(result)
