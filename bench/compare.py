"""``python -m bench compare A.json B.json`` --- base A against change B.

One row per (workload, end-to-end metric) with both medians, A's
quartiles, the ratio B/A (base: A), the metric's bound and a verdict:

* ``worse``  --- B's median is worse than A's by more than the bound;
* ``better`` --- better by more than the bound;
* ``same``   --- within the bound;
* ``unresolved`` --- beyond the bound, but A's own quartiles are further
  apart than the bound and the two sets of samples overlap, so the run-
  to-run spread could explain it.

Per-layer deltas are listed underneath (no verdict: they have no
bound), and ``sim_fingerprint`` equality is stated per workload.  Exits
non-zero on any ``worse`` row or a higher ``failed_share``.

One pair of files is one comparison.  To *claim* a gain, run at least
ten alternating pairs (README, "Parent versus change").
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from bench import spec


def verdict(metric: spec.EndToEnd, a: dict, b: dict) -> str:
    """Judge B's entry against A's for one metric."""
    base, change = a["value"], b["value"]
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (change - base)
    allowed = metric.bound if metric.absolute else metric.bound * abs(base)
    if abs(worse_by) <= allowed:
        return "same"
    a_samples = a.get("samples", [base])
    b_samples = b.get("samples", [change])
    spread = a.get("q3", base) - a.get("q1", base)
    overlap = min(a_samples) <= max(b_samples) \
        and min(b_samples) <= max(a_samples)
    if spread > allowed and overlap:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    """The report's lines, and whether any row reads ``worse``."""
    lines: List[str] = []
    any_worse = False
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        same_print = wa["sim_fingerprint"] == wb["sim_fingerprint"]
        lines.append(f"== {name}   sim_fingerprint "
                     f"{'identical' if same_print else 'DIFFERS'}")
        lines.append(f"  {'metric':18s} {'A median':>12s} {'[q1':>11s} "
                     f"{'q3]':>11s} {'B median':>12s} {'B/A':>8s} "
                     f"{'bound':>8s}  verdict")
        for metric in spec.END_TO_END:
            ea = wa.get("end_to_end", {}).get(metric.name)
            eb = wb.get("end_to_end", {}).get(metric.name)
            if ea is None or eb is None:
                continue
            outcome = verdict(metric, ea, eb)
            any_worse = any_worse or outcome == "worse"
            ratio = eb["value"] / ea["value"] if ea["value"] else float("nan")
            bound = f"{metric.bound:g}" if metric.absolute \
                else f"{metric.bound:.0%}"
            lines.append(
                f"  {metric.name:18s} {ea['value']:12.6g} "
                f"{ea.get('q1', ea['value']):11.5g} "
                f"{ea.get('q3', ea['value']):11.5g} {eb['value']:12.6g} "
                f"{ratio:8.4f} {bound:>8s}  {outcome}")
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for layer in spec.PER_LAYER:
            if layer.name in la and layer.name in lb:
                va, vb = la[layer.name]["value"], lb[layer.name]["value"]
                ratio = f"{vb / va:8.4f}" if va else "       -"
                lines.append(f"    {layer.name:46s} {va:14.6g} -> "
                             f"{vb:14.6g} {layer.unit:8s} B/A {ratio}")
    return lines, any_worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="change result file")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        lines, any_worse = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
