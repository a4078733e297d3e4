#!/usr/bin/env python3
"""Section 4 in action: YDS, OA, and idealized POLARIS on one instance.

Builds a small standard-model instance, runs all three algorithms, and
prints their schedules and energies --- including the adversarial
two-job instance of Section 4.6 where non-preemption costs POLARIS a
factor approaching ``c^alpha``.

    python examples/theory_competitive.py
"""

import random

from repro.theory import (
    adversarial_pair, oa_schedule, polaris_ideal_schedule,
    random_agreeable_instance, yds_schedule,
)
from repro.theory.yds import yds_energy

ALPHA = 3.0


def describe(name, schedule, instance):
    energy = schedule.energy(ALPHA)
    print(f"  {name:8s} energy={energy:10.4f}  "
          f"max speed={schedule.max_speed():6.3f}  "
          f"segments={len(schedule.segments)}")
    return energy


def main() -> None:
    rng = random.Random(7)

    print("Agreeable instance (Theorem 4.3: POLARIS behaves exactly "
          "like OA):")
    inst = random_agreeable_instance(8, rng)
    yds = yds_schedule(inst)
    yds.check_feasible(inst)
    e_yds = describe("YDS", yds, inst)
    e_oa = describe("OA", oa_schedule(inst), inst)
    polaris = polaris_ideal_schedule(inst)
    polaris.check_feasible(inst, preemptive=False)
    e_p = describe("POLARIS", polaris, inst)
    print(f"  POLARIS/OA = {e_p / e_oa:.6f} (Thm 4.3: 1.0);"
          f"  OA/YDS = {e_oa / e_yds:.3f} "
          f"(bound alpha^alpha = {ALPHA ** ALPHA:.0f})")
    print()

    print("Adversarial pair (Section 4.6: the cost of non-preemption):")
    pair = adversarial_pair()
    e_yds = yds_energy(pair, ALPHA)
    polaris = polaris_ideal_schedule(pair)
    polaris.check_feasible(pair, preemptive=False)
    e_p = polaris.energy(ALPHA)
    c = pair.c_factor()
    print(f"  YDS energy     = {e_yds:.4f}")
    print(f"  POLARIS energy = {e_p:.4f}")
    print(f"  ratio          = {e_p / e_yds:.3g}")
    print(f"  c^alpha        = {c ** ALPHA:.3g}   "
          f"(c = 1 + w_max/w_min = {c:.0f})")
    print(f"  (c*alpha)^alpha bound of Corollary 4.6 = "
          f"{(c * ALPHA) ** ALPHA:.3g}")
    print()
    print("A tiny urgent job arriving just after a huge lazy one forces")
    print("non-preemptive POLARIS to push both loads through the tight")
    print("deadline; preemptive YDS simply pauses the big job.")


if __name__ == "__main__":
    main()
