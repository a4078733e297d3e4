"""``python -m bench`` --- run the benchmark, or compare two result files.

Three forms:

* ``python -m bench [--workload NAME] [--seed N] [--reps N] [--traced]
  [--smoke] [--out FILE]`` runs the selected workloads (default: all
  four), each in fresh interpreters, prints every metric by name with
  its unit, writes the result file and exits non-zero on any failed
  check.
* ``python -m bench --workload NAME --seed N --seconds S --trace 0|1`` is
  what the first form runs per workload and what the driver runs
  (BENCHMARK.json ``command``): it measures in this interpreter and ends
  with one JSON line of ``correct / attempted / failed / metrics``.
* ``python -m bench compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from bench import ROOT, SRC, scratch_dir, spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--reps", type=int,
                        help=f"measured repetitions (default "
                             f"{spec.DEFAULT_REPS}; 1 with --smoke)")
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of --reps")
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced repetition and the "
                             "micro-drivers (per-layer metrics)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure in this interpreter and end with the "
                             "driver's JSON line: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizing (<=2 simulated seconds, 1 rep)")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _need_program() -> None:
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: the program under test is missing ({SRC}/repro)")
    sys.path.insert(0, str(SRC))


def _render(record: dict) -> List[str]:
    lines = [f"== {record['workload']}  seed={record['seed']}  "
             f"fingerprint={record['sim_fingerprint']}"]
    for section in ("end_to_end", "per_layer"):
        for name, entry in record.get(section, {}).items():
            line = f"  {name:46s} {entry['value']:>16.6g} {entry['unit']}"
            if "q1" in entry:
                line += (f"   [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                         f"  n={entry['n']}  raw {entry['raw']:.6g}]")
            lines.append(line)
    lines.append(f"  attempted={record['attempted']} failed={record['failed']}")
    lines.extend(f"  FAILED {failure}" for failure in record["failures"])
    return lines


def _probe_setup(args: argparse.Namespace, started: float) -> int:
    """One ``setup_s`` sample: cold import of the experiment stack plus
    one build-and-train-only cell, timed from before the first import.
    Imports nothing of ``bench`` that would load more of ``repro`` than
    running an experiment does."""
    _need_program()
    from repro.harness.experiment import run_experiment
    if args.workload == "sweep_grid":
        import repro.harness.parallel  # noqa: F401
    from bench import workloads
    run_experiment(workloads.build_train_only(
        workloads.build(args.workload, args.seed))[0])
    print(repr(time.perf_counter() - started))
    return 0


def _worker(args: argparse.Namespace) -> int:
    """Measure one workload here; the driver's form."""
    if args.workload is None:
        sys.exit("bench: --trace needs --workload")
    _need_program()
    from bench import runner
    record = runner.measure(args.workload, args.seed, trace=bool(args.trace),
                            smoke=args.smoke, seconds=args.seconds,
                            reps=args.reps)
    print("\n".join(_render(record)))
    if args.out:
        _write(args, [record])
    section = record.get("per_layer" if args.trace else "end_to_end")
    if section is None:
        return 1  # nothing measured; the failures are printed above
    wanted = {m.name for m in (spec.PER_LAYER if args.trace
                               else spec.gated_end_to_end())}
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in section.items() if name in wanted}}))
    return 0 if correct else 1


def _write(args: argparse.Namespace, records: List[dict]) -> None:
    """The result file: machine context first, then one record per
    workload."""
    from bench import runner
    calib = [r["bench.calib_spin_ns"] for r in records
             if r["bench.calib_spin_ns"] is not None]
    with open(args.out, "w") as handle:
        json.dump({
            "environment": runner.environment(
                args.seed, args.reps, args.seconds,
                statistics.median(calib) if calib else None),
            "workloads": {r["workload"]: r for r in records},
        }, handle, indent=1)
        handle.write("\n")


def _run_workload(name: str, args: argparse.Namespace, scratch: Path
                  ) -> dict:
    """One workload's record: the untraced worker, then (``--traced``)
    the traced one, each a fresh interpreter."""
    parts = []
    for trace in (0, 1) if args.traced else (0,):
        out = scratch / f"{name}-{trace}.json"
        command = [sys.executable, "-m", "bench", "--workload", name,
                   "--seed", str(args.seed), "--trace", str(trace),
                   "--out", str(out)]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE)
        # Everything but the driver's JSON line.
        print("\n".join(line for line in done.stdout.splitlines()
                        if not line.startswith('{"correct"')), flush=True)
        if not out.exists():
            sys.exit(f"bench: {name} --trace {trace} exited "
                     f"{done.returncode} without a record")
        parts.append(json.loads(out.read_text())["workloads"][name])
    return _merge(*parts) if len(parts) == 2 else parts[0]


def _suite(args: argparse.Namespace) -> int:
    """Run each workload in fresh interpreters and merge the records."""
    _need_program()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    with scratch_dir("suite") as scratch:
        records = [_run_workload(name, args, scratch) for name in names]
    if args.out:
        _write(args, records)
    print("== summary")
    for record in records:
        print(f"  {record['workload']:16s} "
              f"failed_share={record['failed'] / record['attempted']:g}  "
              f"fingerprint={record['sim_fingerprint']}")
    return 1 if any(record["failed"] for record in records) else 0


def _merge(untraced: dict, traced: dict) -> dict:
    """One record per workload: end-to-end from the untraced run,
    per-layer and spans from the traced one, failures from both."""
    merged = {**traced, **untraced}
    merged["attempted"] = untraced["attempted"] + traced["attempted"]
    merged["failed"] = untraced["failed"] + traced["failed"]
    merged["failures"] = untraced["failures"] + traced["failures"]
    if untraced["sim_fingerprint"] != traced["sim_fingerprint"]:
        # Two interpreters, one seed: they must have simulated the same.
        merged["attempted"] += 1
        merged["failed"] += 1
        merged["failures"].append(
            "traced sim_fingerprint differs from the untraced one")
    if "end_to_end" in merged:
        merged["end_to_end"]["failed_share"]["value"] = \
            merged["failed"] / merged["attempted"]
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench import compare
        return compare.main(argv[1:])
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes, and dict layouts with them, are randomised per
        # interpreter: the same cell runs up to 7 % faster or slower
        # from one process to the next.  Pin them, here and in every
        # interpreter started from here.
        os.execve(sys.executable, [sys.executable, "-m", "bench", *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    started = time.perf_counter()  # before the experiment stack loads
    args = _parser().parse_args(argv)
    if args.probe_setup:
        return _probe_setup(args, started)
    if args.reps is None and args.seconds is None:
        args.reps = 1 if args.smoke else spec.DEFAULT_REPS
    if args.trace is not None:
        return _worker(args)
    return _suite(args)


if __name__ == "__main__":
    sys.exit(main())
