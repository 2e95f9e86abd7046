"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mb-connected --seed 1 --seconds 30 --trace 0

With --trace 0 the workload repeats whole rounds of its fixed operations for
about --seconds seconds and reports the end-to-end metrics of BENCHMARK.json,
each operation scaled to the reference speed by a kernel timed around and
during it, and taken at its middle mean over the rounds (see README.md).  With
--trace 1 it plays one untraced round and one traced round and reports the
per-layer metrics.  Either way every round's
outputs are checked, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Details, digests and
spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness

WORKLOADS = ("mb-connected", "mb-free", "search", "tournament-jobs")


def _make(name: str, seed: int):
    if name in ("mb-connected", "mb-free"):
        from games import GameWorkload

        return GameWorkload(name, seed)
    if name == "search":
        from search import SearchWorkload

        return SearchWorkload(seed)
    from tournament import TournamentWorkload

    return TournamentWorkload(seed)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = harness.process_start()
    args = _parse(argv)
    # the CPU's speed state while setting up, which the run's later samples miss
    setup_kernel_s = harness.speed_sample(10)
    try:
        harness.import_oddcycle()
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    except (harness.SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(parents=True, exist_ok=True)
    workload = _make(args.workload, args.seed)
    workload.setup()
    setup_done = harness.boot_clock()

    layer = None
    if args.trace:
        baseline = workload.run_round()
        traced = workload.traced_round(baseline)
        rounds = [baseline, traced]
        layer = traced.pop("layer")
        layer.setdefault("trace.overhead_s", traced["wall"] - baseline["wall"])
        tracer = traced.pop("tracer", None)  # the search child writes its own spans
        if tracer is not None:
            tracer.write(harness.OUT / f"{args.workload}-spans.json",
                         {"workload": args.workload, "seed": args.seed})
    else:
        rounds = []
        began = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            rounds.append(workload.run_round())
            durations.append(time.perf_counter() - t0)
            if len(rounds) > 1:
                rounds[-1].pop("transcripts", None)
            elapsed = time.perf_counter() - began
            if elapsed + max(durations) > args.seconds:  # the next round might not fit
                break
        rss = workload.peak_rss(rounds)
        timed_start = rounds[0].get("timed_start_boot", setup_done)
        # each operation scaled to the reference speed by the kernel samples
        # around and during it, then its middle mean over the run's identical rounds
        scaled, raw = harness.op_seconds(rounds, workload.speed_exponent)
        measured = {"wall_s": sum(raw), "op_max_s": max(raw),
                    "setup_s": timed_start - started - setup_kernel_s}
        # set-up is bracketed by the first kernel sample and the first of the rounds
        setup_speed = (setup_kernel_s * rounds[0]["speed"][0]) ** 0.5
        values = {"wall_s": sum(scaled), "op_max_s": max(scaled), "peak_rss_mb": rss,
                  "setup_s": harness.at_reference_speed(measured["setup_s"], setup_speed,
                                                         workload.speed_exponent)}

    problems, info = workload.check(rounds, layer)
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    if args.trace:
        metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for op in failed:
        print(f"failed: {op['name']}: {op['error']}", file=sys.stderr)
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, combined digest "
          f"{info.get('combined_digest')}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": [{"wall": r["wall"], "speed": r.get("speed"),
                          "ops": [{k: op.get(k) for k in ("name", "s", "kernel_s", "error")}
                                  for op in r["ops"]]}
                         for r in rounds],
              "problems": problems, "info": info, "metrics": metrics}
    if layer is not None:
        detail["layer_all"] = layer
    else:
        detail.update(measured=measured, op_seconds=scaled, setup_kernel_s=setup_kernel_s)
    out = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
