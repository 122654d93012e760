"""Smoke mode: every workload at tiny size, untraced and traced.

Checks that each run emits exactly the metrics BENCHMARK.json declares,
that every output check passes with no failed item (the traced ensemble
run also checks that the process pool reproduces the serial output), and
that the output digests repeat across the runs of each workload.
"""

from __future__ import annotations

import json

import workloads as wls


def main(run, with_units, declared) -> int:
    errors = []
    first: dict[str, dict] = {}
    for name in wls.WORKLOADS:
        for trace in (False, True, False):
            kind = "per_layer" if trace else "end_to_end"
            result, digests = run(name, seed=7, seconds=0.0, trace=trace,
                                  size=wls.SMOKE, setup_repeats=1, store_path=None)
            try:
                with_units(result["metrics"], declared[kind])
            except RuntimeError as exc:
                errors.append(f"{name} trace={int(trace)}: {exc}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={int(trace)}: correct={result['correct']} "
                              f"failed={result['failed']}")
            if not digests:
                errors.append(f"{name} trace={int(trace)}: no output digest")
            for label, d in digests.items():
                if first.setdefault(name, {}).setdefault(label, d) != d:
                    errors.append(f"{name} step {label}: digest changed between runs")
    for e in errors:
        print(f"SMOKE FAILED: {e}")
    print(json.dumps({"smoke": "failed" if errors else "ok", "errors": len(errors)}))
    return 1 if errors else 0
