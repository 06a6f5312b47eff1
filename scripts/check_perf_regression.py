#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh perf_suite run against the
committed trajectory point (BENCH_perf.json).

Usage:
    python3 scripts/check_perf_regression.py bench_smoke.json \
        [--baseline=BENCH_perf.json] [--max-ratio=N]

Both files carry the parmis-perf-v6 schema.  The committed baseline is
a full-budget run on a quiet machine; CI produces a --smoke run on a
noisy shared runner, so magnitudes are not comparable run-to-run.  The
gate therefore checks per-metric tolerance BANDS, not equality:

  * every metric knows which direction is good (throughput up, latency
    down), and only the bad direction can fail the gate;
  * the default band is a factor of --max-ratio (10x) for like-for-like
    runs; when the fresh run is --smoke and the baseline is not, the
    band widens to --smoke-max-ratio (40x), because smoke budgets
    legitimately land ~10x below full-budget throughput (fewer cells
    amortizing fixed costs) before any runner noise.  Either band still
    catches an accidentally quadratic path or a dropped SIMD flag,
    which regress by further orders of magnitude;
  * speedup ratios are budget-independent, so they get tight absolute
    floors;
  * a metric present in the baseline but missing from the fresh run
    fails — silently losing a series is itself a regression.

Exit status: 0 when every metric is inside its band, 1 otherwise.
"""

import argparse
import json
import sys

SCHEMA = "parmis-perf-v6"

# metric -> (direction, kind)
#   direction: "higher" is better or "lower" is better
#   kind: "scaled"  — magnitude depends on the bench budget; gate by
#                     the ratio band only
#         ("floor", full, smoke) — absolute bound; fresh must stay
#                     >= it (direction "higher") or <= it ("lower");
#                     the smoke bound applies on smoke-vs-full runs
METRICS = {
    "campaign_cells_per_s": ("higher", "scaled"),
    "acquisition_us_per_candidate": ("lower", "scaled"),
    "acquisition_scalar_us_per_candidate": ("lower", "scaled"),
    # The whole point of the batched backend: it must not quietly
    # become slower than the scalar path it replaced.
    "acquisition_batched_speedup": ("higher", ("floor", 1.0, 1.0)),
    "merge_cells_per_s": ("higher", "scaled"),
    "serve_decisions_per_s_per_core": ("higher", "scaled"),
    "serve_latency_p50_us": ("lower", "scaled"),
    "serve_latency_p99_us": ("lower", "scaled"),
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    return doc


def main():
    parser = argparse.ArgumentParser(
        description="gate fresh perf_suite output against the committed "
        "baseline")
    parser.add_argument("fresh", help="perf_suite JSON from this run")
    parser.add_argument("--baseline", default="BENCH_perf.json",
                        help="committed trajectory point "
                        "(default: %(default)s)")
    parser.add_argument("--max-ratio", type=float, default=10.0,
                        help="allowed bad-direction factor for "
                        "budget-scaled metrics on like-for-like runs "
                        "(default: %(default)s)")
    parser.add_argument("--smoke-max-ratio", type=float, default=40.0,
                        help="band used instead when gating a --smoke "
                        "run against a full-budget baseline "
                        "(default: %(default)s)")
    args = parser.parse_args()

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    fresh_metrics = fresh.get("metrics", {})
    base_metrics = baseline.get("metrics", {})
    smoke_vs_full = bool(fresh.get("smoke")) and not baseline.get("smoke")
    ratio = args.smoke_max_ratio if smoke_vs_full else args.max_ratio

    failures = []
    for name, base_value in sorted(base_metrics.items()):
        if name not in METRICS:
            print(f"  ?  {name}: not in the gate table, skipped")
            continue
        if name not in fresh_metrics:
            failures.append(f"{name}: present in baseline, missing from "
                            f"{args.fresh}")
            continue
        value = fresh_metrics[name]
        direction, kind = METRICS[name]
        if kind == "scaled":
            if direction == "higher":
                limit = base_value / ratio
                ok = value >= limit
                band = f">= {limit:.6g} (baseline/{ratio:g})"
            else:
                limit = base_value * ratio
                ok = value <= limit
                band = f"<= {limit:.6g} (baseline*{ratio:g})"
        else:
            bound = kind[2] if smoke_vs_full else kind[1]
            if direction == "higher":
                ok = value >= bound
                band = f">= {bound:g} (absolute floor)"
            else:
                ok = value <= bound
                band = f"<= {bound:g} (absolute ceiling)"
        mark = "ok " if ok else "FAIL"
        print(f"  {mark} {name}: {value:.6g} vs baseline "
              f"{base_value:.6g}, band {band}")
        if not ok:
            failures.append(f"{name}: {value:.6g} outside band {band} "
                            f"(baseline {base_value:.6g})")

    if smoke_vs_full:
        print(f"  (smoke run vs full-budget baseline: using the "
              f"{ratio:g}x smoke band)")

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nperf regression gate passed "
          f"({len(base_metrics)} metrics checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
