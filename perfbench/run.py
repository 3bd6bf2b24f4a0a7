"""The repository's benchmark: one workload per run, or a comparison.

Run one workload (from the checkout root)::

    python3 perfbench/run.py --workload offline-blast --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics.  Every correctness
gate that fails exits with code 1 and prints no result.  The last line
of standard output is the result as one JSON object; the lines before it
restate the run header and the workload's metrics by name and unit.
``--out FILE`` appends the run (header included) to a JSON-lines file,
``--spans FILE`` writes a traced run's spans.

Compare two commits' result files::

    python3 perfbench/run.py --compare before.jsonl after.jsonl

prints each metric's median and quartiles per workload and flags every
change beyond the metric's bound; it exits with code 1 if any is flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402  (puts src/ on the path)

WORKLOADS = ("offline-blast", "live-saturate", "serve-blast")

#: Detail metrics a workload prints besides the BENCHMARK.json metrics,
#: named for the layer they measure: unit, better, bound (None: reported,
#: never flagged by --compare).
DETAIL = {
    "plan_p50_ms": ("ms", "lower", 0.25),
    "plan_p99_ms": ("ms", "lower", 0.25),
    "calibrate_s": ("s", "lower", 0.15),
    "des_items_s": ("1/s", "higher", 0.15),
    "live_capacity_items_s": ("1/s", "higher", 0.2),
    "submit_p50_ms": ("ms", "lower", 0.25),
    "submit_p99_ms": ("ms", "lower", 0.25),
    "miss_rate": ("ratio", "lower", None),
}


def _module(workload: str):
    if workload == "offline-blast":
        from perfbench import offline as mod
    elif workload == "live-saturate":
        from perfbench import live as mod
    else:
        from perfbench import serve as mod
    return mod


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; raises ``GateError`` when a correctness gate fails."""
    spec = common.load_spec()
    mod = _module(workload)
    if trace:
        traced = mod.traced(seed, seconds)
        names = [m["name"] for m in spec["per_layer"]]
        layers = traced["layers"]
        missing = [n for n in names if n not in layers]
        common.gate(not missing, f"traced run lacks {missing}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        return {
            "metrics": {n: {"value": float(layers[n]), "unit": units[n]} for n in names},
            "detail": {},
            "attempted": max(1, len(traced["tracer"].spans)),
            "failed": 0,
            "tracer": traced["tracer"],
        }
    raw = mod.run(seed, seconds)
    metrics = {
        m["name"]: {"value": float(raw[m["name"]]), "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    for name, metric in metrics.items():
        common.gate(metric["value"] > 0, f"{name} measured {metric['value']}")
    return {
        "metrics": metrics,
        "detail": raw["_detail"],
        "attempted": raw["_attempted"],
        "failed": raw["_failed"],
    }


def print_run(header: dict, result: dict) -> None:
    print(
        f"# {header['workload']} seed={header['seed']} seconds={header['seconds']} "
        f"trace={int(header['trace'])} commit={header['commit'][:12]} dirty={header['dirty']} "
        f"python={header['python']} numpy={header['numpy']} nproc={header['nproc']} "
        f"backend={header['backend']} smoke={header['smoke']}"
    )
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in result["detail"].items():
        if isinstance(value, (int, float)):
            unit = DETAIL.get(name, ("",))[0]
            print(f"{name:44s} {value:.6g} {unit}".rstrip())


# -- compare ------------------------------------------------------------------


def _load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def compare(before_path: str, after_path: str) -> int:
    """Print medians and quartiles per workload; flag changes past bounds."""
    import statistics

    spec = common.load_spec()
    rules = {m["name"]: (m["unit"], m["better"], m.get("bound")) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["unit"], m["better"], None) for m in spec["per_layer"]})
    rules.update(DETAIL)

    def table(records):
        out: dict[str, dict[str, list[float]]] = {}
        for r in records:
            values = {k: v["value"] for k, v in r["metrics"].items()}
            values.update({k: v for k, v in r.get("detail", {}).items() if k in DETAIL})
            for name, value in values.items():
                out.setdefault(r["header"]["workload"], {}).setdefault(name, []).append(value)
        return out

    def quartiles(values):
        if len(values) == 1:
            return values[0], values[0], values[0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return q1, statistics.median(values), q3

    before, after = table(_load(before_path)), table(_load(after_path))
    flagged = 0
    for workload in sorted(set(before) & set(after)):
        print(f"## {workload}")
        print(f"{'metric':44s} {'before q1/median/q3':>32s} {'after q1/median/q3':>32s} {'change':>8s}")
        for name in sorted(set(before[workload]) & set(after[workload])):
            unit, better, bound = rules.get(name, ("", "lower", None))
            b1, bm, b3 = quartiles(before[workload][name])
            a1, am, a3 = quartiles(after[workload][name])
            change = (am - bm) / bm if bm else 0.0
            worse = change if better == "lower" else -change
            flag = bound is not None and worse > bound
            flagged += flag
            print(
                f"{name:44s} {b1:10.4g} {bm:10.4g} {b3:10.4g} {a1:10.4g} {am:10.4g} {a3:10.4g} "
                f"{change:+8.1%}{'  WORSE beyond bound ' + format(bound, '.0%') if flag else ''}"
            )
    print(f"{flagged} metric(s) worse beyond their bound")
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short run (6 seconds of load)")
    parser.add_argument("--out", help="append the run to this JSON-lines file")
    parser.add_argument("--spans", help="write a traced run's spans here (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds
    if seconds is None:
        seconds = 6.0 if args.smoke else float(common.load_spec()["run_seconds"])
    header = common.run_header(
        workload=args.workload, seed=args.seed, seconds=seconds,
        trace=bool(args.trace), smoke=args.smoke,
    )
    try:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except common.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    tracer = result.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print_run(header, result)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"header": header, **result}) + "\n")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
