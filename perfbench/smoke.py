"""Small-size self-test of the benchmark.

    python3 perfbench/smoke.py

For every workload, on a few cases: an untraced run emits every end-to-end
metric of BENCHMARK.json and a traced run every per-layer metric, both with
no failed call; and a run whose answers are corrupted on purpose reports
them in `failed` and in a nonzero `failed_ratio`. Exits 1 on the first
assertion that does not hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys

import run

SMALL = {"r120": 1, "sprinkler-gibbs": 2, "corpus50": 5}


def _wrong_logp(call: run.Call) -> None:
    call.output = re.sub(r"log10_p = \S+", "log10_p = -0.5", call.output)


def _wrong_oracle(call: run.Call) -> None:
    """Flip the first MAP variable's printed state; the re-scored ln p then
    disagrees with the printed one and the enumeration check fires too."""
    lines = call.output.splitlines()
    name, state = lines[0].split("=")
    lines[0] = f"{name}={'s1' if state == 's0' else 's0'}"
    call.output = "\n".join(lines) + "\n"


def _zero_visit(call: run.Call) -> None:
    # Sprinkler=f, Rain=f has probability zero given WetGrass=t
    call.output = [(1, 1)] + list(call.output[1:])


CORRUPT = {
    "r120": lambda calls: _wrong_logp(calls[0]),
    "corpus50": lambda calls: _wrong_oracle(next(c for c in calls if c.op == "oracle")),
    "sprinkler-gibbs": lambda calls: _zero_visit(calls[0]),
}


def _run(workload, trace: bool, corrupt=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, 1, 0.0, trace, corrupt)
    assert json.loads(out.getvalue().splitlines()[-1]) == json.loads(json.dumps(result))
    return result, out.getvalue()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    run.WORK.mkdir(exist_ok=True)
    for name, cases in SMALL.items():
        workload = dataclasses.replace(run.WORKLOADS[name], cases=cases, traced_cases=cases)
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result, _ = _run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, f"{name} trace={trace}: metrics {got} != {wanted}"
            assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
            if not trace:
                zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
                assert not zero, f"{name}: end-to-end metrics {zero} are not positive"
        result, text = _run(workload, False, CORRUPT[name])
        ratio = float(re.search(r"^metric failed_ratio = (\S+)", text, re.M).group(1))
        assert not result["correct"] and result["failed"] >= 1 and ratio > 0, \
            f"{name}: corrupted answer not counted: {result}, failed_ratio {ratio}"
        print(f"smoke {name}: ok ({result['failed']} of {result['attempted']} "
              f"corrupted calls counted as failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
