"""Seeded workload inputs for the amap benchmark.

Run as a script, it generates one workload's networks and problems from a
seed and writes them as `.bnet`/`.prob` files plus a `manifest.json` that
lists the cases and the solver seed of every call:

    PYTHONPATH=src:tests python3 perfbench/workloads.py r120 7 perfbench/_work/r120-7

`run.py` times this script as the benchmark's set-up step. The program under
test only ever sees the written files.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from amap import Assignment, MapProblem, cli, fileio, forward_sample
from netgen import random_network, random_problem

# The textbook sprinkler network and the problem of acceptance criterion 3.
SPRINKLER_TEXT = """\
network sprinkler
var Rain { t, f }
var Sprinkler { t, f }
var WetGrass { t, f }
cpt Rain { 0.2 0.8 }
cpt Sprinkler | Rain { 0.01 0.99 ; 0.4 0.6 }
cpt WetGrass | Sprinkler Rain { 0.99 0.01 ; 0.9 0.1 ; 0.8 0.2 ; 0.0 1.0 }
"""
SPRINKLER_PROBLEM_TEXT = "map Sprinkler Rain\nevidence WetGrass=t\n"

GIBBS_SWEEPS = 500  # sweeps per gibbs_chain call


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _r120(rng: random.Random, out: Path, cases: int) -> List[Tuple[str, str]]:
    """The paper's protocol: one fixed 120-variable net, 20 MAP roots and 20
    evidence leaves per case, evidence states from one prior sample.

    Which roots and leaves case i uses is fixed by i, and only the evidence
    states come from the seed: elimination cost depends on the structure,
    which varies the solve time threefold between cases, so a seeded choice
    of structure would make a run's timings depend on its seed more than on
    the program.
    """
    net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3),
                         name="r120")
    _write(out / "r120.bnet", fileio.serialize_network(net))
    files = []
    for i in range(cases):
        shape = cli.generate_problem(net, 20, 20, random.Random(i))
        sample = forward_sample(net, rng)
        problem = MapProblem(shape.map_vars, Assignment(
            {v: sample[v] for v in shape.evidence.keys()}))
        _write(out / f"r120-{i:03d}.prob", fileio.serialize_problem(problem, net))
        files.append(("r120.bnet", f"r120-{i:03d}.prob"))
    return files


def _corpus(rng: random.Random, out: Path, cases: int) -> List[Tuple[str, str]]:
    """Acceptance criterion 1's 50 networks (8-12 variables, every root a MAP
    variable, every leaf evidence), drawn from its fixed generator seed; the
    seed draws each problem's evidence states, as r120's does."""
    corpus_rng = random.Random(2024)
    files = []
    for i in range(cases):
        net = random_network(corpus_rng, corpus_rng.randint(8, 12), max_parents=2,
                             cards=(2, 3), name=f"corpus{i}")
        random_problem(corpus_rng, net)  # criterion 1's own draw, kept in step
        problem = random_problem(rng, net)
        _write(out / f"corpus{i:02d}.bnet", fileio.serialize_network(net))
        _write(out / f"corpus{i:02d}.prob", fileio.serialize_problem(problem, net))
        files.append((f"corpus{i:02d}.bnet", f"corpus{i:02d}.prob"))
    return files


def _sprinkler(rng: random.Random, out: Path, cases: int) -> List[Tuple[str, str]]:
    _write(out / "sprinkler.bnet", SPRINKLER_TEXT)
    _write(out / "sprinkler.prob", SPRINKLER_PROBLEM_TEXT)
    return [("sprinkler.bnet", "sprinkler.prob")] * cases


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `ops` are the calls made on every case, in order: an `amap solve`
    algorithm with its extra CLI arguments, or "gibbs" for one
    `solver.gibbs_chain` call. Set-up writes `cases` distinct cases; an
    untraced run solves each of them at least once, whatever the machine
    speed, so answer digests and quality rates cover a fixed set and repeat
    exactly under a fixed seed. A traced run solves the first
    `traced_cases` of them per pass.
    """

    name: str
    ops: Tuple[Tuple[str, Tuple[str, ...]], ...]
    cases: int
    traced_cases: int
    files: Callable[[random.Random, Path, int], List[Tuple[str, str]]]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("r120", (("anneal", ()), ("hillclimb", ())),
             cases=16, traced_cases=6, files=_r120),
    Workload("sprinkler-gibbs", (("gibbs", ()),),
             cases=16, traced_cases=16, files=_sprinkler),
    Workload("corpus50", (("anneal", ("--restarts", "5")), ("oracle", ()),
                          ("hillclimb", ())),
             cases=50, traced_cases=50, files=_corpus),
)}


def generate(workload: Workload, seed: int, out: Path, cases: int) -> None:
    """Write `cases` cases of `workload` under `out`, and a manifest giving
    each case's files and the solver seed of each call."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    entries = []
    for net, problem in workload.files(rng, out, cases):
        seeds = {op: rng.randrange(2 ** 31) for op, _ in workload.ops}
        entries.append({"net": net, "problem": problem, "seeds": seeds})
    manifest = {"workload": workload.name, "seed": seed, "cases": entries}
    _write(out / "manifest.json", json.dumps(manifest))


def main(argv: List[str]) -> int:
    if len(argv) not in (3, 4):
        print("usage: workloads.py WORKLOAD SEED OUTDIR [CASES]", file=sys.stderr)
        return 2
    workload = WORKLOADS[argv[0]]
    cases = int(argv[3]) if len(argv) == 4 else workload.cases
    generate(workload, int(argv[1]), Path(argv[2]), cases)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
