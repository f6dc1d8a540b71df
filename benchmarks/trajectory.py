"""The end-to-end trajectory as a file: one row per (tree, workload).

    python benchmarks/trajectory.py TREE [TREE ...] [--workload W ...]
        [--pairs N] [--seconds S] [--out BENCH_e2e.json] [--workdir DIR]

``TREE`` is a commit-ish, or ``.`` for the working tree as it stands,
optionally ``TREE=LABEL`` to name its rows (default: the short hash).
Each commit is exported under ``--workdir`` (``git archive``: the driver
too runs "from the root of a checkout that is not a git repository", and
nothing is left behind in ``.git``) and *its own*
``benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0`` is
run there.  The harness has not changed since PR 12, so every commit
from then on is measured by the same tool.

Runs alternate: for each seed every tree runs once, and the tree that
goes first rotates from seed to seed, so drift of the box lands on all
sides alike.  A row holds the median and quartiles of the five
end-to-end metrics over the seeds, ``failed``, the seeds, ``nproc`` and
the Python and numpy versions.  Rows already in ``--out`` are skipped,
so an interrupted backfill resumes where it stopped; every run made is
kept in the row (``runs``), in the order it was made.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
#: run.py gives itself 165 s and a grace period; past this it is stuck.
RUN_TIMEOUT_S = 200


def git(*args: str) -> str:
    return subprocess.run(
        ("git", "-C", str(ROOT)) + args, check=True, capture_output=True, text=True
    ).stdout.strip()


class Tree:
    """One side of the comparison: a label for the rows and a directory
    to run in."""

    def __init__(self, spec: str, workdir: Path):
        spec, _, label = spec.partition("=")
        if spec == ".":
            self.label = label or "worktree@" + git("rev-parse", "--short", "HEAD")
            self.path = ROOT
            return
        commit = git("rev-parse", "--short", spec)
        self.label = label or commit
        self.path = workdir / commit
        if not self.path.exists():
            self.path.mkdir(parents=True)
            archive = self.path / "tree.tar"
            git("archive", "--format=tar", "-o", str(archive), spec)
            with tarfile.open(archive) as tar:
                tar.extractall(self.path)
            archive.unlink()

    def run(self, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
        """One run of this tree's own harness; its result object, or a
        failed one when it printed none."""
        env = dict(os.environ, PYTHONPATH=str(self.path / "src"))
        command = (
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        )  # fmt: skip
        try:
            done = subprocess.run(
                command, cwd=self.path, env=env, capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S,
            )  # fmt: skip
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as error:
            return {"seed": seed, "correct": False, "error": repr(error)}
        return {
            "seed": seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: cell["value"] for name, cell in result["metrics"].items()},
        }


def summarise(label: str, workload: str, seconds: float, runs: List[Dict]) -> Dict:
    """The row for one (tree, workload) from its runs."""
    row: Dict[str, Any] = {
        "tree": label,
        "workload": workload,
        "seconds": seconds,
        "seeds": [run["seed"] for run in runs],
        "incorrect": sum(not run["correct"] for run in runs),
        "failed": sum(run.get("failed", 0) for run in runs),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "runs": runs,
    }
    for name in METRICS:
        values = [run[name] for run in runs if name in run]
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            row[name] = {"median": median, "q1": q1, "q3": q3}
    return row


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", help="commit-ish, or . for the working tree")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10, help="seeds per tree")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_e2e.json")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="trajectory-"))
    trees = [Tree(spec, workdir) for spec in args.trees]
    rows: List[Dict] = json.loads(args.out.read_text()) if args.out.exists() else []
    for workload in args.workload or WORKLOADS:
        have = {row["tree"] for row in rows if row["workload"] == workload}
        todo = [tree for tree in trees if tree.label not in have]
        runs: Dict[str, List[Dict]] = {tree.label: [] for tree in todo}
        for seed in range(args.pairs):
            turn = seed % max(1, len(todo))
            for tree in todo[turn:] + todo[:turn]:
                run = tree.run(workload, seed, args.seconds)
                runs[tree.label].append(run)
                print(tree.label, workload, json.dumps(run), flush=True)
        for tree in todo:
            rows.append(summarise(tree.label, workload, args.seconds, runs[tree.label]))
            args.out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
