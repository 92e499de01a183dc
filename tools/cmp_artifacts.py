"""Byte-identity check of every pipeline artifact against a parent revision.

Usage (from the repository root)::

    python3 tools/cmp_artifacts.py PARENT_REV [--new NAME]...

The parent's ``src/`` is extracted with ``git archive`` into
``.cmp_work/parent_src/``.  Each case runs under the parent's ``src/`` and
under this tree's ``src/``, each in its own subprocesses with BLAS at one
thread: first ``simulate``, whose data files are compared, and then, on
that run's own data, the workload's stages with ``aggregate`` of the
forecast predictions after them.  Every file the two runs write is compared
byte for byte, and so is each stage's stdout artifact list, its paths made
relative to the run's directory: the benchmark finds and hashes a stage's
artifacts from those lines.  The first file that differs, or that only one
run wrote, or the first stage whose list differs, is printed and the exit
code is 1; when every case matches the exit code is 0.  ``--new NAME``
(repeatable) names a file, by its path relative to a run's output
directory, that only this tree is expected to write: where only this
tree's run wrote it, it is listed after the case and not compared, and
left out of that run's stdout lists.  Written by both runs, it is compared
like any other file.

Cases: desk seeds 1-10, desk with ``simulate.cadence`` "1-in-3" seeds 1-2,
wide seed 1 and the cv workload of seeds 1-2.  The configurations and
stages are read from ``WORKLOADS`` in ``bench/run.py`` with ``ast``,
without running that file.  Everything is written under ``.cmp_work/``;
nothing is read from the network.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".cmp_work"


def bench_literal(name: str):
    """The module-level literal ``name`` of ``bench/run.py``, such as
    ``WORKLOADS``, each module-level name it uses replaced by that name's
    literal value."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    assigns = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    class Inline(ast.NodeTransformer):
        def visit_Name(self, node):
            return self.visit(assigns[node.id])

    return ast.literal_eval(Inline().visit(assigns[name]))


AGGREGATE = ["aggregate", "--predictions", "{out}/predictions_forecast.csv"]


def cases() -> dict:
    """Case name -> (seed, config overrides, stages)."""
    out = {}
    for name, spec in bench_literal("WORKLOADS").items():
        stages = [list(argv) for _, argv in spec["stages"]]
        if ["predict", "--mode", "forecast"] in stages:
            stages.append(AGGREGATE)
        out[name] = (spec["config"], stages)
    desk, stages = out["desk"]
    cadence = ({**desk, "simulate": {"cadence": "1-in-3"}}, stages)
    return {
        **{f"desk-{s}": (s, *out["desk"]) for s in range(1, 11)},
        **{f"desk-1in3-{s}": (s, *cadence) for s in (1, 2)},
        "wide-1": (1, *out["wide"]),
        **{f"cv-{s}": (s, *out["cv"]) for s in (1, 2)},
    }


#: Runs the stages given as JSON in argv[1] through ``specdown.cli.main``,
#: stopping at the first that fails, and prints the JSON list of each
#: stage's stdout lines.
DRIVER = """
import contextlib, io, json, sys, warnings
warnings.simplefilter("ignore")
from specdown import cli
listed = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        sys.exit(f"stage {argv} exited {code}")
    listed.append(out.getvalue().splitlines())
print(json.dumps(listed))
"""


def run(src: Path, argvs: list, root: Path) -> list:
    """The CLI invocations ``argvs`` in one subprocess importing ``src``;
    returns each one's stdout artifact list, its paths relative to
    ``root``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise SystemExit(f"cmp_artifacts: {src}: {done.stderr.strip()}")
    return [[os.path.relpath(p, root) for p in lines] for lines in json.loads(done.stdout)]


def write_config(path: Path, overrides: dict, data: Path, out: Path) -> Path:
    cfg = {
        "grids_dir": str(data / "grids"),
        "stations_file": str(data / "stations.csv"),
        "output_dir": str(out),
        **overrides,
    }
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def artifacts(out: Path) -> dict:
    """Relative path -> bytes of every file a run wrote, its config aside."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "config.json"
    }


def first_difference(parent: dict, head: dict, new: set) -> str | None:
    """The first file of ``parent`` or ``head`` that differs or that one of
    them lacks, or None; a file of ``new`` that only ``head`` holds is
    skipped."""
    if not parent:  # two empty runs would match
        return "no artifacts written"
    for rel in sorted(set(parent) | set(head)):
        if rel in new and rel not in parent:
            continue
        if rel not in parent or rel not in head:
            return f"{rel} written by the {'head' if rel in head else 'parent'} only"
        if parent[rel] != head[rel]:
            return f"{rel} differs"
    return None


def first_listing_difference(stages: list, listed: dict, new: set) -> str | None:
    """The first of ``stages`` whose stdout artifact list differs between
    the runs, or None; a path of ``new`` below the run's data or output
    directory that only the head lists is skipped."""
    for argv, parent, head in zip(stages, listed["parent"], listed["head"]):
        head = [p for p in head if p in parent or p.split(os.sep, 1)[-1] not in new]
        if parent != head:
            return f"stage {' '.join(argv)}: stdout artifact list differs"
    return None


def compare(name: str, seed: int, overrides: dict, stages: list, srcs: dict, new: set):
    """(what differs first between the runs of one case, or None, and the
    files of ``new`` that only the head wrote): the simulated data first,
    then the stages' outputs, each followed by the stdout lists."""
    case = fresh(WORK / name)
    data, outputs, listed = {}, {}, {}
    for label, src in srcs.items():
        sim = case / label / "data"
        sim.mkdir(parents=True)
        sim_cfg = write_config(sim / "config.json", overrides, sim, sim)
        argvs = [["--config", str(sim_cfg), "--seed", str(seed), "simulate"]]
        listed[label] = run(src, argvs, case / label)
        data[label] = artifacts(sim)
    differs = first_difference(data["parent"], data["head"], new)
    if differs is not None:
        return f"simulate: {differs}", []
    differs = first_listing_difference([["simulate"]], listed, new)
    if differs is not None:
        return differs, []
    for label, src in srcs.items():
        out = case / label / "out"
        out.mkdir()
        cfg = str(write_config(out / "config.json", overrides, case / label / "data", out))
        argvs = [["--config", cfg] + [a.format(out=out) for a in argv] for argv in stages]
        listed[label] = run(src, argvs, case / label)
        outputs[label] = artifacts(out)
    only_head = sorted(new & (set(outputs["head"]) - set(outputs["parent"])))
    differs = first_difference(outputs["parent"], outputs["head"], new)
    return differs or first_listing_difference(stages, listed, new), only_head


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="git revision to compare this tree's src/ against")
    parser.add_argument(
        "--new",
        action="append",
        default=[],
        metavar="NAME",
        help="a file only this tree is expected to write, relative to the output directory; "
        "listed and skipped where only this tree wrote it (repeatable)",
    )
    args = parser.parse_args(argv)

    parent_src = fresh(WORK / "parent_src")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", args.parent_rev, "src"],
        capture_output=True,
        check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(parent_src)], input=archive, check=True)
    srcs = {"parent": parent_src / "src", "head": ROOT / "src"}

    for name, (seed, overrides, stages) in cases().items():
        differs, only_head = compare(name, seed, overrides, stages, srcs, set(args.new))
        if differs is not None:
            print(f"{name}: {differs}")
            return 1
        print(f"{name}: identical" + (f" (new: {', '.join(only_head)})" if only_head else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
