"""python3 tools/identity.py BASE_REV: every output file must equal BASE_REV's.

Each case runs in a new process and one fixed directory, with BASE_REV's facepipe (a `git
worktree`) at --workers 1 and this tree's at 1 and 2, with no inherited OPENBLAS_NUM_THREADS,
then with both at 1 and OPENBLAS_NUM_THREADS=1. One line per comparison; exits 1 on any
difference, naming each differing file."""

import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

SCRIPT = Path(__file__).resolve()
TREE = SCRIPT.parent.parent
# the default, c7's and a small toy model, saved whole: the README case's augment builds
# the default one, but no case's commands write a model's bytes
MODELS = [(2000, 10, 29, 0), (1200, 10, 29, 0), (57, 3, 5, 9)]
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


def _case(case: Path, commands: list[list[str]]) -> Path:
    """A case directory: its commands, and start/ for the files each run starts with."""
    (case / "start").mkdir(parents=True)
    (case / "commands.json").write_text(json.dumps(commands))
    return case


def workload_cases(work: Path) -> Iterator[Path]:
    """The benchmark workloads at seeds 5 and 11, as this tree's perfbench defines them."""
    from perfbench.workloads import WORKLOADS, resolve

    for name in ("c7", "paper-maps", "frgc-match"):
        for seed in (5, 11):
            case = work / "cases" / f"{name}-{seed}"
            config, commands = resolve(WORKLOADS[name], seed, case / "in", work / "out")
            _case(case, [argv for _, argv in commands])
            WORKLOADS[name].generate(case / "in", seed)
            (case / "start" / "config.json").write_text(json.dumps(config, indent=1))
            yield case


def readme_case(work: Path) -> Path:
    """README's session: its `facepipe` lines, from the raw scans and config its scan script makes."""
    session = (TREE / "README.md").read_text().split("A minimal end-to-end session", 1)[1]
    block = session.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("facepipe ")]
    case = _case(work / "cases" / "readme", [argv + ["--workers", "1"] for argv in lines])
    script = block[: block.index("\nPY\n") + 4]  # the scan script, before the first command
    subprocess.run(["sh", "-e", "-c", script], cwd=case / "start", env=_env(TREE), check=True)
    return case


def model_case(work: Path) -> Path:
    return _case(work / "cases" / "toy-models", [["model", *map(str, m)] for m in MODELS])


def _env(tree: Path, **extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(tree / "src"), **extra}


def _run(case: Path, tree: Path, workers: int, out: Path, **extra_env: str) -> dict[str, str]:
    """Run `case` in `out` with `tree`'s facepipe; the digest of every file left there."""
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(case / "start", out)
    child = [sys.executable, str(SCRIPT), "--child", str(case), f"{tree / 'src'}{os.sep}", str(workers)]
    subprocess.run(child, cwd=out, env=_env(tree, **extra_env), check=True)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def compare(base: Path, tree: Path, cases: list[Path], work: Path) -> bool:
    """Print one line per comparison of each case's runs; True when every file is the base's."""
    same, out = True, work / "out"
    for case in cases:
        first = _run(case, base, 1, out)
        for label, want, got in [
            ("workers 1", first, _run(case, tree, 1, out)),
            ("workers 2", first, _run(case, tree, 2, out)),
            ("workers 1, one BLAS thread",
             _run(case, base, 1, out, **ONE_BLAS_THREAD), _run(case, tree, 1, out, **ONE_BLAS_THREAD)),
        ]:
            differ = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
            verdict = (f"{len(differ)} output files differ from the base's:" if differ
                       else f"all {len(got)} output files equal the base's")
            print(f"{case.name}, {label}: {verdict}", *(f"  {f}" for f in differ), sep="\n", flush=True)
            same = same and not differ
    return same


def _child(case: str, src: str, workers: str) -> None:
    """Run a case's commands in the current directory with the facepipe found in `src`."""
    import facepipe.cli
    from facepipe.morphable import make_toy_model, save_model

    if not facepipe.cli.__file__.startswith(src):
        sys.exit(f"facepipe imported from {facepipe.cli.__file__}, not from {src}")
    logging.basicConfig(level=logging.WARNING)  # failures only, not a line per item
    for argv in json.loads(Path(case, "commands.json").read_text()):
        if argv[0] == "model":
            save_model(make_toy_model(*map(int, argv[1:])), "-".join(argv[1:]) + ".mlmm")
            continue
        argv[argv.index("--workers") + 1] = workers
        if facepipe.cli.main(argv) != 0:
            sys.exit(f"{' '.join(argv)} failed")


def main(rev: str) -> int:
    sys.path[:0] = [str(TREE), str(TREE / "src")]  # the inputs are made by this tree
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        git = ["git", "-C", str(TREE), "worktree"]
        subprocess.run([*git, "add", "--detach", str(work / "base"), rev], check=True)
        try:
            cases = [*workload_cases(work), readme_case(work), model_case(work)]
            return 0 if compare(work / "base", TREE, cases, work) else 1
        finally:
            subprocess.run([*git, "remove", "--force", str(work / "base")], check=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit("usage: python3 tools/identity.py BASE_REV")
