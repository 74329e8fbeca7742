"""tools/identity.py, the output-identity check, compares two source trees
without git: the same tree passes, and a tree whose toy-model bits differ
fails and names the differing files."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


identity = _load_identity()


def test_tree_equals_itself(tmp_path, capsys):
    cases = [identity.readme_case(tmp_path), identity.model_case(tmp_path)]
    assert identity.compare(ROOT, ROOT, cases, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    labels = ["workers 1", "workers 2", "workers 1, one BLAS thread"]
    assert [line.split(": ")[0] for line in lines] == [
        f"{case}, {label}" for case in ("readme", "toy-models") for label in labels]
    counts = [int(re.fullmatch(r".*: all (\d+) output files equal the base's", line)[1]) for line in lines]
    assert counts[:3] == [counts[0]] * 3 and counts[0] > 100  # raw, aligned, augmented and maps
    assert counts[3:] == [3, 3, 3]


def test_sum_order_mutation_fails_and_names_the_model_files(tmp_path, capsys):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src", ignore=shutil.ignore_patterns("__pycache__"))
    morphable = mutant / "src" / "facepipe" / "morphable.py"
    text = morphable.read_text()
    line = "sq = (dx * dx + dy * dy) + dz * dz"
    assert text.count(line) == 1
    morphable.write_text(text.replace(line, "sq = dx * dx + (dy * dy + dz * dz)"))
    assert not identity.compare(ROOT, mutant, [identity.model_case(tmp_path)], tmp_path)
    out = capsys.readouterr().out
    assert "toy-models, workers 1: 3 output files differ from the base's:" in out
    assert "toy-models, workers 1, one BLAS thread: 3 output files differ" in out
    for model in identity.MODELS:  # one file per model, named by its arguments
        assert "\n  " + "-".join(map(str, model)) + ".mlmm\n" in out
