"""Golden artifact digests: every CLI command, run on small configs, must
write byte for byte the files whose sha256 digests ``golden_digests.json``
records.

Float bytes depend on numpy, on the BLAS build and on the CPU, so the file
also records the environment it was made on. On any other environment the
test fails and names the difference; it never skips. Only a change that
declares a results change may rewrite the file, with

    PYTHONPATH=src python tests/test_golden_digests.py

which prints each ``command: file`` entry it changes and their count.
"""

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from deferlab.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

# The TINY config of test_harness_cli.py with two seeds, frozen here so that
# edits to other tests cannot move the digests.
CONFIG = dict(
    num_classes=4,
    dim=4,
    separation=2.5,
    noise_scale=1.0,
    train_size=120,
    val_size=40,
    test_size=60,
    context_pool_size=80,
    experts_id=2,
    experts_ood=2,
    overlap_probabilities=[0.2],
    context_size=20,
    seeds=[1, 2],
    method=["ea_l2d", "pop_avg"],
    learning_rate=0.2,
    batch_size=32,
    epochs=6,
    patience=None,
)

# A sweep over two p values x two expertise values, so that the order of the
# metric rows and curve files across grid cells is frozen too.
MULTI_CELL_CONFIG = dict(
    CONFIG,
    overlap_probabilities=[0.2, 0.8],
    experts_id=1,
    experts_ood=1,
    expertise_per_expert=[1, 2],
)

# Large enough that evaluation runs in more than one row block (see
# ``nets.row_blocks``): 5 003 test cases, and a validation pass of 1 700
# cases x 2 experts = 3 400 rejector rows.
ROW_BLOCKS_CONFIG = dict(CONFIG, test_size=5003, val_size=1700)

# The config paths no other scenario runs: a prior file (read relative to
# the working directory, which is the work dir, so the manifest echoes the
# same path on every run), an explicit context subsample size, weight
# decay, a two-layer classifier and evaluation ranges on the percent scale.
KNOBS_CONFIG = dict(
    CONFIG,
    prior_file="priors.csv",
    context_subsample=5,
    weight_decay=0.001,
    classifier_hidden=[8, 8],
    eval_ranges=[[0, 100], [10, 30]],
)

# Expert 0's and expert 2's elicited accuracy p, confidence c and strength s
# on each of CONFIG's 4 classes.
PRIORS_CSV = """expert_id,class,p,c,s
0,0,0.9,0.8,10
0,1,0.7,0.5,10
0,2,0.3,0.6,10
0,3,0.5,0.2,10
2,0,0.2,0.9,4
2,1,0.4,0.4,4
2,2,0.8,0.7,4
2,3,0.6,0.3,4
"""

COMMANDS = {
    "generate": ["generate", "--config", "{config}"],
    "train": ["train", "--config", "{config}"],
    "evaluate": ["evaluate", "--config", "{config}"],
    "sweep": ["sweep", "--config", "{config}"],
    "priors-study": ["priors-study", "--config", "{config}"],
    "theory-check": ["theory-check", "--seed", "0"],
    "sweep-multi-cell": ["sweep", "--config", "{multi_cell_config}"],
    "evaluate-row-blocks": ["evaluate", "--config", "{row_blocks_config}"],
    "evaluate-knobs": ["evaluate", "--config", "{knobs_config}"],
}


def environment() -> dict:
    """What the artifact bytes depend on besides the code."""
    env = {"numpy": np.__version__, "machine": platform.machine()}
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 cannot report its build as data
        env["blas"] = env["simd"] = "unknown"
        return env
    blas = info["Build Dependencies"]["blas"]
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    env["simd"] = info["SIMD Extensions"]["found"]
    return env


def artifact_digests(work: Path) -> dict:
    """Run every command into ``work``, with ``work`` as the working
    directory, and digest what each one wrote."""
    configs = {
        "config": CONFIG,
        "multi_cell_config": MULTI_CELL_CONFIG,
        "row_blocks_config": ROW_BLOCKS_CONFIG,
        "knobs_config": KNOBS_CONFIG,
    }
    for key, raw in configs.items():
        (work / f"{key}.json").write_text(json.dumps(raw))
    (work / "priors.csv").write_text(PRIORS_CSV)
    paths = {key: work / f"{key}.json" for key in configs}
    digests, cwd = {}, os.getcwd()
    os.chdir(work)
    try:
        for name, args in COMMANDS.items():
            out = work / name
            argv = [a.format(**paths) for a in args] + ["--out", str(out)]
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"deferlab {' '.join(argv)} exited {code}")
            digests[name] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
    finally:
        os.chdir(cwd)
    return digests


def differences(recorded: dict, actual: dict) -> list[str]:
    lines = []
    for key in sorted(set(recorded) | set(actual)):
        if recorded.get(key) != actual.get(key):
            lines.append(f"{key}: recorded {recorded.get(key)!r}, here {actual.get(key)!r}")
    return lines


def changed_entries(recorded: dict, actual: dict) -> list[str]:
    """One ``command: file`` line per artifact that differs between two
    digest sets, sorted by command and file name."""
    changed = []
    for command in sorted(set(recorded) | set(actual)):
        before, here = recorded.get(command, {}), actual.get(command, {})
        for name in sorted(set(before) | set(here)):
            if name not in here:
                changed.append(f"{command}: {name} not written")
            elif name not in before:
                changed.append(f"{command}: {name} not in the golden set")
            elif before[name] != here[name]:
                changed.append(f"{command}: {name} differs")
    return changed


def test_every_artifact_matches_its_golden_digest(tmp_path):
    golden = json.loads(DIGESTS.read_text())
    diff = differences(golden["environment"], environment())
    assert not diff, "golden digests were recorded on another environment:\n" + "\n".join(diff)
    changed = changed_entries(golden["artifacts"], artifact_digests(tmp_path))
    assert not changed, "artifacts differ from the golden digests:\n" + "\n".join(changed)


if __name__ == "__main__":
    import contextlib
    import tempfile

    old = json.loads(DIGESTS.read_text())
    # the commands' own output goes to stderr; stdout lists the changed entries
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        record = {"environment": environment(), "artifacts": artifact_digests(Path(tmp))}
    changed = changed_entries(old["artifacts"], record["artifacts"])
    print("\n".join(changed + [f"{len(changed)} entries changed"]))
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
